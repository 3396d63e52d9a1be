"""In-memory spans around maxclass's layer boundaries, installed from outside.

``Tracer.install`` replaces each function listed in ``SPANS`` by a
wrapper that records (name, start, end, parent, pid), everywhere the
package holds a reference to it: module globals, names imported into
other modules and the ``checks.SUITES`` table.  ``uninstall`` puts the
originals back, so untraced passes run the unmodified code.

Per-element helpers (``depth_of``, ``simplex_mod``, ``is_prime``) are
not wrapped; their cost lands in the self time of the enclosing span.

A forked worker of ``enumerate_isoclasses`` runs the wrapped
``_count_tail_range`` too.  There the wrapper returns its result as a
tuple that carries the shard's span; unpickling it in the traced parent
files the span under the open ``enumerate_isoclasses`` span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module under maxclass, attribute) of every traced layer boundary.
SPANS = (
    ("cli", "main"),
    ("checks", "suite_simplex"),
    ("checks", "suite_rootlog"),
    ("checks", "suite_standard_form"),
    ("checks", "suite_stability"),
    ("checks", "suite_orbits"),
    ("checks", "suite_counting"),
    ("checks", "suite_zeta"),
    ("checks", "suite_oracle"),
    ("counting", "enumerate_isoclasses"),
    ("counting", "_count_tail_range"),
    ("counting", "closed_form_count"),
    ("counting", "expected_census"),
    ("zeta", "count_from_series"),
    ("zeta", "series_coefficients"),
    ("zeta", "zeta_closed_form"),
    ("zeta", "BivariateRationalFunction.__init__"),
    ("standard_form", "build_rep"),
    ("standard_form", "_validate_closed_form"),
    ("standard_form", "cycle_constraint_holds"),
    ("simplex", "simplex_row_mod"),
    ("simplex", "SimplexTable.build"),
    ("simplex", "SimplexTable.validate"),
    ("simplex", "scaled_congruence_holds"),
    ("stability", "minimal_stable_index"),
    ("stability", "is_irreducible_structural"),
    ("stability", "restriction_monotone"),
    ("orbits", "shift_orbit"),
    ("orbits", "shift_spec"),
    ("oracle", "realize"),
    ("oracle", "check_relations"),
    ("oracle", "commutant_dimension"),
    ("oracle", "mutual_eigenspace_census"),
    ("oracle", "subspace_is_stable"),
)
SPAN_NAMES = tuple(f"{mod}.{attr.removesuffix('.__init__')}" for mod, attr in SPANS)
SHARD_SPAN = "counting._count_tail_range"

# The tracer that receives spans unpickled from worker processes.  An
# unpickling hook has no arguments of its own, so it has to find its
# target through the module.
_ACTIVE: "Tracer | None" = None


class _RemoteResult(tuple):
    """A worker's tuple result that carries the worker's span with it."""

    def __new__(cls, value: tuple, span: tuple):
        obj = super().__new__(cls, value)
        obj.span = span
        return obj

    def __reduce__(self):
        return (_remote_result_arrived, (tuple(self), self.span))


def _remote_result_arrived(value: tuple, span: tuple) -> tuple:
    if _ACTIVE is not None:
        _ACTIVE.add_remote(span)
    return value


class Tracer:
    """Spans of the traced passes, kept in memory until the run ends.

    ``spans[i]`` is (name_id, start, end, parent_index, pid), with
    ``parent_index`` -1 at the top; ``names[name_id]`` is the span name.
    """

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name_id: int):
        spans, stack, pid = self.spans, self._stack, self._pid
        remote_ok = self.names[name_id] == SHARD_SPAN
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                if not remote_ok:
                    return fn(*args, **kwargs)
                start = clock()
                result = fn(*args, **kwargs)
                return _RemoteResult(result, (name_id, start, clock(), os.getpid()))
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, stack[-1] if stack else -1, pid)

        return traced

    def traced(self, fn):
        """Call fn() with the spans installed; return its result and their summary."""
        first = len(self.spans)
        self.install()
        try:
            result = fn()
        finally:
            self.uninstall()
        return result, summarize(self.spans, first, self.names, self._pid)

    def add_remote(self, span: tuple) -> None:
        name_id, start, end, pid = span
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name_id, start, end, parent, pid))

    def export(self) -> list[list[int]]:
        """Spans as [name_id, start_us, end_us, parent, pid], times from the first span."""
        origin = min((s[1] for s in self.spans), default=0.0)
        return [[name_id, round((start - origin) * 1e6), round((end - origin) * 1e6), parent, pid]
                for name_id, start, end, parent, pid in self.spans]

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        global _ACTIVE
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for name, m in list(sys.modules.items())
                   if name == "maxclass" or name.startswith("maxclass.")]
        for name_id, (mod_name, attr) in enumerate(SPANS):
            module = sys.modules[f"maxclass.{mod_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name_id))
                else:
                    new = self._wrap(raw, name_id)
                setattr(cls, method, new)
                self._patches.append((setattr, cls, method, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name_id)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((setattr, mod, key, original))
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapped
                                self._patches.append((dict.__setitem__, value, k, original))
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for restore, target, key, original in reversed(self._patches):
            restore(target, key, original)
        self._patches.clear()
        _ACTIVE = None


# -- analysis ------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans: list[tuple], first: int, names: list[str], local_pid: int) -> dict:
    """Per-name calls, self and total time of spans[first:], plus shard figures.

    Self time is a span's duration minus the part its children cover.
    Spans from worker processes count only as shards: their number, the
    slowest shard per enumeration, and the enumeration's own self time,
    which is then the pool's overhead.
    """
    part = spans[first:]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    remote_children: dict[int, list[float]] = defaultdict(list)
    for _, start, end, parent, pid in part:
        if parent >= first:
            children[parent].append((start, end))
            if pid != local_pid:
                remote_children[parent].append(end - start)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    shard_calls = 0
    shard_max_s = 0.0
    pool_overhead_s = 0.0
    for offset, (name_id, start, end, parent, pid) in enumerate(part):
        idx = first + offset
        if pid != local_pid:
            shard_calls += 1
            continue
        own = end - start - _covered(children.get(idx, []), start, end)
        if idx in remote_children:
            shard_max_s += max(remote_children[idx])
            pool_overhead_s += own
            continue
        name = names[name_id]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "total_s": dict(total_s),
        "shard_calls": shard_calls,
        "shard_max_s": shard_max_s,
        "pool_overhead_s": pool_overhead_s,
    }
