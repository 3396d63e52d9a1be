"""The package names that the benchmark in ``perfbench/`` reaches into.

``perfbench/spans.py`` wraps every ``(module, attr)`` of its ``SPANS``
when it traces a run, and ``perfbench/workloads.py`` (``warm``) and
``perfbench/run.py`` (``cache_counts``) call a few package functions
directly.  Renaming or removing one of them breaks the benchmark, not the
package, so these tests name it first.  ``SPANS`` is read from the file
as data: the benchmark's own code is not imported.
"""

import ast
import importlib
from pathlib import Path

from maxclass import checks, oracle, standard_form
from maxclass.rootlog import PrimePower
from maxclass.standard_form import build_rep, spec_from_tail

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    for node in ast.parse(SPANS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS_FILE} assigns no SPANS")


def test_every_traced_span_resolves():
    # The tracer reads a method from its class's own __dict__, and any
    # other name with getattr on the module.
    missing = []
    for mod_name, attr in _spans():
        module = importlib.import_module(f"maxclass.{mod_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            found = method in getattr(getattr(module, cls_name, None), "__dict__", {})
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert not missing


def test_the_calls_that_warm_the_caches_still_work():
    for n, p, N in checks.ORACLE_GRID:
        rep = build_rep(spec_from_tail(n, PrimePower(p, N), (1,) + (0,) * (n - 2)))
        assert rep.dim == p**N <= oracle.DEFAULT_ORACLE_GUARD
        # e_2 = 1 is a unit, so the spec is irreducible.
        assert oracle.commutant_dimension(oracle.realize(rep)) == 1
    for cached in (standard_form._cached_simplex_rows, oracle._cycle_commutant_basis):
        info = cached.cache_info()
        assert info.hits >= 0 and info.misses >= 0
