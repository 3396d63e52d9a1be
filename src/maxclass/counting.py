"""Twist-isoclass counting: exhaustive enumeration and the closed form.

The number r_{p^N} of twist isoclasses of irreducible p^N-dimensional
representations is computed three independent ways, so that each can
catch the others' mistakes.  This module holds the first two and
``zeta.count_from_series`` the third; the callers that need more than
one (``checks.suite_counting``, the ``count`` and ``table`` commands)
reconcile them:

* enumeration: walk every tail (e_2, ..., e_n) in (Z/p^N)^(n-1), keep
  the irreducible ones (some entry a unit mod p), and count one per
  orbit by keeping exactly the tails that equal their orbit's
  lexicographic minimum.  The orbit of a tail is the set of columns
  (rows 2..n) of its standard-form table, and column j+1 depends only
  on column j: the bottom entry stays e_n and, going upward,
  new[r] = old[r] + new[r+1] mod p^N.  That step is a bijection
  (old[r] = new[r] - new[r+1] undoes it), so the columns run round a
  single cycle through column 0 with no lead-in.  Each tail is
  therefore walked one column at a time from column 0: the first
  column lex-smaller than column 0 rejects it, and the first return to
  column 0 accepts it.  The return time d is the number of distinct
  columns, i.e. the orbit size; the table closes up after p^N columns,
  so d divides p^N and is p^m for m the minimal stable index of rows
  2..n.  A rejected tail costs only the columns up to its first
  smaller one, and the accepted tails cost the sum of their orbit
  sizes, which is the number of irreducible tails.  The walk runs on
  numpy int64 blocks of tails, one column step for the whole block at
  a time: each block walks a few columns, which settles most of its
  rows, and the rows still walking are pooled across blocks and walked
  to the end together.  int64 is exact below 2^62 tails, and larger
  runs are refused up front.  The tail indices split into k contiguous
  shards, at most ``os.cpu_count()`` and each of at least
  ``_MIN_SHARD_TAILS`` = 2^16 tails, so that a child's work repays its
  start: the calling process runs one and k - 1 child processes run
  the rest, each sending its count and census back over a pipe, and
  the shards merge by addition;
* closed form: the case split by depth profile.  With a primitive entry
  beyond e_2 the orbit has full size p^N; with e_2 primitive and the
  rest of maximal depth l the orbit has size p^l.  Summing
  choices/orbit-size over the cases gives, for N >= 1,

      r_{p^N} = (1 - p^-(n-2)) p^((n-2)N)
              + (1 - 1/p)(1 - p^-(n-2)) p^N * sum_{l=1..N-1} p^((n-3)l)
              + (1 - 1/p) p^N;

  note the middle sum stops at l = N-1: its l = N summand would
  double-count the all-trivial-rest case that the third term already
  covers, and only the N-1 version matches both the enumeration and the
  series expansion of the closed-form zeta factor.
* series (``zeta.count_from_series``): the t^N coefficient of the
  closed-form rational function.

The same case split predicts the whole orbit-size census, which
``expected_census`` exposes so the partition can be validated term by
term rather than only in total.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceededError, InternalCheckError, MaxclassError
from .rootlog import validate_grid_point

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "MAXCLASS_BUDGET"
# The enumeration's int64 tail indices, lex keys and x + y < 2 p^N sums
# are exact below this many tails; a run that large could never finish.
MAX_TAILS = 2**62
# Tails decoded per block, and survivor rows walked together per pool flush.
_BLOCK = 4096
# Columns each block walks before its unsettled rows join the survivor pool.
_EARLY_STEPS = 8
# Tails each shard must hold.  On a 2-vCPU host with Python 3.11, starting
# a child costs about 5 ms and a tail 0.34-0.65 us, so a 2^16-tail shard's
# work is 4-8 times its start.
_MIN_SHARD_TAILS = 2**16


def resolve_budget(budget: int | None = None) -> int:
    """The tail budget: the argument, else $MAXCLASS_BUDGET, else 10^8.

    Anything but a positive integer is a configuration error.
    """
    if budget is None:
        text = os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_BUDGET))
        try:
            budget = int(text)
        except ValueError:
            raise MaxclassError(
                f"{BUDGET_ENV_VAR}={text!r} is not an integer"
            ) from None
    if not isinstance(budget, int) or budget <= 0:
        raise MaxclassError(f"the budget must be a positive integer, got {budget!r}")
    return budget


@dataclass(frozen=True)
class CountReport:
    """The enumerated count plus its per-orbit-size census."""

    n: int
    p: int
    N: int
    r_enumerated: int
    orbit_census: dict[int, int]


def closed_form_count(n: int, p: int, N: int) -> int:
    """r_{p^N} by the case-split formula, in exact rational arithmetic.

    N = 0 returns 1 (the trivial twist isoclass); for n = 2 the first
    two terms vanish identically and only (1 - 1/p) p^N survives.
    """
    validate_grid_point(n, p, N)
    if N == 0:
        return 1
    unit_frac = 1 - Fraction(1, p)
    tail_frac = 1 - Fraction(1, p ** (n - 2))
    total = tail_frac * p ** ((n - 2) * N)
    total += unit_frac * tail_frac * p**N * sum(
        Fraction(p) ** ((n - 3) * ell) for ell in range(1, N)
    )
    total += unit_frac * p**N
    if total.denominator != 1:
        raise InternalCheckError(f"closed form gave a non-integer: {total}")
    return int(total)


def expected_census(n: int, p: int, N: int) -> dict[int, int]:
    """Orbit census the case split predicts: {orbit size: orbit count}.

    Sizes p^N (a primitive entry beyond e_2), p^l for 1 <= l <= N-1
    (e_2 primitive, rest of max depth l) and 1 (e_2 primitive, rest
    trivial).
    """
    validate_grid_point(n, p, N)
    if N == 0:
        return {1: 1}
    census: dict[int, int] = {}
    deep_tails = p ** ((n - 2) * N) - p ** ((n - 2) * (N - 1))
    if deep_tails:
        census[p**N] = deep_tails
    units = p**N - p ** (N - 1)
    for ell in range(1, N):
        rest = p ** ((n - 2) * ell) - p ** ((n - 2) * (ell - 1))
        orbits, remainder = divmod(units * rest, p**ell)
        if remainder:
            raise InternalCheckError("census term is not integral")
        if orbits:
            census[p**ell] = census.get(p**ell, 0) + orbits
    census[1] = census.get(1, 0) + units
    return census


def _lex_keys(cols, q: int):
    """Each column of ``cols`` as one integer that orders them lexicographically.

    Row 0 (e_2) is the most significant digit base q.  The last row
    (e_n) is left out: it is the same in every column of a tail, so it
    cannot change order or equality.  The keys are below q^(n-2) (q at
    n = 2), fewer than the tails, so they are exact in int64.
    """
    keys = cols[0].copy()
    for row in cols[1:-1]:
        keys *= q
        keys += row
    return keys


def _orbit_sizes(base, col, p: int, q: int, walked: int = 0, steps: int | None = None):
    """Walk the columns of a block of tails together; census the canonical ones.

    ``base`` holds column 0 of each tail and ``col`` its column number
    ``walked``, both as (n-1, rows) int64 arrays with e_2 in row 0;
    ``col`` is overwritten.  Every row takes the step
    new[r] = old[r] + new[r+1] mod q (both terms are below q, so one
    conditional subtraction reduces), for at most ``steps`` more columns
    and never beyond column q.  A row leaves at its first column that is
    lex-smaller than column 0, which rejects it, or at its return to
    column 0 after d columns, which keeps it with orbit size d.  The
    orbit-size law is checked on every return: d must be a power of p,
    and no row may still be walking at column q.

    Returns (census, base, col): {orbit size: kept rows}, and column 0
    and the current column of the rows still walking.
    """
    width = col.shape[0]
    target = _lex_keys(base, q)
    rows = np.arange(col.shape[1])
    last = q if steps is None else min(q, walked + steps)
    census: dict[int, int] = {}
    for d in range(walked + 1, last + 1):
        if not rows.size:
            break
        for r in range(width - 2, -1, -1):
            x = col[r]
            x += col[r + 1]
            np.subtract(x, q, out=x, where=x >= q)
        keys = _lex_keys(col, q)
        alive = keys > target
        if alive.all():
            continue
        returned = keys == target
        hits = int(np.count_nonzero(returned))
        if hits:
            if not _is_power(d, p):
                raise _law_error(base[:, rows[returned.argmax()]], p, q)
            census[d] = hits
        col, target, rows = col[:, alive], target[alive], rows[alive]
    if rows.size and last == q:
        raise _law_error(base[:, rows[0]], p, q)
    return census, base[:, rows], col


def _is_power(d: int, p: int) -> bool:
    while d % p == 0:
        d //= p
    return d == 1


def _law_error(tail, p: int, q: int) -> InternalCheckError:
    return InternalCheckError(
        f"orbit size law violated at tail {tuple(int(e) for e in tail)} "
        f"(p={p}, p^N={q}): the column walk did not return to column 0 "
        f"after a power of p steps within p^N"
    )


def _count_tail_range(n: int, p: int, N: int, lo: int, hi: int):
    """Count canonical irreducible tails with index in [lo, hi).

    Tails are indexed base-p^N with e_2 least significant.  They are
    decoded in blocks of ``_BLOCK`` rows; rows with no unit entry are
    reducible and dropped, and ``_orbit_sizes`` walks the rest
    ``_EARLY_STEPS`` columns, which settles most of them.  The few rows
    still walking join a survivor pool that is walked to the end once
    it holds ``_BLOCK`` rows, and at the end of the range, so a block
    never pays for up to p^N near-empty steps on its own.  All of this
    is int64 arithmetic, exact below ``MAX_TAILS`` = 2^62 tails, which
    ``enumerate_isoclasses`` refuses to reach.  Returns (count, census)
    for the slice, in plain ints; slices merge by addition, so the
    total is independent of the sharding and of the block size.
    """
    q = p**N
    width = n - 1
    census: Counter[int] = Counter()
    pool: list[tuple] = []
    pooled = 0
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        idx = np.arange(start, stop, dtype=np.int64)
        tails = np.empty((width, idx.size), dtype=np.int64)
        for r in range(width):
            idx, tails[r] = np.divmod(idx, q)
        tails = tails[:, (tails % p != 0).any(axis=0)]  # no unit entry: reducible
        part, base, col = _orbit_sizes(tails, tails.copy(), p, q, steps=_EARLY_STEPS)
        census.update(part)
        if base.shape[1]:
            pool.append((base, col))
            pooled += base.shape[1]
        if pool and (pooled >= _BLOCK or stop == hi):
            part, _, _ = _orbit_sizes(
                np.concatenate([b for b, _ in pool], axis=1),
                np.concatenate([c for _, c in pool], axis=1),
                p, q, walked=_EARLY_STEPS,
            )
            census.update(part)
            pool, pooled = [], 0
    return sum(census.values()), dict(census)


def _shard_bounds(total_tails: int, workers: int) -> list[int]:
    """Split [0, total_tails) into at most workers and os.cpu_count() shards.

    Returns the boundaries b_0 = 0 < b_1 < ... < b_k = total_tails of
    the k shards [b_i, b_{i+1}).  The calling process runs the first
    shard and k - 1 child processes run the rest, so more workers than
    cores never means more processes than cores.  Every shard holds at
    least ``_MIN_SHARD_TAILS`` tails, so a second process starts only
    from 2 * _MIN_SHARD_TAILS tails, and a smaller run is one shard.
    """
    shards = max(1, min(workers, os.cpu_count() or 1, total_tails // _MIN_SHARD_TAILS))
    return [total_tails * i // shards for i in range(shards + 1)]


def _shard_child(conn, n: int, p: int, N: int, lo: int, hi: int) -> None:
    """Run shard [lo, hi) in a child process; send its result, or its exception."""
    try:
        message = _count_tail_range(n, p, N, lo, hi)
    except Exception as exc:  # noqa: BLE001 - the parent re-raises it
        message = exc
    conn.send(message)


def _fan_out(n: int, p: int, N: int, bounds: list[int]) -> list[tuple]:
    """Each shard's (count, census), in shard order.

    Every shard but the first runs in a child process started with the
    default start method, which sends its result back over a one-way
    pipe; the calling process runs the first shard meanwhile.  One shard
    starts no child.  A child's exception is re-raised here, and a child
    that ends without sending raises an error naming its shard and exit
    code.  However this returns or raises, no child is left running.
    """
    children = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            recv_end, send_end = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_shard_child, args=(send_end, n, p, N, lo, hi)
            )
            child.start()
            send_end.close()
            children.append((child, recv_end, lo, hi))
        results = [_count_tail_range(n, p, N, bounds[0], bounds[1])]
        for child, recv_end, lo, hi in children:
            try:
                message = recv_end.recv()
            except EOFError:
                child.join()
                raise MaxclassError(
                    f"the process enumerating shard [{lo}, {hi}) ended with "
                    f"exit code {child.exitcode} before sending its result"
                ) from None
            child.join()
            if isinstance(message, BaseException):
                raise message
            results.append(message)
        return results
    finally:
        for child, recv_end, _, _ in children:
            if child.is_alive():
                child.terminate()
            child.join()
            recv_end.close()


def enumerate_isoclasses(
    n: int,
    p: int,
    N: int,
    budget: int | None = None,
    workers: int = 1,
) -> CountReport:
    """Count the twist isoclasses at (n, p, N) by enumerating all tails.

    Keeps a tail iff it is irreducible and equals its own canonical
    (lex-least) orbit representative, so memory stays bounded by a few
    blocks of tails and the tail space can be sharded: with k shards
    (at most ``workers`` and ``os.cpu_count()``, each of at least
    ``_MIN_SHARD_TAILS`` tails), the calling process runs one and
    k - 1 child processes run the rest.  The reduction is
    a plain sum, deterministic under any sharding.  More tails than the
    budget, or ``MAX_TAILS`` = 2^62 or more, are refused before any
    work starts.
    """
    validate_grid_point(n, p, N)
    budget = resolve_budget(budget)
    if N == 0:
        return CountReport(n, p, N, 1, {1: 1})
    total_tails = p ** ((n - 1) * N)
    if total_tails > budget:
        raise BudgetExceededError(
            f"{total_tails} tails exceed the enumeration budget {budget} "
            f"(override with the budget argument or {BUDGET_ENV_VAR})"
        )
    if total_tails >= MAX_TAILS:
        raise MaxclassError(
            f"{total_tails} tails: the enumeration is exact only below 2^62 tails"
        )
    census: Counter[int] = Counter()
    for _, shard_census in _fan_out(n, p, N, _shard_bounds(total_tails, workers)):
        census.update(shard_census)
    return CountReport(n, p, N, census.total(), dict(sorted(census.items())))
