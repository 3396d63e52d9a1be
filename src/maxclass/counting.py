"""Twist-isoclass counting: exhaustive enumeration vs closed form vs series.

The number r_{p^N} of twist isoclasses of irreducible p^N-dimensional
representations is computed three independent ways and reconciled:

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
  sizes, which is the number of irreducible tails;
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
* series: the t^N coefficient of the closed-form rational function.

The same case split predicts the whole orbit-size census, which
``expected_census`` exposes so the partition can be validated term by
term rather than only in total.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    ExceptionalPrimeError,
    InternalCheckError,
    MaxclassError,
)
from .rootlog import is_prime
from .zeta import count_from_series

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "MAXCLASS_BUDGET"


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
    """The three counts plus the per-orbit-size census."""

    n: int
    p: int
    N: int
    r_enumerated: int
    r_closed_form: int
    r_series: int
    orbit_census: dict[int, int] = field(default_factory=dict)

    @property
    def agree(self) -> bool:
        return self.r_enumerated == self.r_closed_form == self.r_series

    def census_total(self) -> int:
        return sum(self.orbit_census.values())


def _validate_grid_point(n: int, p: int, N: int) -> None:
    if n < 2:
        raise ValueError("the group family starts at n = 2")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if N < 0:
        raise ValueError("N must be >= 0")
    if p < n:
        raise ExceptionalPrimeError(
            f"exceptional prime p={p} < n={n}: counting here requires p >= n"
        )


def closed_form_count(n: int, p: int, N: int) -> int:
    """r_{p^N} by the case-split formula, in exact rational arithmetic.

    N = 0 returns 1 (the trivial twist isoclass); for n = 2 the first
    two terms vanish identically and only (1 - 1/p) p^N survives.
    """
    _validate_grid_point(n, p, N)
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
    _validate_grid_point(n, p, N)
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


def _orbit_size(tail: list[int], p: int, q: int) -> int:
    """Orbit size of a canonical tail, or 0 if the tail is not canonical.

    Walks the columns of the tail's table modulo q = p^N from column 0
    (the tail itself).  Returns 0 at the first column lex-smaller than
    column 0; otherwise returns the step d at which the walk comes back
    to column 0, which is the orbit size.  The orbit-size law is checked
    on every return: d must come within q steps and be a power of p.
    """
    base = list(tail)
    col = list(tail)
    upward = range(len(col) - 2, -1, -1)
    for d in range(1, q + 1):
        for r in upward:
            x = col[r] + col[r + 1]  # both < q, so one subtraction reduces
            col[r] = x - q if x >= q else x
        if col < base:
            return 0
        if col == base:
            size = 1
            while size < d:
                size *= p
            if size == d:
                return d
            break
    raise InternalCheckError(
        f"orbit size law violated at tail {tuple(tail)} (p={p}, p^N={q}): "
        f"the column walk did not return to column 0 after a power of p "
        f"steps within p^N"
    )


def _count_tail_range(n: int, p: int, N: int, lo: int, hi: int):
    """Count canonical irreducible tails with index in [lo, hi).

    Tails are indexed base-p^N with e_2 least significant.  Tails with
    no unit entry are reducible and skipped; every other tail is kept
    or rejected by the column walk of ``_orbit_size``, which stops at
    the first lex-smaller column or at the return to column 0.  Returns
    (count, census) for the slice; slices merge by addition, so the
    total is independent of the sharding.
    """
    q = p**N
    width = n - 1
    count = 0
    census: dict[int, int] = {}
    for idx in range(lo, hi):
        rem = idx
        tail = []
        for _ in range(width):
            tail.append(rem % q)
            rem //= q
        if all(e % p == 0 for e in tail):
            continue  # no primitive entry: reducible
        size = _orbit_size(tail, p, q)
        if size:
            count += 1
            census[size] = census.get(size, 0) + 1
    return count, census


def _shard_bounds(total_tails: int, workers: int) -> list[int]:
    """Split [0, total_tails) into at most workers and os.cpu_count() shards.

    Returns the boundaries b_0 = 0 < b_1 < ... < b_k = total_tails of
    the k shards [b_i, b_{i+1}), so more workers than cores never means
    more processes than cores, nor more processes than tails.
    """
    shards = max(1, min(workers, total_tails, os.cpu_count() or 1))
    return [total_tails * i // shards for i in range(shards + 1)]


def enumerate_isoclasses(
    n: int,
    p: int,
    N: int,
    budget: int | None = None,
    workers: int = 1,
) -> CountReport:
    """Enumerate all tails and reconcile the count with the other methods.

    Keeps a tail iff it is irreducible and equals its own canonical
    (lex-least) orbit representative, so memory stays O(1) per tail and
    the tail space can be sharded across ``workers`` processes; the
    reduction is a plain sum, deterministic under any sharding.
    """
    _validate_grid_point(n, p, N)
    budget = resolve_budget(budget)
    if N == 0:
        return CountReport(n, p, N, 1, 1, 1, {1: 1})
    total_tails = p ** ((n - 1) * N)
    if total_tails > budget:
        raise BudgetExceededError(
            f"{total_tails} tails exceed the enumeration budget {budget} "
            f"(override with the budget argument or {BUDGET_ENV_VAR})"
        )
    bounds = _shard_bounds(total_tails, workers)
    if len(bounds) == 2:
        count, census = _count_tail_range(n, p, N, 0, total_tails)
    else:
        count = 0
        census = {}
        with ProcessPoolExecutor(max_workers=len(bounds) - 1) as pool:
            jobs = [
                pool.submit(_count_tail_range, n, p, N, lo, hi)
                for lo, hi in zip(bounds, bounds[1:])
            ]
            for job in jobs:
                c, cen = job.result()
                count += c
                for size, orbits in cen.items():
                    census[size] = census.get(size, 0) + orbits
    return CountReport(
        n,
        p,
        N,
        r_enumerated=count,
        r_closed_form=closed_form_count(n, p, N),
        r_series=count_from_series(n, p, N),
        orbit_census=dict(sorted(census.items())),
    )
