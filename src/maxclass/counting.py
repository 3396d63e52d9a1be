"""Twist-isoclass counting: exhaustive enumeration and the closed form.

The number r_{p^N} of twist isoclasses of irreducible p^N-dimensional
representations is computed three independent ways, so that each can
catch the others' mistakes.  This module holds the first two and
``zeta.count_from_series`` the third; the callers that need more than
one (``checks.suite_counting``, the ``count`` and ``table`` commands)
reconcile them:

* enumeration: count the orbits of the irreducible tails (e_2, ...,
  e_n) in (Z/p^N)^(n-1), those with some entry a unit mod p, by
  orbit-stabilizer.  The orbit of a tail is the set of columns (rows
  2..n) of its standard-form table, and column j+1 depends only on
  column j: the bottom entry stays e_n and, going upward, new[r] =
  old[r] + new[r+1] mod p^N, i.e. new[r] is the sum of old[s] over
  s >= r.  That step is a linear map A, so the orbit of a tail t is
  {A^j t} and its size is the period of t, the least d with A^d t = t.
  The table closes up after p^N columns, so d divides p^N and is a
  power of p.  An orbit of size d holds exactly d tails, each of period
  d, so census[d] = #{irreducible tails of period d}/d.  With D_m =
  A^(p^m) - I mod p^N, built once per point, the period of t is
  p^(m+1) for the largest m < N with D_m t != 0, and 1 if there is
  none; D_N t = 0 is the orbit-size law.  Every D_m has a zero column
  0, so the period does not depend on e_2: the walk runs over the rests
  (e_3, ..., e_n) alone, each standing for the p^N tails that share
  it, of which all are irreducible when the rest has a unit and
  p^N - p^(N-1) (e_2 a unit) when it has none.  That is p^((n-2)N)
  rests, each costing at most N + 1 small matrix tests, on numpy int64
  blocks, exact below 2^62 tails; larger runs are refused up front.
  The division by d comes once, after all blocks, and a count that d
  does not divide breaks the orbit-size law and raises;
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

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError, InternalCheckError, MaxclassError
from .rootlog import refuse_power, validate_grid_point

DEFAULT_BUDGET = 10**8
BUDGET_ENV_VAR = "MAXCLASS_BUDGET"
# The enumeration's int64 tail indices and step-matrix products
# are exact below this many tails; a run that large could never finish.
MAX_TAILS = 2**62
# Rests decoded and sorted by period together, per block.
_BLOCK = 4096


def resolve_budget(budget: int | None = None) -> int:
    """The tail budget: the argument, else $MAXCLASS_BUDGET, else 10^8.

    Anything but a positive integer is a configuration error.
    """
    if budget is None:
        text = os.environ.get(BUDGET_ENV_VAR, str(DEFAULT_BUDGET))
        try:
            budget = int(text)
        except ValueError:
            raise MaxclassError(f"{BUDGET_ENV_VAR}={text!r} is not an integer") from None
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


@lru_cache(maxsize=None)
def _step_differences(width: int, p: int, q: int) -> tuple:
    """D_m = A^(p^m) - I mod q for m = 0..M, M the least with p^M >= q.

    A is the column step on (Z/q)^width: new[r] is the sum of old[s]
    over s >= r, so (A^k)[r][r+j] = C(k+j-1, j).  The entries are
    computed in Python ints and kept as read-only int64 arrays below q.
    Column 0 of every D_m must be zero, since the rest walk of
    ``_count_tail_range`` weights each rest by its e_2 choices; a
    nonzero one raises.
    """
    powers = [1]
    while powers[-1] < q:
        powers.append(powers[-1] * p)
    diffs = tuple(
        np.array([[math.comb(k + c - r - 1, c - r) % q if c > r else 0
                   for c in range(width)] for r in range(width)], dtype=np.int64)
        for k in powers
    )
    for k, diff in zip(powers, diffs):
        if diff[:, 0].any():
            raise InternalCheckError(f"A^{k} - I mod {q}, A the column step, has a nonzero "
                                     "column 0, so a period would depend on e_2")
        diff.setflags(write=False)
    return diffs


def _period_census(tails, p: int, q: int) -> dict[int, int]:
    """{period: rows} of a block of tails under the column step A.

    ``tails`` is a (width, rows) int64 array with e_2 in row 0 and
    entries below q.  The orbit of a tail t is {A^j t}, so its size is
    the period of t, which the orbit-size law makes a power of p that
    A^(p^M) fixes (M the least with p^M >= q, so M = N at q = p^N).
    D_M = A^(p^M) - I is the same for every block: when it is 0 mod q
    it fixes every row at once, and otherwise each row is tested and
    the first one it moves raises.  Then, for m = M-1 down to 0, the
    rows D_m still moves have period p^(m+1) and leave; most leave at
    the first test.  The rows never moved have period 1, as every row
    has at width 1 (n = 2), where A is the identity.

    int64 is exact: D_m is zero on and below the diagonal, so each entry
    of D_m t sums at most n - 2 nonzero products below q^2, and
    (n-2) q^2 <= q^(n-1) < 2^62 whenever q^(n-1) < 2^62, as
    ``MAX_TAILS`` ensures (q^(n-3) >= 2^(n-3) >= n - 2 for n >= 3).
    n = 2 needs no product.
    """
    census: dict[int, int] = {}
    if tails.shape[0] > 1:
        *diffs, last = _step_differences(tails.shape[0], p, q)
        if last.any():
            moved = ((last @ tails) % q != 0).any(axis=0)
            if moved.any():
                raise _law_error(tails[:, moved.argmax()], p, q)
        for m in range(len(diffs) - 1, -1, -1):
            moved = ((diffs[m] @ tails) % q != 0).any(axis=0)
            if moved.any():
                census[p ** (m + 1)] = int(np.count_nonzero(moved))
                tails = tails.compress(~moved, axis=1)
    if tails.shape[1]:
        census[1] = tails.shape[1]
    return census


def _law_error(tail, p: int, q: int) -> InternalCheckError:
    return InternalCheckError(
        f"orbit size law violated at tail {tuple(int(e) for e in tail)} "
        f"(p={p}, p^N={q}): A^(p^N), A the column step, does not fix it"
    )


def _count_tail_range(n: int, p: int, N: int, lo: int, hi: int):
    """Count the irreducible tails whose rest has index in [lo, hi), by period.

    A rest (e_3, ..., e_n) is indexed base p^N with e_3 least
    significant, and the p^N tails sharing it have the same period,
    because column 0 of every D_m is zero.  Rests are decoded in blocks
    of ``_BLOCK`` columns with e_2 = 0 in row 0, and ``_period_census``
    sorts them by period twice: those with a unit entry stand for all
    q = p^N of their tails, those without for the q - q/p tails with e_2
    a unit; the other q/p are reducible.  All of this is int64
    arithmetic, exact below ``MAX_TAILS`` = 2^62 tails, which
    ``enumerate_isoclasses`` refuses to reach.  Returns (tails, {period:
    tails}) for the range, in plain ints.  A range may cut an orbit, so
    a period need not divide its tail count here; ranges merge by
    addition, so the total is independent of the split and of the
    block size.
    """
    q = p**N
    census: Counter[int] = Counter()
    for start in range(lo, hi, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, hi), dtype=np.int64)
        rests = np.zeros((n - 1, idx.size), dtype=np.int64)
        for r in range(1, n - 1):
            idx, rests[r] = np.divmod(idx, q)
        unit = (rests % p != 0).any(axis=0)
        for weight, kept in ((q, unit), (q - q // p, ~unit)):
            for d, count in _period_census(rests.compress(kept, axis=1), p, q).items():
                census[d] += weight * count
    return sum(census.values()), dict(census)


def enumerate_isoclasses(n: int, p: int, N: int, budget: int | None = None) -> CountReport:
    """Count the twist isoclasses at (n, p, N) by enumerating all tails.

    Counts the irreducible tails of each period d and divides by d,
    since an orbit of size d holds exactly d tails, each of period d.
    One serial walk over the p^((n-2)N) rests covers every tail, and
    memory stays bounded by a few blocks of rests.  A count that its
    period does not divide raises ``InternalCheckError``.  More tails
    than the budget, or ``MAX_TAILS`` = 2^62 or more, are refused before
    any work starts.
    """
    validate_grid_point(n, p, N)
    budget = resolve_budget(budget)
    if N == 0:
        return CountReport(n, p, N, 1, {1: 1})
    refuse_power(p, (n - 1) * N, min(budget, MAX_TAILS - 1),
                 f"tails exceed the enumeration budget {budget} (override with the budget "
                 f"argument or {BUDGET_ENV_VAR}) or the exactness bound 2^62 - 1",
                 BudgetExceededError)
    _, periods = _count_tail_range(n, p, N, 0, p ** ((n - 2) * N))
    census: dict[int, int] = {}
    for d, tails in sorted(periods.items()):
        census[d], rest = divmod(tails, d)
        if rest:
            raise InternalCheckError(f"orbit size law violated: {tails} tails of period {d} "
                                     f"do not fill whole orbits (p={p}, N={N})")
    return CountReport(n, p, N, sum(census.values()), census)
