import dataclasses
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxclass import counting
from maxclass.checks import iter_reps
from maxclass.counting import (
    CountReport,
    _count_tail_range,
    _period_census,
    closed_form_count,
    enumerate_isoclasses,
    expected_census,
    resolve_budget,
)
from maxclass.errors import (
    BudgetExceededError,
    ExceptionalPrimeError,
    InternalCheckError,
    MaxclassError,
)
from maxclass.orbits import shift_orbit
from maxclass.rootlog import PrimePower, is_prime
from maxclass.stability import is_irreducible_depth
from maxclass.standard_form import build_rep, spec_from_tail
from maxclass.zeta import count_from_series

GRID = [
    *((2, 2, N) for N in range(1, 5)),
    *((2, 3, N) for N in range(1, 4)),
    *((3, 3, N) for N in range(1, 4)),
    *((3, 5, N) for N in range(1, 3)),
    *((3, 7, N) for N in range(1, 3)),
    *((4, 5, N) for N in range(1, 3)),
    (5, 5, 1),
    (5, 7, 1),
]


def brute_force_count(n, p, N):
    """Oracle: partition the irreducible tails into whole orbits."""
    seen = set()
    count = 0
    census = {}
    for rep in iter_reps(n, p, N):
        if rep.spec.tail in seen or not is_irreducible_depth(rep.spec):
            continue
        orbit = shift_orbit(rep)
        seen |= orbit
        count += 1
        census[len(orbit)] = census.get(len(orbit), 0) + 1
    return count, dict(sorted(census.items()))


def test_reference_values():
    # (3,5,1): 24 irreducible tails; the 20 with a primitive e_3 fall in
    # 4 orbits of size 5; the 4 with e_3 = 0 and e_2 a unit are fixed.
    report = enumerate_isoclasses(3, 5, 1)
    assert report.r_enumerated == 8
    assert report.orbit_census == {1: 4, 5: 4}
    # (2,3,2): the 6 units mod 9; the restriction is constant so all
    # orbits are singletons.
    report = enumerate_isoclasses(2, 3, 2)
    assert report.r_enumerated == 6
    assert report.orbit_census == {1: 6}
    assert enumerate_isoclasses(4, 5, 0).r_enumerated == 1
    assert enumerate_isoclasses(3, 5, 2).r_enumerated == 56
    assert enumerate_isoclasses(4, 5, 1).r_enumerated == 28


def test_closed_form_examples():
    assert closed_form_count(3, 5, 1) == 8  # (4/5)*5 + (4/5)*5
    assert closed_form_count(3, 5, 2) == 56  # 20 + 16 + 20
    assert closed_form_count(2, 3, 2) == 6  # only the last term survives
    assert closed_form_count(2, 2, 1) == 1
    assert closed_form_count(4, 5, 1) == 28
    assert closed_form_count(3, 3, 3) == 60
    assert closed_form_count(5, 5, 1) == 128


def test_closed_form_guards():
    with pytest.raises(ExceptionalPrimeError):
        closed_form_count(4, 3, 1)
    with pytest.raises(ValueError):
        closed_form_count(1, 5, 1)
    with pytest.raises(ValueError):
        closed_form_count(3, 6, 1)
    assert closed_form_count(3, 5, 0) == 1


def test_enumeration_guards():
    with pytest.raises(ExceptionalPrimeError):
        enumerate_isoclasses(4, 3, 1)
    with pytest.raises(BudgetExceededError):
        enumerate_isoclasses(3, 5, 2, budget=100)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("MAXCLASS_BUDGET", "123")
    assert resolve_budget() == 123
    assert resolve_budget(10) == 10
    monkeypatch.delenv("MAXCLASS_BUDGET")
    assert resolve_budget() == 10**8


@pytest.mark.parametrize("setting", ["0", "-5", "abc", "1.5", ""])
def test_budget_env_must_be_positive_integer(monkeypatch, setting):
    monkeypatch.setenv("MAXCLASS_BUDGET", setting)
    with pytest.raises(MaxclassError, match="MAXCLASS_BUDGET|budget"):
        resolve_budget()
    with pytest.raises(MaxclassError):
        enumerate_isoclasses(3, 5, 0)


@pytest.mark.parametrize("budget", [0, -5, 2.5])
def test_budget_argument_must_be_positive_integer(budget):
    with pytest.raises(MaxclassError, match="budget"):
        resolve_budget(budget)


def test_series_count_at_N_zero_is_one():
    for n, p in [(2, 2), (3, 5), (4, 7), (5, 5)]:
        assert count_from_series(n, p, 0) == 1


def test_triple_agreement_on_grid():
    for n, p, N in GRID:
        report = enumerate_isoclasses(n, p, N)
        counts = (
            report.r_enumerated, closed_form_count(n, p, N), count_from_series(n, p, N)
        )
        assert len(set(counts)) == 1, (n, p, N, counts)
        assert sum(report.orbit_census.values()) == report.r_enumerated


def test_census_matches_case_split():
    for n, p, N in GRID:
        report = enumerate_isoclasses(n, p, N)
        assert report.orbit_census == expected_census(n, p, N), (n, p, N)


def test_orbit_size_determined_by_depth_case():
    # Size p^N orbits are exactly the tails with a primitive entry beyond
    # e_2; size p^l (1 <= l <= N-1) needs e_2 primitive and max depth l
    # among the rest; singletons need e_2 primitive and trivial rest.
    from maxclass.rootlog import depth_of

    for n, p, N in [(3, 5, 2), (3, 3, 3), (4, 5, 2), (2, 3, 3), (3, 7, 1)]:
        for rep in iter_reps(n, p, N):
            spec = rep.spec
            if not is_irreducible_depth(spec):
                continue
            depths = [depth_of(e, p, N) for e in spec.tail]
            beyond = max(depths[1:], default=0)
            if beyond == N:
                want = p**N
            else:
                assert depths[0] == N  # irreducibility forces e_2 primitive
                want = p**beyond
            assert len(shift_orbit(rep)) == want, (spec.exponents, p, N)


def test_expected_census_sums_to_closed_form():
    for n, p, N in GRID:
        census = expected_census(n, p, N)
        assert sum(census.values()) == closed_form_count(n, p, N)


def test_against_brute_force_partition():
    for n, p, N in [(2, 2, 3), (2, 3, 2), (3, 3, 2), (3, 5, 1), (4, 5, 1), (3, 7, 1)]:
        count, census = brute_force_count(n, p, N)
        report = enumerate_isoclasses(n, p, N)
        assert (count, census) == (report.r_enumerated, report.orbit_census)


def test_report_structure():
    report = enumerate_isoclasses(3, 5, 1)
    assert isinstance(report, CountReport)
    assert [f.name for f in dataclasses.fields(report)] == [
        "n", "p", "N", "r_enumerated", "orbit_census"
    ]
    assert (report.n, report.p, report.N) == (3, 5, 1)
    assert report.r_enumerated == closed_form_count(3, 5, 1) == 8
    assert report.r_enumerated == count_from_series(3, 5, 1)


def tail_of(idx, n, q):
    """The tail with index idx, base q with e_2 least significant."""
    return [idx // q**i % q for i in range(n - 1)]


def period(tail, p, q):
    """Period of one tail under the column step, by the block kernel."""
    census = _period_census(np.array([tail], dtype=np.int64).T, p, q)
    assert list(census.values()) == [1]
    return next(iter(census))


def assert_walk_matches_orbits(n, p, N, indices):
    """Each tail's period is its orbit size in the orbit layer.

    Irreducible means some entry is a unit mod p, the rule by which the
    rest walk weights each rest's e_2 choices.
    """
    pp = PrimePower(p, N)
    for idx in indices:
        tail = tail_of(idx, n, pp.dim)
        spec = spec_from_tail(n, pp, tail)
        assert is_irreducible_depth(spec) == any(e % p for e in tail), (n, p, N, tail)
        want = len(shift_orbit(build_rep(spec, validate=False)))
        assert period(tail, p, pp.dim) == want, (n, p, N, tail)


def assert_range_splits(n, p, N, lo, mid, hi):
    """Counting [lo, mid) and [mid, hi) separately gives [lo, hi)."""
    c1, cen1 = _count_tail_range(n, p, N, lo, mid)
    c2, cen2 = _count_tail_range(n, p, N, mid, hi)
    merged = dict(cen1)
    for size, orbits in cen2.items():
        merged[size] = merged.get(size, 0) + orbits
    assert (c1 + c2, merged) == _count_tail_range(n, p, N, lo, hi)


def assert_methods_agree(n, p, N):
    report = enumerate_isoclasses(n, p, N)
    assert report.r_enumerated == closed_form_count(n, p, N)
    assert report.r_enumerated == count_from_series(n, p, N)
    assert report.orbit_census == expected_census(n, p, N)


@pytest.mark.parametrize(
    "n, p, N", [(2, 2, 3), (2, 3, 2), (3, 3, 2), (3, 5, 1), (4, 5, 1), (3, 3, 3)]
)
def test_walk_verdict_per_tail_exhaustive(n, p, N):
    assert_walk_matches_orbits(n, p, N, range(p ** ((n - 1) * N)))
    assert_methods_agree(n, p, N)
    rests = p ** ((n - 2) * N)
    assert_range_splits(n, p, N, 0, rests // 3, rests)


# Every non-exceptional point (p >= n) with at most 5000 tails.
SMALL_POINTS = [
    (n, p, N)
    for n in range(2, 6)
    for p in range(n, 5000)
    if is_prime(p)
    for N in range(1, 13)
    if p ** ((n - 1) * N) <= 5000
]


@given(st.sampled_from(SMALL_POINTS), st.data())
@settings(max_examples=40, deadline=None)
def test_walk_differential_random(point, data):
    n, p, N = point
    total = p ** ((n - 1) * N)
    # The orbit layer builds a whole p^N-column table per tail, so the
    # per-tail comparison runs on a drawn sample of tails.
    indices = data.draw(st.lists(st.integers(0, total - 1), max_size=20))
    assert_walk_matches_orbits(n, p, N, indices)
    assert_methods_agree(n, p, N)
    rests = p ** ((n - 2) * N)
    lo, mid, hi = sorted(data.draw(st.lists(st.integers(0, rests), min_size=3, max_size=3)))
    assert_range_splits(n, p, N, lo, mid, hi)


def tail_walk(n, p, N):
    """(tails, {period: tails}) of every irreducible tail, each one decoded and sorted."""
    q = p**N
    idx = np.arange(q ** (n - 1), dtype=np.int64)
    tails = np.stack([idx // q**r % q for r in range(n - 1)])
    census = _period_census(tails.compress((tails % p != 0).any(axis=0), axis=1), p, q)
    return sum(census.values()), census


def test_rest_walk_matches_the_tail_walk():
    # The rest walk weights each rest by its e_2 choices; walking all
    # tails one by one must give the same histogram.
    for n, p, N in SMALL_POINTS:
        assert _count_tail_range(n, p, N, 0, p ** ((n - 2) * N)) == tail_walk(n, p, N), (n, p, N)


def test_orbit_size_law_rejects_return_time_not_a_power_of_p():
    # Modulo 6 the columns of (0, 1) are (k, 1) for k = 0..5, so its
    # period is 6, a power of neither 2 nor 3: A^8 (p = 2) and A^9
    # (p = 3), the first powers of p at least 6, move it.  Modulo 2 its
    # period is 2.
    assert period([0, 1], 2, 2) == 2
    with pytest.raises(InternalCheckError, match="orbit size law"):
        period([0, 1], 2, 6)
    with pytest.raises(InternalCheckError, match="orbit size law"):
        period([0, 1], 3, 6)


def test_orbit_size_law_rejects_no_return_within_p_to_the_N():
    # p = 2 < n - 1 = 3 is exceptional: the table does not close up after
    # p^N = 2 columns, and the period of (0, 0, 1) is 4.
    with pytest.raises(InternalCheckError, match="orbit size law"):
        period([0, 0, 1], 2, 2)


def test_merged_period_count_must_fill_whole_orbits(monkeypatch):
    # Four tails of period 3 cannot be whole orbits of size 3.
    monkeypatch.setattr(counting, "_count_tail_range", lambda n, p, N, lo, hi: (4, {3: 4}))
    with pytest.raises(InternalCheckError, match="orbit size law"):
        enumerate_isoclasses(3, 3, 1)


@given(st.sampled_from(SMALL_POINTS), st.sampled_from([1, 5, 64, 4096]), st.data())
@settings(max_examples=80, deadline=None)
def test_random_four_way_splits_merge_to_the_census(point, block, data):
    # Each range of rests cuts orbits anywhere; only the merged counts divide.
    n, p, N = point
    rests = p ** ((n - 2) * N)
    cuts = sorted(data.draw(st.lists(st.integers(0, rests), min_size=3, max_size=3)))
    whole = counting._count_tail_range

    def four_way(n, p, N, lo, hi):
        assert (lo, hi) == (0, rests)
        bounds = [lo, *cuts, hi]
        periods = Counter()
        for a, b in zip(bounds, bounds[1:]):
            periods.update(whole(n, p, N, a, b)[1])
        return sum(periods.values()), dict(periods)

    with mock.patch.object(counting, "_BLOCK", block), \
            mock.patch.object(counting, "_count_tail_range", four_way):
        report = enumerate_isoclasses(n, p, N)
    assert report.orbit_census == expected_census(n, p, N)


def reference_period(tail, p, q):
    """Least p^m with A^(p^m) t = t mod q, by Python-int matrix powers; None past q."""
    width = len(tail)

    def product(a, b):
        return [[sum(a[r][s] * b[s][c] for s in range(width)) % q for c in range(width)]
                for r in range(width)]

    power, d = [[int(c >= r) for c in range(width)] for r in range(width)], 1
    while [sum(a * t for a, t in zip(row, tail)) % q for row in power] != list(tail):
        if d >= q:
            return None
        base = power
        for _ in range(p - 1):
            power = product(power, base)
        d *= p
    return d


@pytest.mark.parametrize("n, p, N", [(3, 2, 30), (4, 2, 20), (4, 3, 13)])
def test_period_kernel_is_exact_near_the_int64_edge(n, p, N):
    # At (3,2,30) and (4,3,13), q = p^N is the largest power of p with
    # q^(n-1) < 2^62.  (4,2,20) is exceptional, so some of its tails
    # break the orbit-size law.
    q = p**N
    rng = random.Random(f"{n},{p},{N}")
    rows = [[q - 1 - (i >> r & 1) for r in range(n - 1)] for i in range(2 ** (n - 1))]
    rows += [[rng.randrange(q) for _ in range(n - 1)] for _ in range(16)]
    census, lawful = {}, []
    for tail in rows:
        want = reference_period(tail, p, q)
        if want is None:
            with pytest.raises(InternalCheckError, match="orbit size law"):
                period(tail, p, q)
        else:
            assert period(tail, p, q) == want, tail
            census[want] = census.get(want, 0) + 1
            lawful.append(tail)
    assert _period_census(np.array(lawful, dtype=np.int64).T, p, q) == census


@pytest.mark.parametrize("n, p, N", [(3, 3, 3), (4, 5, 1), (2, 3, 4)])
def test_range_count_is_independent_of_block_size(monkeypatch, n, p, N):
    import maxclass.counting as counting

    rests = p ** ((n - 2) * N)
    results = []
    for block in (1, 3, 4096):
        monkeypatch.setattr(counting, "_BLOCK", block)
        for lo, hi in [(0, rests), (1, rests - 2), (rests // 3, rests // 2)]:
            count, census = _count_tail_range(n, p, N, lo, hi)
            assert type(count) is int
            assert all(type(k) is int and type(v) is int for k, v in census.items())
            assert count == sum(census.values())
            results.append((block, lo, hi, count, census))
    for block, lo, hi, count, census in results:
        first = next(r for r in results if r[1:3] == (lo, hi))
        assert (count, census) == first[3:], (block, lo, hi)
    # An orbit of size d holds d tails of period d.
    assert results[0][4] == {d: d * orbits for d, orbits in expected_census(n, p, N).items()}
