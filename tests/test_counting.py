import dataclasses
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxclass import cli, counting
from maxclass.checks import iter_reps
from maxclass.counting import (
    CountReport,
    _count_tail_range,
    _orbit_sizes,
    _shard_bounds,
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


@pytest.mark.parametrize("cpus", [None, 1, 3])
def test_shard_count_is_capped(monkeypatch, cpus):
    # Only the boundaries are computed: no process is started.
    if cpus is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cap = os.cpu_count() or 1
    for total in (2, 7, 15625):
        bounds = _shard_bounds(total, workers=10_000)
        assert 1 <= len(bounds) - 1 <= min(cap, total)
        assert bounds[0] == 0 and bounds[-1] == total
        assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
    assert len(_shard_bounds(15625, workers=1)) == 2


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


def test_parallel_enumeration_is_deterministic(monkeypatch):
    # Split two to four ways, each shard of (3,3,6) flushes its survivor
    # pool three times or more; (2,5,5) never fills it.  Four reported
    # cores let workers=3 and 4 start two and three children on any host.
    monkeypatch.setattr(counting.os, "cpu_count", lambda: 4)
    for n, p, N in [(4, 5, 2), (3, 3, 5), (2, 5, 5), (3, 5, 3), (3, 3, 6)]:
        serial = enumerate_isoclasses(n, p, N)
        for workers in (2, 3, 4):
            parallel = enumerate_isoclasses(n, p, N, workers=workers)
            assert parallel == serial, (n, p, N, workers)
            assert list(parallel.orbit_census.items()) == list(
                serial.orbit_census.items()
            )


# The fault injections below reach the child shards through the patched
# module global, which only a forked child inherits.  With workers=2 they
# start one child, so two processes in all.
fan_out_faults = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork" or (os.cpu_count() or 1) < 2,
    reason="needs the fork start method and two cores",
)


def _fault_at(monkeypatch, parent_fault, child_fault):
    """Patch _count_tail_range: shard 0 (the caller's) and the others fail as given."""

    def faulty(n, p, N, lo, hi):
        return (parent_fault if lo == 0 else child_fault)()

    monkeypatch.setattr(counting, "_count_tail_range", faulty)


@fan_out_faults
def test_child_shard_exception_is_reraised(monkeypatch, capsys):
    def child_fault():
        raise InternalCheckError("orbit size law violated in a child shard")

    _fault_at(monkeypatch, lambda: (0, {}), child_fault)
    with pytest.raises(InternalCheckError, match="^orbit size law violated in a child shard$"):
        enumerate_isoclasses(3, 5, 2, workers=2)
    assert multiprocessing.active_children() == []
    code = cli.main(["count", "--n", "3", "--p", "5", "--N", "2", "--threads", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "orbit size law violated in a child shard" in captured.err
    assert multiprocessing.active_children() == []


@fan_out_faults
def test_child_that_dies_without_sending_is_named(monkeypatch):
    _fault_at(monkeypatch, lambda: (0, {}), lambda: os._exit(3))
    with pytest.raises(MaxclassError, match=r"shard \[312, 625\).*exit code 3"):
        enumerate_isoclasses(3, 5, 2, workers=2)
    assert multiprocessing.active_children() == []


@fan_out_faults
@pytest.mark.parametrize("fault", [InternalCheckError, KeyboardInterrupt])
def test_parent_shard_fault_stops_the_children(monkeypatch, fault):
    def parent_fault():
        raise fault("stop")

    def child_fault():
        time.sleep(60)

    _fault_at(monkeypatch, parent_fault, child_fault)
    start = time.monotonic()
    with pytest.raises(fault, match="^stop$"):
        enumerate_isoclasses(3, 5, 2, workers=2)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


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


def assert_walk_matches_orbits(n, p, N, indices):
    """Each tail's keep/size verdict agrees with the orbit layer."""
    pp = PrimePower(p, N)
    for idx in indices:
        tail = tail_of(idx, n, pp.dim)
        spec = spec_from_tail(n, pp, tail)
        want = (0, {})
        if is_irreducible_depth(spec):
            orbit = shift_orbit(build_rep(spec, validate=False))
            if min(orbit) == tuple(tail):
                want = (1, {len(orbit): 1})
        assert _count_tail_range(n, p, N, idx, idx + 1) == want, (n, p, N, tail)


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
    total = p ** ((n - 1) * N)
    assert_walk_matches_orbits(n, p, N, range(total))
    assert_methods_agree(n, p, N)
    assert_range_splits(n, p, N, 0, total // 3, total)


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
    lo, mid, hi = sorted(data.draw(st.lists(st.integers(0, total), min_size=3, max_size=3)))
    assert_range_splits(n, p, N, lo, mid, hi)


def orbit_size(tail, p, q):
    """Orbit size of one canonical tail by the batched walk, 0 if rejected."""
    base = np.array([tail], dtype=np.int64).T
    census, rest, _ = _orbit_sizes(base, base.copy(), p, q)
    assert rest.shape[1] == 0 and sum(census.values()) <= 1
    return next(iter(census), 0)


def test_orbit_size_law_rejects_return_time_not_a_power_of_p():
    # Modulo 6 the columns of (0, 1) are (k, 1) for k = 0..5: column 0 is
    # the least and the walk returns after 6 steps, a power of neither
    # 2 nor 3.  Modulo 2 the same walk returns after 2 steps.
    assert orbit_size([0, 1], 2, 2) == 2
    with pytest.raises(InternalCheckError, match="orbit size law"):
        orbit_size([0, 1], 2, 6)
    with pytest.raises(InternalCheckError, match="orbit size law"):
        orbit_size([0, 1], 3, 6)


def test_orbit_size_law_rejects_no_return_within_p_to_the_N():
    # p = 2 < n - 1 = 3 is exceptional: the table does not close up after
    # p^N = 2 columns, and the column walk of (0, 0, 1) needs 4 steps.
    with pytest.raises(InternalCheckError, match="orbit size law"):
        orbit_size([0, 0, 1], 2, 2)


@pytest.mark.parametrize("n, p, N", [(3, 3, 3), (4, 5, 1), (2, 3, 4)])
def test_range_count_is_independent_of_block_size(monkeypatch, n, p, N):
    import maxclass.counting as counting

    total = p ** ((n - 1) * N)
    results = []
    for block in (1, 3, 4096):
        monkeypatch.setattr(counting, "_BLOCK", block)
        for lo, hi in [(0, total), (1, total - 2), (total // 3, total // 2)]:
            count, census = _count_tail_range(n, p, N, lo, hi)
            assert type(count) is int
            assert all(type(k) is int and type(v) is int for k, v in census.items())
            assert count == sum(census.values())
            results.append((block, lo, hi, count, census))
    for block, lo, hi, count, census in results:
        first = next(r for r in results if r[1:3] == (lo, hi))
        assert (count, census) == first[3:], (block, lo, hi)
    assert results[0][3:] == (closed_form_count(n, p, N), expected_census(n, p, N))
