import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxclass import checks
from maxclass.checks import STANDARD_FORM_GRID, PropertyResult, iter_reps
from maxclass.errors import GuardExceededError, InternalCheckError
from maxclass.rootlog import PrimePower, depth_of
from maxclass.standard_form import (
    EigenSpec,
    StandardFormRep,
    _cached_simplex_rows,
    _validate_closed_form,
    build_rep,
    build_stack,
    cycle_constraint_holds,
    distinct_columns,
    spec_from_tail,
)

# Grid points where every tail fits comfortably in a test run; p >= n.
EXHAUSTIVE_GRID = [(2, 2, 3), (2, 3, 2), (3, 3, 2), (3, 5, 1), (4, 5, 1), (5, 5, 1)]


def reference_rows(spec):
    """Independent oracle: the forward recursion written out directly."""
    q = spec.pp.dim
    n = spec.n
    rows = [[0] * q for _ in range(n)]
    rows[n - 1] = [spec.exponents[n - 1]] * q
    for i in range(n - 2, -1, -1):
        rows[i][0] = spec.exponents[i]
        for j in range(1, q):
            rows[i][j] = (rows[i + 1][j] + rows[i][j - 1]) % q
    return tuple(tuple(r) for r in rows)


def all_specs(n, p, N):
    pp = PrimePower(p, N)
    for tail in itertools.product(range(pp.dim), repeat=n - 1):
        yield spec_from_tail(n, pp, tail)


def test_spec_validation():
    pp = PrimePower(5, 1)
    with pytest.raises(ValueError):
        EigenSpec(3, pp, (1, 0, 0))  # e_1 must be 0
    with pytest.raises(ValueError):
        EigenSpec(3, pp, (0, 5, 0))  # out of range
    with pytest.raises(ValueError):
        EigenSpec(3, pp, (0, 0))  # wrong length
    with pytest.raises(ValueError):
        EigenSpec(1, pp, (0,))  # n too small
    with pytest.raises(ValueError):
        EigenSpec(2, PrimePower(5, 0), (0, 0))  # N must be >= 1


def test_worked_example_table():
    # Hand-expanded via the recursion E[i][j+1] = E[i+1][j+1] + E[i][j]:
    #   row 3 constant 1; row 2 = 1,2,3,4,0; row 1 = 0,2,0,4,4;
    #   wraparound: E[1][1] = E[2][1] + E[1][5] = 1 + 4 = 0 mod 5.
    spec = EigenSpec(3, PrimePower(5, 1), (0, 1, 1))
    rep = build_rep(spec)
    assert rep.rows == ((0, 2, 0, 4, 4), (1, 2, 3, 4, 0), (1, 1, 1, 1, 1))
    assert rep.entry(1, 1) == (rep.entry(2, 1) + rep.entry(1, 5)) % 5


def test_two_generator_row_is_arithmetic():
    # n = 2: row 1 is e_2 * (j-1) mod p^N
    for p, N in ((3, 2), (2, 3), (5, 1)):
        q = p**N
        for e2 in range(q):
            rep = build_rep(EigenSpec(2, PrimePower(p, N), (0, e2)))
            assert rep.rows[1] == tuple([e2] * q)
            assert rep.rows[0] == tuple(e2 * (j - 1) % q for j in range(1, q + 1))


def test_all_zero_spec_is_trivial():
    rep = build_rep(EigenSpec(4, PrimePower(5, 1), (0, 0, 0, 0)))
    assert all(all(v == 0 for v in row) for row in rep.rows)


def test_matches_recursion_oracle_exhaustively():
    for n, p, N in EXHAUSTIVE_GRID:
        for spec in all_specs(n, p, N):
            assert build_rep(spec).rows == reference_rows(spec)


def test_columns_and_entries():
    spec = EigenSpec(3, PrimePower(5, 1), (0, 1, 1))
    rep = build_rep(spec)
    assert rep.column(1) == (0, 1, 1)
    assert rep.column(3, first_row=2) == (3, 1)
    assert rep.column(6) == rep.column(1)  # cyclic
    assert rep.entry(2, 7) == rep.entry(2, 2)
    with pytest.raises(ValueError):
        rep.entry(4, 1)
    for first_row in (1, 2, 3):
        assert rep.columns(first_row) == [
            rep.column(j, first_row) for j in range(1, rep.dim + 1)
        ]
    assert rep.columns() == rep.columns(1)


def test_guard():
    # The table guard is 10^6: 1009^2 lies just above it, 997^2 just below.
    with pytest.raises(GuardExceededError):
        build_rep(EigenSpec(2, PrimePower(1009, 2), (0, 1)))
    below = build_rep(EigenSpec(2, PrimePower(997, 2), (0, 0)), validate=False)
    assert below.dim == 997**2


def test_cycle_constraint_automatic_for_large_primes():
    for n, p, N in EXHAUSTIVE_GRID:
        for spec in all_specs(n, p, N):
            assert cycle_constraint_holds(spec)


def test_cycle_constraint_flags_small_primes():
    # n = 3, p = 2: the wraparound of row 1 needs e_3 * T_2(q - 1) = 0 mod q,
    # and T_2(1) = 1 at N = 1, so any odd e_3 fails.
    pp = PrimePower(2, 1)
    assert cycle_constraint_holds(EigenSpec(3, pp, (0, 1, 0)))
    assert not cycle_constraint_holds(EigenSpec(3, pp, (0, 0, 1)))
    # n = 2 has no interior rows, so it holds for every prime.
    assert cycle_constraint_holds(EigenSpec(2, pp, (0, 1)))


def test_geometric_row_below_scalar():
    # Row n-1 is e_{n-1} + e_n * (j-1): a geometric progression of the
    # scalar's eigenvalue.
    for n, p, N in EXHAUSTIVE_GRID:
        q = p**N
        for spec in all_specs(n, p, N):
            rep = build_rep(spec, validate=False)
            e_n, e_prev = spec.exponents[-1], spec.exponents[-2]
            assert rep.rows[n - 2] == tuple(
                (e_prev + e_n * j) % q for j in range(q)
            )


def test_distinct_diagonal_property():
    # If e_i is primitive and everything after it is shallower, the row
    # above runs through all p^N residues.
    for n, p, N in EXHAUSTIVE_GRID:
        q = p**N
        for spec in all_specs(n, p, N):
            depths = [depth_of(e, p, N) for e in spec.exponents]
            rep = build_rep(spec, validate=False)
            for i in range(2, n + 1):
                if depths[i - 1] == N and all(
                    d <= N - 1 for d in depths[i:]
                ):
                    assert len(set(rep.rows[i - 2])) == q


@given(st.integers(1, 4), st.integers(1, 9), st.integers(1, 12),
       st.sampled_from([1, 3, 999982, 2**20 - 1]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_distinct_columns_counts_each_tables_column_tuples(specs, rows, q, top, seed):
    # Few values, so columns repeat; up to 2^20 - 1, so a column of more
    # than 3 rows packs into more than one int64 key.
    tables = np.random.default_rng(seed).choice([0, 1, top], size=(specs, rows, q))
    want = [len(set(zip(*table))) for table in tables.tolist()]
    assert distinct_columns(tables).tolist() == want


def test_json_round_trip_fields():
    spec = EigenSpec(3, PrimePower(5, 1), (0, 1, 1))
    blob = build_rep(spec).to_json_dict()
    assert blob["n"] == 3 and blob["p"] == 5 and blob["N"] == 1
    assert blob["dim"] == 5
    assert blob["exponents"] == [0, 1, 1]
    assert blob["rows"][2] == [1, 1, 1, 1, 1]
    assert blob["y_scalar"] == 1


def _with_entry_changed(rep, i, j, delta=1):
    """A copy of ``rep`` whose 0-based entry (i, j) is moved by ``delta`` mod p^N."""
    rows = [list(row) for row in rep.rows]
    rows[i][j] = (rows[i][j] + delta) % rep.dim
    return StandardFormRep(rep.spec, tuple(map(tuple, rows)))


def _validate(reps):
    """``_validate_closed_form`` on the stack of ``reps``' tables."""
    _validate_closed_form(reps[0].spec.pp, [rep.spec.exponents for rep in reps],
                          [rep.rows for rep in reps])


def test_closed_form_is_exact_at_the_guard():
    # 999983 is the largest prime under the table guard 10^6.  With
    # e_2 = q - 1, row 1 holds (q-1)(j-1) mod q, whose products reach
    # (q-1)^2 before they are reduced.
    q = 999983
    rep = build_rep(EigenSpec(2, PrimePower(q, 1), (0, q - 1)))
    with pytest.raises(InternalCheckError,
                       match=re.escape(f"recursion and closed form disagree at E[1][{q}]")):
        _validate([_with_entry_changed(rep, 0, q - 1)])


def test_builder_is_exact_at_the_guard():
    # Row 1 is e_2 plus the prefix sums of the constant row 2, so with
    # e_2 = q - 1 its last sum reaches (q-1)^2, about 10^12, before it is
    # reduced; (q-1)(j-1) = -(j-1) mod q gives every entry independently.
    q = 999983
    tables = build_stack(2, PrimePower(q, 1), [(0, q - 1), (0, 1)])
    assert tables.dtype == np.int64 and tables.shape == (2, 2, q)
    assert np.array_equal(tables[0, 0], -np.arange(q) % q)
    assert np.array_equal(tables[1, 0], np.arange(q))
    assert np.array_equal(tables[:, 1], np.array([[q - 1], [1]]).repeat(q, axis=1))
    _validate_closed_form(PrimePower(q, 1), [(0, q - 1), (0, 1)], tables)


@pytest.mark.parametrize("changes", [
    [(0, 0, 0)],
    [(57, 2, 4)],
    [(124, 3, 0)],
    # The first change in stack order is named: spec first, then row, then column.
    [(57, 2, 4), (58, 0, 0)],
    [(57, 3, 0), (57, 2, 4)],
    [(57, 2, 4), (57, 2, 1)],
])
def test_closed_form_names_the_first_bad_entry_of_a_stack(changes):
    reps = list(iter_reps(4, 5, 1))
    _validate(reps)
    for spec_index, i, j in changes:
        reps[spec_index] = _with_entry_changed(reps[spec_index], i, j)
    _, i, j = min(changes)
    with pytest.raises(InternalCheckError,
                       match=re.escape(f"disagree at E[{i + 1}][{j + 1}]")):
        _validate(reps)


def _reference_suite(grid):
    """The standard-form suite as a per-spec loop: one table, one entry at a time."""
    closed_ok = const_ok = col1_ok = wrap_ok = geom_ok = distinct_ok = True
    checked = 0
    for n, p, N in grid:
        for rep in iter_reps(n, p, N):
            q = rep.dim
            spec = rep.spec
            checked += 1
            tk = _cached_simplex_rows(p, N, n - 1)
            closed_ok &= all(
                rep.rows[i - 1][j - 1] == sum(
                    spec.exponents[k - 1] * tk[k - i][j - 1] for k in range(i, n + 1)) % q
                for i in range(1, n + 1)
                for j in range(1, q + 1)
            )
            const_ok &= rep.rows[n - 1] == tuple([spec.exponents[-1]] * q)
            col1_ok &= rep.column(1) == spec.exponents
            if p >= n:
                wrap_ok &= cycle_constraint_holds(spec)
                wrap_ok &= all(
                    rep.entry(i, 1) == (rep.entry(i + 1, 1) + rep.entry(i, q)) % q
                    for i in range(1, n)
                )
            e_n, e_n1 = spec.exponents[-1], spec.exponents[-2]
            geom_ok &= all(
                rep.entry(n - 1, j) == (e_n1 + e_n * (j - 1)) % q for j in range(1, q + 1)
            )
            if p >= n:
                depths = [depth_of(e, p, N) for e in spec.exponents]
                for i in range(2, n + 1):
                    if depths[i - 1] == N and all(
                        depths[k - 1] <= N - 1 for k in range(i + 1, n + 1)
                    ):
                        distinct_ok &= len(set(rep.rows[i - 2])) == q
    return [
        PropertyResult("closed form = recursion on every entry", closed_ok, f"{checked} specs"),
        PropertyResult("last row constant (central generator is scalar)", const_ok),
        PropertyResult("column 1 reproduces the defining exponents", col1_ok),
        PropertyResult("cycle wraparound consistent for p >= n", wrap_ok),
        PropertyResult("row n-1 is the geometric progression of e_n", geom_ok),
        PropertyResult("deepest-entry rows have all-distinct predecessors", distinct_ok),
    ]


def _stacked_verdicts(mp, grid):
    """The stacked suite's verdicts on ``grid``, with stacks of one spec and of the default bound."""
    default = checks._ORACLE_CHUNK
    out = []
    for chunk in (1, default):
        mp.setattr(checks, "_ORACLE_CHUNK", chunk)
        out.append(checks.suite_standard_form(grid))
    return out


# Every default grid point, and two exceptional primes p < n.
DIFFERENTIAL_GRID = [*STANDARD_FORM_GRID, (3, 2, 2), (4, 3, 1)]


@pytest.mark.parametrize("grid", [None, *([point] for point in DIFFERENTIAL_GRID)])
def test_stacked_suite_matches_the_per_spec_loop(grid):
    want = _reference_suite(grid or STANDARD_FORM_GRID)
    assert all(r.passed for r in want)
    with pytest.MonkeyPatch.context() as mp:
        assert _stacked_verdicts(mp, grid) == [want, want]


@given(st.sampled_from(DIFFERENTIAL_GRID), st.data())
@settings(max_examples=40, deadline=None)
def test_stacked_suite_matches_the_per_spec_loop_on_broken_tables(point, data):
    n, p, N = point
    q = p**N
    tails = list(itertools.product(range(q), repeat=n - 1))
    changed = data.draw(st.dictionaries(
        st.sampled_from(tails),
        st.tuples(st.integers(0, n - 1), st.integers(0, q - 1), st.integers(1, q - 1)),
        max_size=3,
    ))

    def build_changed(n, pp, exponents):
        tables = build_stack(n, pp, exponents)
        for s, exps in enumerate(np.asarray(exponents).tolist()):
            if tuple(exps[1:]) in changed:
                i, j, delta = changed[tuple(exps[1:])]
                tables[s, i, j] = (tables[s, i, j] + delta) % pp.dim
        return tables

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "build_stack", build_changed)
        want = _reference_suite([point])
        assert want[0].passed == (not changed)
        assert _stacked_verdicts(mp, [point]) == [want, want]
