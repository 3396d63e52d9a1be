import pytest

from maxclass import stability
from maxclass.errors import ExceptionalPrimeError, InternalCheckError
from maxclass.checks import iter_reps
from maxclass.rootlog import PrimePower
from maxclass.stability import (
    _verify_full_periodicity,
    is_irreducible_depth,
    is_irreducible_structural,
    minimal_stable_index,
    restriction_monotone,
)
from maxclass.standard_form import EigenSpec, StandardFormRep, build_rep

EXHAUSTIVE_GRID = [(2, 2, 4), (2, 3, 3), (3, 3, 2), (3, 5, 1), (4, 5, 1), (5, 5, 1)]


def brute_minimal_stable(rep, first_row=1):
    """Oracle: smallest j such that ALL columns repeat with period p^j."""
    p, N = rep.spec.pp.p, rep.spec.pp.N
    q = rep.dim
    cols = [rep.column(c, first_row) for c in range(1, q + 1)]
    for j in range(N + 1):
        step = p**j
        if all(cols[c] == cols[(c + step) % q] for c in range(q)):
            return j
    raise AssertionError("period p^N must always work")


def test_minimal_stable_examples():
    pp = PrimePower(5, 1)
    rep = build_rep(EigenSpec(3, pp, (0, 1, 0)))
    # Columns 1 and 2 differ in row 1 ((0,1,0) vs (1,1,0)), so j=0 fails
    # and j=1 is forced.
    assert minimal_stable_index(rep, 1) == 1
    # Rows 2..3 are the constant columns (1, 0).
    assert minimal_stable_index(rep, 2) == 0
    zero = build_rep(EigenSpec(3, pp, (0, 0, 0)))
    assert minimal_stable_index(zero, 1) == 0


def test_minimal_stable_matches_brute_force():
    for n, p, N in EXHAUSTIVE_GRID:
        for rep in iter_reps(n, p, N):
            for first_row in range(1, n + 1):
                assert minimal_stable_index(rep, first_row) == brute_minimal_stable(
                    rep, first_row
                )


def test_irreducible_examples():
    pp = PrimePower(5, 1)
    assert is_irreducible_structural(build_rep(EigenSpec(3, pp, (0, 0, 1))))
    assert not is_irreducible_structural(build_rep(EigenSpec(3, pp, (0, 0, 0))))
    # n=2, p=3, N=2, e_2 = 3: row 1 is 3(j-1) mod 9, which repeats with
    # period 3, so V_3 is stable and the rep is reducible.
    rep = build_rep(EigenSpec(2, PrimePower(3, 2), (0, 3)))
    assert not is_irreducible_structural(rep)


def test_depth_criterion_examples():
    pp = PrimePower(5, 1)
    assert is_irreducible_depth(EigenSpec(3, pp, (0, 0, 1)))
    assert not is_irreducible_depth(EigenSpec(3, PrimePower(5, 2), (0, 5, 10)))
    with pytest.raises(ExceptionalPrimeError):
        is_irreducible_depth(EigenSpec(4, PrimePower(3, 1), (0, 0, 0, 1)))


def test_depth_equals_structural_exhaustively():
    for n, p, N in EXHAUSTIVE_GRID:
        for rep in iter_reps(n, p, N):
            assert is_irreducible_depth(rep.spec) == is_irreducible_structural(rep)


def test_column_equality_propagates():
    for n, p, N in EXHAUSTIVE_GRID:
        q = p**N
        for rep in iter_reps(n, p, N):
            cols = [rep.column(c) for c in range(1, q + 1)]
            for c1 in range(q):
                for c2 in range(c1 + 1, q):
                    if cols[c1] == cols[c2]:
                        assert cols[(c1 + 1) % q] == cols[(c2 + 1) % q]


def test_restriction_monotone():
    pp = PrimePower(5, 1)
    rep = build_rep(EigenSpec(3, pp, (0, 1, 0)))
    assert restriction_monotone(rep)
    rep2 = build_rep(EigenSpec(3, pp, (0, 0, 1)))
    assert restriction_monotone(rep2)
    for n, p, N in EXHAUSTIVE_GRID:
        for rep in iter_reps(n, p, N):
            assert restriction_monotone(rep)


def test_restriction_monotone_fails_on_a_rising_chain(monkeypatch):
    # Columns that agree on rows r..n agree on rows r+1..n, so a correct
    # index can never rise along the chain; only a faulty restriction can.
    # Rows 3..4 of this (4,5,1) table are not constant (index 1), and the
    # fault below reads the restriction to rows 2..4 off row 4 alone
    # (index 0), so the chain reads 1, 0, 1.
    spec = EigenSpec(4, PrimePower(5, 1), (0, 0, 1, 1))
    rows = ((0, 2, 2, 1, 0), (0, 2, 0, 4, 4), (1, 2, 3, 4, 0), (1, 1, 1, 1, 1))
    rep = StandardFormRep(spec, rows)
    assert rep == build_rep(spec)
    assert [minimal_stable_index(rep, r) for r in (1, 2, 3)] == [1, 1, 1]
    assert restriction_monotone(rep)

    def row_4_for_row_2(rep, first_row=1):
        return minimal_stable_index(rep, rep.n if first_row == 2 else first_row)

    monkeypatch.setattr(stability, "minimal_stable_index", row_4_for_row_2)
    assert not restriction_monotone(rep)


def test_shallow_specs_repeat_early():
    # When no tail entry is primitive, the whole table repeats with
    # period p^(max depth), bounding the minimal stable index below N.
    for n, p, N in EXHAUSTIVE_GRID:
        q = p**N
        for rep in iter_reps(n, p, N):
            d = rep.spec.max_tail_depth()
            if d == N:
                continue
            cols = [rep.column(c) for c in range(1, q + 1)]
            step = p**d
            assert all(cols[c] == cols[(c + step) % q] for c in range(q))
            assert minimal_stable_index(rep) <= d


def test_minimal_stable_index_rechecks_full_periodicity():
    # Column 1 matches column 3, so the single comparison answers j = 1,
    # but column 2 does not match column 4: the table is not 2-periodic.
    rep = StandardFormRep(EigenSpec(2, PrimePower(2, 2), (0, 1)), ((0, 1, 0, 2), (1, 1, 1, 1)))
    with pytest.raises(InternalCheckError, match="full periodicity failed"):
        minimal_stable_index(rep)


def test_full_periodicity_check_runs_without_assertions():
    # minimal_stable_index runs this drift check in every mode; calling
    # it directly also pins the step-1 and drifted-column cases.
    periodic = [(0, 1), (1, 1), (0, 1), (1, 1)]
    _verify_full_periodicity(periodic, 2, 4)
    drifted = [(0, 1), (1, 1), (0, 1), (2, 1)]
    with pytest.raises(InternalCheckError, match="full periodicity failed"):
        _verify_full_periodicity(drifted, 2, 4)
    with pytest.raises(InternalCheckError):
        _verify_full_periodicity(periodic, 1, 4)
