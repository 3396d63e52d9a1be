import math

import numpy as np
import pytest
from reps import iter_reps, stack
from test_acceptance import EQUIVALENCE_GRID

from maxclass import checks, oracle
from maxclass.checks import ORACLE_GRID
from maxclass.errors import GuardExceededError
from maxclass.oracle import (
    DEFAULT_TOL,
    SV_THRESHOLD,
    ComplexRep,
    check_relations,
    commutant_dimension,
    mutual_eigenspace_census,
    realize,
    realizes_unit_shift,
    relation_residuals,
    stability_residual,
    subspace_is_stable,
)
from maxclass.orbits import shift_spec, shifted_exponents
from maxclass.rootlog import PrimePower, is_prime
from maxclass.stability import (
    is_irreducible_depth,
    is_irreducible_structural,
    minimal_stable_index,
)
from maxclass.standard_form import EigenSpec, build_rep, build_stack

SMALL_GRID = [(2, 2, 2), (2, 3, 1), (3, 3, 1), (2, 2, 3), (3, 5, 1)]


def test_realize_two_by_two():
    # Table for n=2, p=2, (0,1): row 2 = (1,1), row 1 = (0,1), so
    # x_2 = -I, x_1 = diag(1, -1) and y is the swap.
    rep = build_rep(EigenSpec(2, PrimePower(2, 1), (0, 1)))
    c = realize(rep)
    assert np.allclose(c.eig[1], [-1.0, -1.0])
    assert np.allclose(c.eig[0], [1.0, -1.0])
    assert np.allclose(oracle._cycle_matrix(2), np.array([[0, 1], [1, 0]]))
    # x_1 y x_1^-1 y^-1 = diag(-1,-1) = x_2, checked by hand
    assert check_relations(c)


def test_realize_trivial_and_guard():
    rep = build_rep(EigenSpec(3, PrimePower(5, 1), (0, 0, 0)))
    c = realize(rep)
    assert c.eig.shape == (3, 5)
    assert np.allclose(c.eig, 1.0)
    assert check_relations(c)
    big = build_rep(EigenSpec(2, PrimePower(2, 7), (0, 1)), validate=False)
    with pytest.raises(GuardExceededError):
        realize(big)


def test_commutant_dimension_guard():
    # A hand-built rep skips realize's guard; the commutant checks its own.
    with pytest.raises(GuardExceededError, match="2\\^7 matrix rows exceed the oracle guard 64"):
        commutant_dimension(ComplexRep(2, 7, np.ones((2, 2**7), dtype=complex)))


def test_realize_matches_example_table():
    rep = build_rep(EigenSpec(3, PrimePower(5, 1), (0, 1, 1)))
    c = realize(rep)
    expected = np.exp(2j * np.pi * np.array([1, 2, 3, 4, 0]) / 5)
    assert np.allclose(c.eig[1], expected)


def test_relations_fail_on_corruption():
    rep = build_rep(EigenSpec(3, PrimePower(5, 1), (0, 1, 1)))
    c = realize(rep)
    eig = c.eig.copy()
    eig[0, 2] *= np.exp(0.3j)
    corrupted = ComplexRep(c.p, c.N, eig)
    assert not check_relations(corrupted)
    assert check_relations(c)


def test_relation_residuals_are_tiny():
    for n, p, N in SMALL_GRID:
        for rep in iter_reps(n, p, N):
            c = realize(rep)
            assert relation_residuals(c) < 1e-9


def test_commutant_examples():
    c = realize(build_rep(EigenSpec(2, PrimePower(2, 1), (0, 1))))
    assert commutant_dimension(c) == 1
    trivial = realize(build_rep(EigenSpec(3, PrimePower(5, 1), (0, 0, 0))))
    # commutant of {I, cycle} is the circulant algebra
    assert commutant_dimension(trivial) == 5
    c2 = realize(build_rep(EigenSpec(3, PrimePower(5, 1), (0, 0, 1))))
    assert commutant_dimension(c2) == 1


def test_commutant_matches_exact_tests():
    for n, p, N in SMALL_GRID:
        for rep in iter_reps(n, p, N):
            c = realize(rep)
            irreducible = commutant_dimension(c) == 1
            assert irreducible == is_irreducible_structural(rep)
            assert irreducible == is_irreducible_depth(rep.spec)


def _stacked_operator(c):
    """The x-operators A -> x_i A - A x_i on the cycle commutant, stacked."""
    basis_mats = oracle._cycle_commutant_basis(c.dim).reshape(c.dim, c.dim, c.dim)
    blocks = []
    for diag in c.eig:
        gaps = diag[:, None] - diag[None, :]
        blocks.append((gaps[:, :, None] * basis_mats).reshape(c.dim * c.dim, c.dim))
    return np.vstack(blocks)


def test_commutant_column_norms_match_the_svd():
    # The oracle reads the singular values off the column norms; this is
    # the one place the SVD is still taken, over the whole equivalence grid.
    total = 0
    for n, p, N in EQUIVALENCE_GRID:
        for rep in iter_reps(n, p, N):
            total += 1
            c = realize(rep)
            stacked = _stacked_operator(c)
            sigmas = np.linalg.svd(stacked, compute_uv=False)
            top = sigmas[0]
            svd_verdict = (
                c.dim if top == 0.0 else int(np.sum(sigmas < SV_THRESHOLD * top))
            )
            assert commutant_dimension(c) == svd_verdict, (rep.spec.exponents, p, N)
            norms = oracle._commutant_singular_values(c)
            assert np.max(np.abs(norms - np.linalg.norm(stacked, axis=0))) <= 1e-12 * top
            assert np.max(np.abs(np.sort(norms)[::-1] - sigmas)) <= 1e-12 * top
    assert total == 1695


def test_cached_arrays_are_read_only():
    with pytest.raises(ValueError):
        oracle._cycle_commutant_basis(4)[0, 0] = 1.0


def test_eigenspace_census():
    c = realize(build_rep(EigenSpec(3, PrimePower(5, 1), (0, 0, 1))))
    assert mutual_eigenspace_census(c) == (5, 1)
    c2 = realize(build_rep(EigenSpec(2, PrimePower(3, 1), (0, 1))))
    assert mutual_eigenspace_census(c2) == (3, 1)
    c3 = realize(build_rep(EigenSpec(2, PrimePower(2, 1), (0, 1))))
    assert mutual_eigenspace_census(c3) == (2, 1)
    # x_i = I: one joint eigenspace, the whole space.
    trivial = realize(build_rep(EigenSpec(3, PrimePower(5, 1), (0, 0, 0))))
    assert mutual_eigenspace_census(trivial) == (1, 5)


def test_eigenspace_census_exhaustive():
    for n, p, N in SMALL_GRID:
        for rep in iter_reps(n, p, N):
            c = realize(rep)
            if commutant_dimension(c) == 1:
                assert mutual_eigenspace_census(c) == (p**N, 1)


def test_subspace_examples():
    c = realize(build_rep(EigenSpec(3, PrimePower(5, 1), (0, 1, 0))))
    assert not subspace_is_stable(c, 0)
    assert subspace_is_stable(c, 1)
    c2 = realize(build_rep(EigenSpec(2, PrimePower(3, 2), (0, 3))))
    assert subspace_is_stable(c2, 1)
    assert subspace_is_stable(c2, 2)  # the whole space
    with pytest.raises(ValueError):
        subspace_is_stable(c2, 3)


def test_subspace_agrees_with_minimal_index():
    for n, p, N in SMALL_GRID:
        for rep in iter_reps(n, p, N):
            c = realize(rep)
            minimal = minimal_stable_index(rep)
            for j in range(N + 1):
                assert subspace_is_stable(c, j) == (j >= minimal)


def test_verdicts_stable_under_tolerance():
    # No residual lies in (1e-11, 1e-7], so every tolerance in that range
    # reads the same verdict.
    for n, p, N in [(2, 3, 1), (3, 3, 1), (2, 2, 2)]:
        c = realize(*stack(n, p, N))
        for residual in (relation_residuals(c), *(stability_residual(c, j) for j in range(N + 1))):
            assert np.array_equal(residual <= 1e-11, residual <= 1e-7)


# -- dense references ----------------------------------------------------------
#
# The oracle reads every check off the eigenvalue arrays.  These are the
# same checks as products of the dense dim x dim matrices x_i = diag(d_i)
# and y, the dim-cycle, kept as differential references.


def _dense(c):
    """The stacked x_i as (..., n, dim, dim) diagonal matrices, and y."""
    return c.eig[..., None] * np.eye(c.dim), oracle._cycle_matrix(c.dim)


def _dense_relation_residuals(c):
    """Diagonal unitaries invert by conjugation and y by transposition."""
    xs, y = _dense(c)
    lower, xn = xs[..., :-1, :, :], xs[..., -1, :, :]
    return np.maximum.reduce([
        np.abs(lower @ y @ lower.conj() @ y.T - xs[..., 1:, :, :]).max(axis=(-3, -2, -1)),
        np.abs(xn @ y - y @ xn).max(axis=(-2, -1)),
        np.abs(xn - xn[..., :1, :1] * np.eye(c.dim)).max(axis=(-2, -1)),
    ])


def _dense_realizes_unit_shift(c, shifted):
    xs, y = _dense(c)
    target, _ = _dense(shifted)
    conjugated = y.T @ xs @ y  # y^-1 = y^T
    x1 = conjugated[..., 0, :, :]
    x1 *= target[..., 0, :1, :1] / x1[..., :1, :1]  # twists conjugated in place
    return np.abs(conjugated - target).max(axis=(-3, -2, -1)) <= oracle.DEFAULT_TOL


def _stable_basis(p, N, j):
    """Orthonormal spanning vectors of the j-th candidate subspace, as columns.

    Shift s of the seed e_1 + e_{p^j + 1} + ... has ones at the rows
    congruent to s mod p^j, so the columns are p^(N-j) stacked copies of
    the p^j identity, over sqrt(p^(N-j)).
    """
    copies = p ** (N - j)
    basis = np.tile(np.eye(p**j, dtype=complex), (copies, 1)) / np.sqrt(copies)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(p**j))) <= 1e-12
    return basis


def _dense_stability_residual(c, j):
    """The largest entry of each generator's image in the basis's complement."""
    xs, y = _dense(c)
    basis = _stable_basis(c.p, c.N, j)
    x_leak, y_leak = (np.abs(image - basis @ (basis.conj().T @ image)).max(axis=(-2, -1))
                      for image in (xs @ basis, y @ basis))
    return np.maximum(x_leak.max(axis=-1), y_leak)


def _realized(n, p, N, step=1):
    """Every step-th spec of (n, p, N), realized in the suite's stacks, with its shift."""
    pp, stacks = checks._stacks(n, p, N)
    done = 0
    for exps, tables in stacks:
        tables = tables[-done % step::step]
        done += len(exps)
        if len(tables):
            shifted = build_stack(n, pp, shifted_exponents(tables, 1))
            yield realize(tables, pp), realize(shifted, pp)


@pytest.mark.parametrize("n, p, N, step", [*((*point, 1) for point in EQUIVALENCE_GRID),
                                           (3, 7, 2, 7)])
def test_eigenvalue_checks_match_the_dense_forms(monkeypatch, n, p, N, step):
    specs = 0
    for c, shifted in _realized(n, p, N, step):
        specs += len(c.eig)
        residuals = np.column_stack([relation_residuals(c),
                                     *(stability_residual(c, j) for j in range(N + 1))])
        dense = np.column_stack([_dense_relation_residuals(c),
                                 *(_dense_stability_residual(c, j) for j in range(N + 1))])
        assert np.max(np.abs(residuals - dense)) <= 1e-12
        for tol in (1e-11, 1e-9, 1e-7):
            monkeypatch.setattr(oracle, "DEFAULT_TOL", tol)
            assert np.array_equal(residuals <= tol, dense <= tol)
            verdicts = realizes_unit_shift(c, shifted)
            assert np.array_equal(verdicts, _dense_realizes_unit_shift(c, shifted))
            assert verdicts.all()
    assert specs == -(-p ** ((n - 1) * N) // step)


@pytest.mark.parametrize("n, p, N", [(2, 2, 2), (3, 5, 1), (2, 3, 2), (3, 3, 2)])
def test_one_corrupted_eigenvalue_fails_both_forms(n, p, N):
    # Entry 2 of x_1 stays clear of the twist, which rescales entry 0 of
    # the conjugated x_1; subspace N is the whole space, stable always.
    (c, shifted), = _realized(n, p, N)
    for i in range(n):
        eig = c.eig.copy()
        eig[:, i, 2] *= np.exp(0.3j)
        bad = ComplexRep(p, N, eig)
        assert not check_relations(bad).any()
        assert (_dense_relation_residuals(bad) > DEFAULT_TOL).all()
        assert not realizes_unit_shift(bad, shifted).any()
        assert not _dense_realizes_unit_shift(bad, shifted).any()
        for j in range(N):
            assert not subspace_is_stable(bad, j).any()
            assert (_dense_stability_residual(bad, j) > DEFAULT_TOL).all()


def test_stability_residual_matches_the_dense_form_in_every_context():
    # Diagonals of period p^period span the subspaces from index period on.
    rng = np.random.default_rng(0)
    contexts = [
        (p, N)
        for p in range(2, oracle.DEFAULT_ORACLE_GUARD + 1)
        if is_prime(p)
        for N in range(7)
        if p**N <= oracle.DEFAULT_ORACLE_GUARD
    ]
    assert len(contexts) == 45
    for p, N in contexts:
        for period in range(N + 1):
            phases = rng.uniform(0, 2 * np.pi, (2, 3, p**period))
            c = ComplexRep(p, N, np.tile(np.exp(1j * phases), p ** (N - period)))
            for j in range(N + 1):
                residual = stability_residual(c, j)
                assert np.max(np.abs(residual - _dense_stability_residual(c, j))) <= 1e-12
                assert np.array_equal(residual <= DEFAULT_TOL, np.full(2, j >= period))


# -- the stacked oracle ------------------------------------------------------


def _verdicts(c, shifted):
    """Every per-spec verdict the oracle suite reads: one row per spec."""
    columns = [check_relations(c), commutant_dimension(c), *mutual_eigenspace_census(c),
               realizes_unit_shift(c, shifted),
               *(subspace_is_stable(c, j) for j in range(c.N + 1))]
    return np.stack(columns, axis=-1).tolist()


@pytest.mark.parametrize("n, p, N", ORACLE_GRID)
def test_stack_of_one_agrees_with_the_whole_stack(n, p, N):
    tables, pp = stack(n, p, N)
    reps = list(iter_reps(n, p, N))
    shifts = [build_rep(shift_spec(rep, 1), validate=False) for rep in reps]
    shifted_tables = build_stack(n, pp, [shift.spec.exponents for shift in shifts])
    c, shifted = realize(tables, pp), realize(shifted_tables, pp)
    assert c.eig.shape == (len(reps), n, p**N)
    whole = _verdicts(c, shifted)
    # Columns 1..3: commutant dimension, joint eigenspaces, largest one.
    assert all(row[2:4] == [p**N, 1] for row in whole if row[1] == 1)
    for s, (rep, shift) in enumerate(zip(reps, shifts)):
        one = slice(s, s + 1)
        assert _verdicts(realize(tables[one], pp), realize(shifted_tables[one], pp)) == [whole[s]]
        # A single table is the unstacked case of the same functions.
        single = realize(rep)
        assert np.array_equal(single.eig, c.eig[s])
        assert _verdicts(single, realize(shift)) == whole[s]


def test_a_mixed_stack_gets_one_census_per_spec():
    pp = PrimePower(5, 1)
    c = realize(build_stack(3, pp, [(0, 0, 1), (0, 0, 0)]), pp)
    assert commutant_dimension(c).tolist() == [1, 5]
    eigenspaces, largest = mutual_eigenspace_census(c)
    assert list(zip(eigenspaces.tolist(), largest.tolist())) == [(5, 1), (1, 5)]


def test_oracle_suite_takes_each_commutant_once(monkeypatch):
    # One commutant per spec: the census reuses the suite's verdict
    # instead of re-deriving irreducibility.
    specs = []
    singular_values = oracle._commutant_singular_values

    def counted(c):
        specs.append(len(c.eig))
        return singular_values(c)

    monkeypatch.setattr(oracle, "_commutant_singular_values", counted)
    assert all(r.passed for r in checks.suite_oracle([(3, 3, 2)]))
    assert sum(specs) == 81


def _suite_at(monkeypatch, chunk, grid):
    monkeypatch.setattr(checks, "_ORACLE_CHUNK", chunk)
    return [checks.suite_oracle([point]) for point in grid]


def test_oracle_suite_is_independent_of_the_chunk_size(monkeypatch):
    grid = [*ORACLE_GRID, (3, 3, 2)]
    default = _suite_at(monkeypatch, checks._ORACLE_CHUNK, grid)
    assert all(r.passed for results in default for r in results)
    for chunk in (1, 7, 2**16):
        assert _suite_at(monkeypatch, chunk, grid) == default


def test_oracle_suite_stacks_stay_under_the_chunk(monkeypatch):
    stacks = []

    def recorded(tables, pp):
        c = realize(tables, pp)
        stacks.append(c.eig.size)
        return c

    monkeypatch.setattr(oracle, "realize", recorded)
    # (3,5,2) has 625 specs of 3 x 25 eigenvalues, chunked by the table
    # suites' rule; each chunk is realized twice, as the specs and as
    # their shifts.
    per_spec = 3 * 25
    results = checks.suite_oracle([(3, 5, 2)])
    assert all(r.passed for r in results)
    assert len(stacks) == 2 * math.ceil(625 / (checks._ORACLE_CHUNK // per_spec)) > 2
    assert max(stacks) <= checks._ORACLE_CHUNK
    assert sum(stacks) == 2 * 625 * per_spec


def _census_loop(c):
    """Reference census of one unstacked spec: the first-member rule as a loop."""
    sigs = c.eig.T  # dim x n: each basis vector's joint signature
    firsts, sizes, tol = [], [], oracle.DEFAULT_TOL
    for j in range(c.dim):
        hits = [k for k, f in enumerate(firsts) if np.max(np.abs(sigs[f] - sigs[j])) <= tol]
        if hits:
            sizes[hits[0]] += 1
        else:
            firsts.append(j)
            sizes.append(1)
    return len(firsts), max(sizes)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.8, 1.2, 1.9])
def test_census_matches_the_first_member_loop(monkeypatch, tol):
    # Loose tolerances merge nearby signatures of irreducible specs too,
    # so their classes are uneven.
    monkeypatch.setattr(oracle, "DEFAULT_TOL", tol)
    seen = set()
    for n, p, N in ORACLE_GRID:
        c = realize(*stack(n, p, N))
        eigenspaces, largest = mutual_eigenspace_census(c)
        got = list(zip(eigenspaces.tolist(), largest.tolist()))
        assert got == [_census_loop(ComplexRep(p, N, eig)) for eig in c.eig]
        seen.update(census for census, dim in zip(got, commutant_dimension(c)) if dim == 1)
    assert len(seen) > 1 or tol == DEFAULT_TOL
