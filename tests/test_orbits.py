import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reps import iter_reps

from maxclass.errors import ExceptionalPrimeError
from maxclass.orbits import shift_orbit, shift_spec
from maxclass.rootlog import PrimePower, depth_of
from maxclass.stability import is_irreducible_structural, minimal_stable_index
from maxclass.standard_form import EigenSpec, build_rep, spec_from_tail

# Orbit-law grids: p >= n - 1 suffices for the law, these all have p >= n.
ORBIT_GRID = [(3, 5, 1), (3, 3, 2), (2, 3, 2), (4, 5, 1), (2, 2, 3)]


def table(spec):
    return build_rep(spec, validate=False)


def canonical_tail(spec):
    """Lexicographically least tail in the orbit of ``spec``."""
    return min(shift_orbit(table(spec)))


def brute_orbit(rep):
    """Oracle: iterate single shifts until the tail set closes."""
    return {shift_spec(rep, offset).tail for offset in range(rep.dim)}


def test_shift_examples():
    pp = PrimePower(5, 1)
    spec = EigenSpec(3, pp, (0, 0, 1))
    # Column 3 of the table is (E[2][3], E[3][3]) = (0 + 1*T_1(2), 1) = (2, 1).
    assert shift_spec(table(spec), 2).exponents == (0, 2, 1)
    assert shift_spec(table(spec), 0) == spec
    constant = EigenSpec(3, pp, (0, 1, 0))
    for offset in range(5):
        assert shift_spec(table(constant), offset) == constant


def test_orbit_examples():
    pp = PrimePower(5, 1)
    orbit = shift_orbit(table(EigenSpec(3, pp, (0, 0, 1))))
    assert orbit == frozenset((c, 1) for c in range(5))
    assert len(shift_orbit(table(EigenSpec(3, pp, (0, 1, 0))))) == 1
    assert len(shift_orbit(table(EigenSpec(3, pp, (0, 0, 0))))) == 1


def test_canonical_examples():
    pp = PrimePower(5, 1)
    assert canonical_tail(EigenSpec(3, pp, (0, 3, 1))) == (0, 1)
    assert canonical_tail(EigenSpec(3, pp, (0, 1, 0))) == (1, 0)
    assert canonical_tail(EigenSpec(3, pp, (0, 0, 0))) == (0, 0)


def test_orbit_scope_guard():
    with pytest.raises(ExceptionalPrimeError):
        shift_orbit(table(EigenSpec(4, PrimePower(2, 1), (0, 0, 0, 1))))


def test_orbit_size_law_exhaustive():
    for n, p, N in ORBIT_GRID:
        for rep in iter_reps(n, p, N):
            orbit = shift_orbit(rep)  # the law is asserted internally too
            assert len(orbit) == p ** minimal_stable_index(rep, first_row=2)
            assert orbit == brute_orbit(rep)
            assert rep.spec.tail in orbit  # offset 0 is the identity


def test_canonical_is_orbit_invariant():
    for n, p, N in ORBIT_GRID:
        for rep in iter_reps(n, p, N):
            orbit = shift_orbit(rep)
            rep_tail = min(orbit)
            for tail in orbit:
                assert canonical_tail(spec_from_tail(n, rep.spec.pp, tail)) == rep_tail


@given(st.sampled_from(ORBIT_GRID), st.data())
@settings(max_examples=60, deadline=None)
def test_shifts_compose(grid, data):
    n, p, N = grid
    pp = PrimePower(p, N)
    q = pp.dim
    tail = tuple(data.draw(st.integers(0, q - 1)) for _ in range(n - 1))
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    rep = table(spec_from_tail(n, pp, tail))
    assert shift_spec(table(shift_spec(rep, a)), b) == shift_spec(rep, (a + b) % q)


def test_irreducibility_is_orbit_invariant():
    for n, p, N in ORBIT_GRID:
        for rep in iter_reps(n, p, N):
            base = is_irreducible_structural(rep)
            for tail in shift_orbit(rep):
                other = table(spec_from_tail(n, rep.spec.pp, tail))
                assert is_irreducible_structural(other) == base


def test_shift_matches_matrix_conjugation():
    # Conjugating the realized matrices by a cycle power rotates every
    # diagonal, and renormalizing the first entry of x_1 to 1 is the
    # twist; the resulting table must be build_rep of the shifted data.
    import numpy as np

    from maxclass.oracle import _cycle_matrix, realize

    def matrices(rep):
        return [np.diag(d) for d in realize(rep).eig]

    for n, p, N in [(3, 5, 1), (2, 3, 2), (4, 5, 1), (3, 3, 2)]:
        pp = PrimePower(p, N)
        q = pp.dim
        for tail in [(1,) * (n - 1), tuple(range(1, n)), (q - 1,) * (n - 1)]:
            rep = table(spec_from_tail(n, pp, tail))
            xs = matrices(rep)
            for offset in (1, q - 1):
                rotation = np.linalg.matrix_power(_cycle_matrix(q).T, offset)
                conjugated = [rotation @ x @ rotation.conj().T for x in xs]
                twist = conjugated[0][0, 0].conj()
                target = matrices(table(shift_spec(rep, offset)))
                assert np.allclose(conjugated[0] * twist, target[0])
                for i in range(1, n):
                    assert np.allclose(conjugated[i], target[i])


def test_depth_case_is_orbit_invariant():
    # The case split behind the closed-form count: the suffix maxima of
    # the depth profile over i >= 3 and over i >= 2 never move inside an
    # orbit (p >= n).
    for n, p, N in ORBIT_GRID:
        for rep in iter_reps(n, p, N):
            def profile(tail):
                depths = [depth_of(e, p, N) for e in tail]
                return max(depths), max(depths[1:], default=0)

            base = profile(rep.spec.tail)
            for tail in shift_orbit(rep):
                assert profile(tail) == base
