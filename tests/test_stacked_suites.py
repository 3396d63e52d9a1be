"""The stacked stability and orbit suites against their per-spec loops.

``_reference_stability`` and ``_reference_orbits`` are the two suites as
they were written before they worked on stacks: one table at a time,
through the per-spec faces (``minimal_stable_index``,
``restriction_monotone``, ``is_irreducible_depth``, ``shift_orbit``,
``shift_spec``, ``build_rep``).  Both must report the same verdicts, or
raise the same error, as the stacked suites, with stacks of one spec and
of the default bound.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxclass import checks, standard_form
from maxclass.checks import ORBIT_GRID, STABILITY_GRID, PropertyResult, _depth_case, iter_reps
from maxclass.cli import main
from maxclass.errors import InternalCheckError
from maxclass.orbits import shift_orbit, shift_spec
from maxclass.stability import (
    is_irreducible_depth,
    is_irreducible_structural,
    minimal_stable_index,
    restriction_monotone,
)
from maxclass.standard_form import build_rep, build_stack


def _reference_stability(grid):
    equiv_ok = prop_ok = mono_ok = period_ok = True
    checked = 0
    for n, p, N in grid:
        for rep in iter_reps(n, p, N):
            q = rep.dim
            spec = rep.spec
            checked += 1
            cols = rep.columns()
            successor = {}
            prop_ok &= all(
                successor.setdefault(cols[c], cols[(c + 1) % q]) == cols[(c + 1) % q]
                for c in range(q)
            )
            mono_ok &= restriction_monotone(rep)
            if p >= n:
                equiv_ok &= is_irreducible_depth(spec) == is_irreducible_structural(rep)
                max_depth = spec.max_tail_depth()
                if max_depth < N:
                    step = p**max_depth
                    period_ok &= all(cols[c] == cols[(c + step) % q] for c in range(q))
                    period_ok &= minimal_stable_index(rep) <= max_depth
    return [
        PropertyResult("depth criterion = structural criterion (p >= n)", equiv_ok,
                       f"{checked} specs"),
        PropertyResult("column equality propagates one step right", prop_ok),
        PropertyResult("restriction can only lower the minimal stable index", mono_ok),
        PropertyResult("all-shallow specs repeat with period p^(max depth)", period_ok),
    ]


def _reference_orbits(grid):
    law_ok = compose_ok = irr_ok = case_ok = True
    checked = 0
    for n, p, N in grid:
        for rep in iter_reps(n, p, N):
            q = rep.dim
            checked += 1
            try:
                shift_orbit(rep)
            except InternalCheckError:
                law_ok = False
            shifted = {a: build_rep(shift_spec(rep, a), validate=False)
                       for a in {1, q // 2, q - 1}}
            for a, table in shifted.items():
                compose_ok &= shift_spec(table, 1) == shift_spec(rep, (a + 1) % q)
            if p >= n:
                nxt = shifted[1]
                irr_ok &= is_irreducible_structural(rep) == is_irreducible_structural(nxt)
                case_ok &= _depth_case(rep.spec) == _depth_case(nxt.spec)
    return [
        PropertyResult("orbit size = p^(restricted minimal stable index)", law_ok,
                       f"{checked} specs"),
        PropertyResult("shifts compose additively mod p^N", compose_ok),
        PropertyResult("irreducibility is constant on orbits", irr_ok),
        PropertyResult("depth case profile is constant on orbits (p >= n)", case_ok),
    ]


SUITES = {
    "stability": (checks.suite_stability, _reference_stability, STABILITY_GRID),
    "orbits": (checks.suite_orbits, _reference_orbits, ORBIT_GRID),
}
# Every default grid point, exceptional primes p < n, and (5,3,1), where
# p < n - 1 puts the orbit suite out of scope.
POINTS = sorted({*STABILITY_GRID, *ORBIT_GRID, (3, 2, 2), (4, 3, 1), (3, 2, 3), (5, 3, 1)})


def _outcome(suite, grid):
    """The suite's verdicts, or the type and text of the error it raised."""
    try:
        return suite(grid)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc).__name__, str(exc)


def _stacked_outcomes(mp, suite, grid):
    """The stacked suite's outcomes with stacks of one spec and of the default bound."""
    default = checks._ORACLE_CHUNK
    out = []
    for chunk in (1, default):
        mp.setattr(checks, "_ORACLE_CHUNK", chunk)
        out.append(_outcome(suite, grid))
    return out


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("grid", [None, *([point] for point in POINTS)])
def test_stacked_suite_matches_the_per_spec_loop(name, grid):
    suite, reference, default_grid = SUITES[name]
    want = _outcome(reference, grid or default_grid)
    if grid == [(5, 3, 1)] and name == "orbits":
        assert want == ("ExceptionalPrimeError", "orbit analysis needs p >= n-1 (got p=3, n=5)")
    else:
        assert all(r.passed for r in want)
    with pytest.MonkeyPatch.context() as mp:
        assert _stacked_outcomes(mp, suite, grid) == [want, want]


def test_orbits_refuses_p_below_n_minus_1(capsys):
    assert main(["verify", "--suite", "orbits", "--n", "5", "--p", "3", "--N", "1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: orbit analysis needs p >= n-1 (got p=3, n=5)\n")


@given(st.sampled_from(sorted(SUITES)), st.sampled_from(POINTS), st.data())
@settings(max_examples=60, deadline=None)
def test_stacked_suite_matches_the_per_spec_loop_on_a_doctored_table(name, point, data):
    suite, reference, _ = SUITES[name]
    n, p, N = point
    q = p**N
    tail = data.draw(st.sampled_from(list(itertools.product(range(q), repeat=n - 1))))
    i, j, delta = data.draw(st.tuples(
        st.integers(0, n - 1), st.integers(0, q - 1), st.integers(1, q - 1)))

    def doctored(n, pp, exponents):
        # Every table built for the drawn spec, its own or a shifted
        # spec's, has one entry moved, in the stacks and the reference alike.
        tables = build_stack(n, pp, exponents)
        hit = np.all(np.asarray(exponents)[:, 1:] == tail, axis=1)
        tables[hit, i, j] = (tables[hit, i, j] + delta) % q
        return tables

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "build_stack", doctored)
        mp.setattr(standard_form, "build_stack", doctored)
        want = _outcome(reference, [point])
        assert _stacked_outcomes(mp, suite, [point]) == [want, want]
