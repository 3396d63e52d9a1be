"""Acceptance suite: the package's headline guarantees, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion (stdout is captured otherwise).
"""

import time
from fractions import Fraction

from reps import iter_reps

from maxclass import checks, oracle
from maxclass.counting import closed_form_count, enumerate_isoclasses, expected_census
from maxclass.orbits import shift_orbit
from maxclass.stability import (
    is_irreducible_depth,
    is_irreducible_structural,
    minimal_stable_index,
)
from maxclass.zeta import (
    BivariatePolynomial,
    abscissa,
    count_from_series,
    functional_equation_factor,
    zeta_closed_form,
)

COUNTING_GRID = [
    *((2, 2, N) for N in range(0, 5)),
    *((2, 3, N) for N in range(0, 4)),
    *((3, 3, N) for N in range(0, 4)),
    *((3, 5, N) for N in range(0, 3)),
    *((3, 7, N) for N in range(0, 3)),
    *((4, 5, N) for N in range(0, 3)),
    (5, 5, 1),
    (5, 7, 1),
]
ORBIT_GRID = [(3, 5, 1), (3, 3, 2), (2, 3, 2), (4, 5, 1), (2, 2, 3)]
EQUIVALENCE_GRID = [
    *((2, 2, N) for N in range(1, 6)),
    *((2, 3, N) for N in range(1, 4)),
    *((3, 3, N) for N in range(1, 4)),
    (3, 5, 1),
    (4, 5, 1),
    (5, 5, 1),
]
SPOT_VALUES = {(3, 5, 1): 8, (3, 5, 2): 56, (2, 3, 2): 6, (4, 5, 1): 28}


def _criterion(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_triple_agreement():
    start = time.perf_counter()
    failures = []
    for n, p, N in COUNTING_GRID:
        report = enumerate_isoclasses(n, p, N)
        counts = (
            report.r_enumerated, closed_form_count(n, p, N), count_from_series(n, p, N)
        )
        if len(set(counts)) != 1:
            failures.append(((n, p, N), counts))
        want = SPOT_VALUES.get((n, p, N))
        if want is not None and report.r_enumerated != want:
            failures.append(((n, p, N), report.r_enumerated, want))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _criterion(
        "1 triple-agreement counting",
        ok,
        f"{len(COUNTING_GRID)} grid points in {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_2_functional_equation():
    start = time.perf_counter()
    ok = all(functional_equation_factor(n) == n - 1 for n in range(2, 11))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _criterion("2 functional equation", ok, f"n = 2..10 in {elapsed * 1000:.0f}ms")


def test_criterion_3_abscissa():
    ok = abscissa(2) == Fraction(1)
    ok = ok and all(abscissa(n) == Fraction(n - 2) for n in range(3, 11))
    # n = 2 must reach its abscissa through the (1 - t) cancellation:
    mono = BivariatePolynomial.monomial
    z2 = zeta_closed_form(2)
    ok = ok and z2.den_factors == ((1, 1),)
    ok = ok and z2.num == mono(1) - mono(1, 0, 1)
    _criterion("3 abscissa of convergence", ok)


def test_criterion_4_orbit_size_law():
    bad = []
    total = 0
    for n, p, N in ORBIT_GRID:
        for rep in iter_reps(n, p, N):
            total += 1
            orbit = shift_orbit(rep)
            if len(orbit) != p ** minimal_stable_index(rep, first_row=2):
                bad.append(rep.spec)
    _criterion(
        "4 orbit-size law",
        not bad,
        f"{total} tails over {len(ORBIT_GRID)} grids",
    )


def test_criterion_5_irreducibility_equivalence():
    start = time.perf_counter()
    bad = []
    total = 0
    for n, p, N in EQUIVALENCE_GRID:
        for rep in iter_reps(n, p, N):
            spec = rep.spec
            total += 1
            c = oracle.realize(rep)
            residual_ok = oracle.relation_residuals(c) < 1e-9
            depth_irr = is_irreducible_depth(spec)
            structural_irr = is_irreducible_structural(rep)
            commutant = oracle.commutant_dimension(c)
            agree = depth_irr == structural_irr == (commutant == 1)
            census_ok = True
            if commutant == 1:
                census_ok = oracle.mutual_eigenspace_census(c) == (p**N, 1)
            if not (residual_ok and agree and census_ok):
                bad.append((spec.exponents, p, N))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 300.0
    _criterion(
        "5 irreducibility equivalence",
        ok,
        f"{total} specs in {elapsed:.1f}s" + (f"; failures: {bad[:3]}" if bad else ""),
    )


def test_criterion_6_simplex_properties():
    results = checks.suite_simplex()
    bad = [r.name for r in results if not r.passed]
    _criterion(
        "6 simplex identities",
        not bad,
        f"{len(results)} properties" + (f"; failed: {bad}" if bad else ""),
    )


def test_criterion_7_census_structure():
    bad = []
    for n, p, N in COUNTING_GRID:
        report = enumerate_isoclasses(n, p, N)
        if report.orbit_census != expected_census(n, p, N):
            bad.append((n, p, N, report.orbit_census))
    _criterion(
        "7 orbit census structure",
        not bad,
        f"{len(COUNTING_GRID)} grid points" + (f"; failures: {bad}" if bad else ""),
    )
