"""Exhaustive property suites behind the ``verify`` CLI command.

Each suite re-checks the structural identities of one layer over a
documented finite grid: full tail-space enumeration per (n, p, N) grid
point.  The default grids are sized so that every suite finishes in
seconds; the CLI can re-point a suite at a single (n, p, N) of its own.
The standard-form, stability, orbit and oracle suites take each grid
point in stacks of tables bounded by ``_ORACLE_CHUNK`` entries
(``_stacks``): each stack is built in one ``build_stack`` call, and its
properties are checked with array operations on the whole stack.  Only
the per-spec accessors a property tests (columns, entries, the depth of
a spec's tail) are read through ``StandardFormRep`` and ``EigenSpec``
objects wrapped from the stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import oracle, zeta
from .counting import closed_form_count, enumerate_isoclasses, expected_census, resolve_budget
from .errors import InternalCheckError
from .orbits import orbit_sizes, shifted_exponents
from .rootlog import (PrimePower, check_family_point, check_table_point, depth_of,
                      validate_grid_point)
from .simplex import SimplexTable, scaled_congruence_holds, simplex
from .stability import irreducible_depth, irreducible_structural, minimal_stable_indices
from .standard_form import (
    EigenSpec,
    StandardFormRep,
    _validate_closed_form,
    build_stack,
    cycle_constraint_holds,
    distinct_columns,
    spec_from_tail,
)

GridPoint = tuple[int, int, int]

# Per-suite default grids; each entry is (n, p, N) and means "all tails".
STANDARD_FORM_GRID: list[GridPoint] = [
    (2, 2, 3),
    (2, 3, 2),
    (3, 3, 2),
    (3, 5, 1),
    (4, 5, 1),
    (5, 5, 1),
]
STABILITY_GRID: list[GridPoint] = [
    (2, 2, 4),
    (2, 3, 3),
    (3, 3, 2),
    (3, 5, 1),
    (4, 5, 1),
    (5, 5, 1),
]
ORBIT_GRID: list[GridPoint] = [
    (3, 5, 1),
    (3, 3, 2),
    (2, 3, 2),
    (4, 5, 1),
    (2, 2, 3),
]
COUNTING_GRID: list[GridPoint] = [
    *((2, 2, N) for N in range(1, 5)),
    *((2, 3, N) for N in range(1, 4)),
    *((3, 3, N) for N in range(1, 4)),
    *((3, 5, N) for N in range(1, 3)),
    *((3, 7, N) for N in range(1, 3)),
    *((4, 5, N) for N in range(1, 3)),
    (5, 5, 1),
    (5, 7, 1),
]
ORACLE_GRID: list[GridPoint] = [
    (2, 2, 2),
    (2, 3, 1),
    (3, 3, 1),
    (2, 2, 3),
    (3, 5, 1),
]
ROOTLOG_CONTEXTS: list[tuple[int, int]] = [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2)]
# Entries in one stack of tables, for all four stacked suites: the oracle
# suite counts matrix entries (specs x n x p^N x p^N), the standard-form,
# stability and orbit suites table entries (specs x n x p^N).  A larger
# spec goes alone.  Oracle stacks of 64 KB keep the peak memory at the
# unbatched suite's: 2^13 entries added 0.7 MB to a `verify` run, and
# 2^18 added 20 MB at (3,7,2).
_ORACLE_CHUNK = 2**12


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


def _stacks(n: int, p: int, N: int, matrices: bool = False):
    """The modulus p^N and the point's specs (0, e_2, ..., e_n), stack by stack.

    Each stack is (exponents, tables): consecutive specs in tail order,
    one per row, and their unvalidated tables from one ``build_stack``
    call.  A stack holds at most ``_ORACLE_CHUNK`` table entries (specs x
    n x p^N), or with ``matrices`` matrix entries (specs x n x p^N x
    p^N), or else one spec.  The point is refused by
    ``check_table_point`` before p^N is built.
    """
    pp = check_table_point(n, p, N, resolve_budget())
    q = pp.dim
    size = max(1, _ORACLE_CHUNK // (n * q ** (2 if matrices else 1)))
    tails = itertools.product(range(q), repeat=n - 1)

    def stacks():
        while chunk := list(itertools.islice(tails, size)):
            exps = np.zeros((len(chunk), n), dtype=np.int64)
            exps[:, 1:] = chunk
            yield exps, build_stack(n, pp, exps)

    return pp, stacks()


def _specs(pp: PrimePower, exps: np.ndarray) -> list[EigenSpec]:
    """The stack's specs as ``EigenSpec`` objects."""
    n = exps.shape[1]
    return [spec_from_tail(n, pp, e[1:]) for e in exps.tolist()]


def _reps(pp: PrimePower, exps: np.ndarray, tables: np.ndarray) -> list[StandardFormRep]:
    """The stack's tables as ``StandardFormRep`` objects, for the per-spec accessors."""
    return [StandardFormRep(spec, tuple(map(tuple, rows)))
            for spec, rows in zip(_specs(pp, exps), tables.tolist())]


def iter_reps(n: int, p: int, N: int):
    """One unvalidated table per spec (0, e_2, ..., e_n), once `check_table_point` passes."""
    pp, stacks = _stacks(n, p, N)
    return (rep for exps, tables in stacks for rep in _reps(pp, exps, tables))


# -- simplex -----------------------------------------------------------------


def suite_simplex(grid=None) -> list[PropertyResult]:
    out = []

    table = SimplexTable.build(8, 64)
    try:
        table.validate()
        ok = True
    except InternalCheckError:
        ok = False
    out.append(PropertyResult("recursion and binomial closed form agree (k<=8, j<=64)", ok))

    ok = all(
        table.value(k, j + 1) == sum(table.value(l, j) for l in range(k + 1))
        for k in range(9)
        for j in range(64)
    )
    out.append(PropertyResult("stacked-sum identity T_k(j+1) = sum_l T_l(j)", ok))

    # Closed-form rows up to the shift congruence's largest argument, 6 * 7^2 + 29.
    T = [[simplex(k, j) for j in range(6 * 7**2 + 30)] for k in range(7)]

    ok = True
    for k in range(7):
        pairs = [(T[l], T[k - l]) for l in range(k + 1)]
        for i in range(21):
            rhs = [0] * 21
            for a, b in pairs:
                x = a[i]
                rhs = [r + x * y for r, y in zip(rhs, b)]
            ok &= T[k][i:i + 21] == rhs
    out.append(PropertyResult("convolution identity T_k(i+j) = sum T_l(i) T_{k-l}(j)", ok))

    ok = True
    for k in range(7):
        scaled = [math.factorial(k) * t for t in T[k][:41]]
        ok &= not any([
            (scaled[i] - scaled[j]) % (i - j)
            for i in range(41)
            for j in range(41)
            if i != j
        ])
    out.append(PropertyResult("difference divisibility (i-j) | k!(T_k(i)-T_k(j))", ok))

    ok = all(
        T[k][alpha * p**b + j] % p**b == T[k][j] % p**b
        for p in (5, 7)
        for k in range(1, p)
        for b in (1, 2)
        for alpha in range(1, p)
        for j in range(0, 30)
    )
    out.append(PropertyResult("shift congruence T_k(a p^b + j) = T_k(j) mod p^b (k < p)", ok))

    ok = all(
        simplex(k, p**N - 1) % p**N == 0
        for p in (5, 7, 11)
        for k in range(2, p)
        for N in (1, 2, 3)
    )
    out.append(
        PropertyResult("vanishing T_k(p^N - 1) = 0 mod p^N (2 <= k < p)", ok)
    )

    ok = all(
        scaled_congruence_holds(k, p, N, m, alpha)
        for p in (3, 5)
        for N in (1, 2, 3)
        for m in range(1, N + 1)
        for k in range(1, p)
        for alpha in (1, 2, p + 1)
    )
    out.append(PropertyResult("scaled-simplex periodicity congruence", ok))

    return out


# -- rootlog -----------------------------------------------------------------


def suite_rootlog(grid=None) -> list[PropertyResult]:
    out = []

    ok = True
    for p, N in ROOTLOG_CONTEXTS:
        q = p**N
        for e in range(q):
            d = depth_of(e, p, N)
            # depth <= k exactly when e * p^k vanishes mod p^N
            memberships = [e * p**k % q == 0 for k in range(N + 1)]
            if [k >= d for k in range(N + 1)] != memberships:
                ok = False
    out.append(PropertyResult("depth matches root-of-unity order membership", ok))

    # The p^k-th roots of unity form a group, so a product is never
    # deeper than its deeper factor.
    ok = True
    for p, N in ROOTLOG_CONTEXTS:
        q = p**N
        depths = np.array([depth_of(e, p, N) for e in range(q)], dtype=np.int64)
        sums = np.add.outer(np.arange(q), np.arange(q)) % q
        ok &= bool(np.all(depths[sums] <= np.maximum.outer(depths, depths)))
    out.append(PropertyResult("product depth bounded by max of factor depths", ok))
    return out


# -- standard form -----------------------------------------------------------


def suite_standard_form(grid=None) -> list[PropertyResult]:
    grid = grid or STANDARD_FORM_GRID
    closed_ok = True
    const_ok = True
    col1_ok = True
    wrap_ok = True
    geom_ok = True
    distinct_ok = True
    checked = 0
    for n, p, N in grid:
        pp, stacks = _stacks(n, p, N)  # refuses the point before p^N is built
        q = pp.dim
        depth_at = np.array([depth_of(e, p, N) for e in range(q)])
        for exps, rows in stacks:  # specs x n, specs x n x q
            checked += len(exps)
            try:
                _validate_closed_form(pp, exps, rows)
            except InternalCheckError:
                closed_ok = False
            # The column and entry reads stay per spec: they are the
            # accessors these properties test.
            chunk = _reps(pp, exps, rows)
            col1_ok &= [rep.column(1) for rep in chunk] == [rep.spec.exponents for rep in chunk]
            const_ok &= bool(np.all(rows[:, n - 1] == exps[:, n - 1:]))
            geom = np.array([[rep.entry(n - 1, j) for j in range(1, q + 1)] for rep in chunk])
            geom_ok &= bool(np.all(geom == (exps[:, n - 2:n - 1]
                                            + exps[:, n - 1:] * np.arange(q)) % q))
            if p < n:
                continue
            wrap_ok &= all(cycle_constraint_holds(rep.spec) for rep in chunk)
            wrap_ok &= bool(np.all(rows[:, :-1, 0] == (rows[:, 1:, 0] + rows[:, :-1, -1]) % q))
            depths = depth_at[exps]
            for i in range(1, n):
                # e_{i+1} primitive and every later entry shallower: row i
                # runs through all p^N residues.
                deepest = (depths[:, i] == N) & np.all(depths[:, i + 1:] <= N - 1, axis=1)
                ordered = np.sort(rows[deepest, i - 1], axis=1)
                distinct_ok &= bool(np.all(np.diff(ordered, axis=1) != 0))
    return [
        PropertyResult("closed form = recursion on every entry", closed_ok, f"{checked} specs"),
        PropertyResult("last row constant (central generator is scalar)", const_ok),
        PropertyResult("column 1 reproduces the defining exponents", col1_ok),
        PropertyResult("cycle wraparound consistent for p >= n", wrap_ok),
        PropertyResult("row n-1 is the geometric progression of e_n", geom_ok),
        PropertyResult("deepest-entry rows have all-distinct predecessors", distinct_ok),
    ]


# -- stability ---------------------------------------------------------------


def suite_stability(grid=None) -> list[PropertyResult]:
    grid = grid or STABILITY_GRID
    equiv_ok = True
    prop_ok = True
    mono_ok = True
    period_ok = True
    checked = 0
    for n, p, N in grid:
        pp, stacks = _stacks(n, p, N)
        for exps, tables in stacks:
            checked += len(exps)
            # Equal columns have equal successors iff each column has one
            # successor: iff pairing columns with their successors
            # leaves the number of distinct columns unchanged.
            pairs = np.concatenate([tables, np.roll(tables, -1, axis=2)], axis=1)
            prop_ok &= np.array_equal(distinct_columns(tables), distinct_columns(pairs))
            # chain[r - 1] is the minimal stable index of rows r..n.
            chain = np.array([minimal_stable_indices(tables, pp, r) for r in range(1, n)])
            mono_ok &= bool(np.all(chain[:-1] >= chain[1:]))
            if p >= n:
                minimal = chain[0]
                equiv_ok &= np.array_equal(irreducible_depth(exps, p), minimal == N)
                max_depth = np.array([spec.max_tail_depth() for spec in _specs(pp, exps)])
                for d in range(N):
                    shallow = tables[max_depth == d]
                    period_ok &= np.array_equal(shallow, np.roll(shallow, -p**d, axis=2))
                period_ok &= bool(np.all(minimal <= max_depth))
    return [
        PropertyResult(
            "depth criterion = structural criterion (p >= n)",
            equiv_ok,
            f"{checked} specs",
        ),
        PropertyResult("column equality propagates one step right", prop_ok),
        PropertyResult("restriction can only lower the minimal stable index", mono_ok),
        PropertyResult("all-shallow specs repeat with period p^(max depth)", period_ok),
    ]


# -- orbits ------------------------------------------------------------------


def _depth_case(spec: EigenSpec) -> tuple[int, int]:
    p, N = spec.pp.p, spec.pp.N
    beyond = max((depth_of(e, p, N) for e in spec.tail[1:]), default=0)
    return spec.max_tail_depth(), beyond


def suite_orbits(grid=None) -> list[PropertyResult]:
    grid = grid or ORBIT_GRID
    law_ok = True
    compose_ok = True
    irr_ok = True
    case_ok = True
    checked = 0
    for n, p, N in grid:
        pp, stacks = _stacks(n, p, N)
        q = pp.dim
        for exps, tables in stacks:
            checked += len(exps)
            try:
                orbit_sizes(tables, pp)  # raises if an orbit size is not p^m
            except InternalCheckError:
                law_ok = False
            # The shifted specs get tables of their own, so the composition
            # is checked against a second, independent table.
            shifted = {a: build_stack(n, pp, shifted_exponents(tables, a))
                       for a in {1, q // 2, q - 1}}
            for a, table in shifted.items():
                compose_ok &= np.array_equal(shifted_exponents(table, 1),
                                             shifted_exponents(tables, (a + 1) % q))
            if p >= n:
                # The one-step shift walks each orbit round, and every spec
                # of the orbit is in the grid, so a verdict that matches its
                # successor's on every spec is constant on every orbit.
                irr_ok &= np.array_equal(irreducible_structural(tables, pp),
                                         irreducible_structural(shifted[1], pp))
                case_ok &= ([_depth_case(spec) for spec in _specs(pp, exps)]
                            == [_depth_case(spec)
                                for spec in _specs(pp, shifted_exponents(tables, 1))])
    return [
        PropertyResult("orbit size = p^(restricted minimal stable index)", law_ok,
                       f"{checked} specs"),
        PropertyResult("shifts compose additively mod p^N", compose_ok),
        PropertyResult("irreducibility is constant on orbits", irr_ok),
        PropertyResult("depth case profile is constant on orbits (p >= n)", case_ok),
    ]


# -- counting ----------------------------------------------------------------


def suite_counting(grid=None) -> list[PropertyResult]:
    grid = grid or COUNTING_GRID
    census_ok = True
    details = []
    for n, p, N in grid:
        report = enumerate_isoclasses(n, p, N)
        census_ok &= report.orbit_census == expected_census(n, p, N)
        if not (
            report.r_enumerated
            == closed_form_count(n, p, N)
            == zeta.count_from_series(n, p, N)
        ):
            details.append(f"({n},{p},{N})")
    return [
        PropertyResult(
            "enumerated = closed form = series on the whole grid",
            not details,
            f"{len(grid)} grid points" + (f"; failed: {details}" if details else ""),
        ),
        PropertyResult("orbit census matches the case-split prediction", census_ok),
    ]


# -- zeta --------------------------------------------------------------------


def suite_zeta(grid=None) -> list[PropertyResult]:
    out = []
    ok = all(zeta.functional_equation_factor(n) == n - 1 for n in range(2, 11))
    out.append(PropertyResult("functional equation with factor p^(n-1), n = 2..10", ok))
    ok = all(zeta.abscissa(n) == Fraction(n - 2) for n in range(3, 11)) and zeta.abscissa(
        2
    ) == Fraction(1)
    out.append(PropertyResult("abscissa n-2 for n >= 3 and 1 for n = 2", ok))
    ok = all(zeta.geometric_assembly(n) == zeta.zeta_closed_form(n) for n in range(2, 9))
    out.append(PropertyResult("geometric-series assembly reduces to the closed form", ok))
    ok = all(
        zeta.middle_term_partial_fractions(n) == zeta.middle_term_product(n)
        for n in range(2, 9)
        if n != 3
    )
    out.append(PropertyResult("partial-fraction middle term matches its product form", ok))
    ok = (
        zeta.series_coefficients(zeta.zeta_closed_form(3), 5, 2) == [1, 8, 56]
        and zeta.series_coefficients(zeta.zeta_closed_form(2), 3, 3) == [1, 2, 6, 18]
        and zeta.series_coefficients(zeta.zeta_closed_form(4), 5, 1) == [1, 28]
    )
    out.append(PropertyResult("series expansions hit the reference values", ok))
    return out


# -- oracle ------------------------------------------------------------------


def suite_oracle(grid=None) -> list[PropertyResult]:
    grid = grid or ORACLE_GRID
    relations_ok = True
    equiv_ok = True
    census_ok = True
    stable_ok = True
    tol_ok = True
    shift_ok = True
    checked = 0
    for n, p, N in grid:
        validate_grid_point(n, p, N)
        pp, stacks = _stacks(n, p, N, matrices=True)
        q = pp.dim
        for exps, tables in stacks:
            checked += len(exps)
            c = oracle.realize(_reps(pp, exps, tables))
            # Each residual is computed once, then read at every tolerance:
            # column 0 for the relations, column 1 + j for the j-th subspace.
            residuals = np.column_stack([
                oracle.relation_residuals(c),
                *(oracle.stability_residual(c, j) for j in range(N + 1))])
            verdicts = residuals <= oracle.DEFAULT_TOL
            relations_ok &= bool(verdicts[:, 0].all())
            tol_ok &= all(np.array_equal(residuals <= tol, verdicts) for tol in (1e-11, 1e-7))
            irreducible = oracle.commutant_dimension(c) == 1
            # One stacked index serves the structural verdict and the subspaces.
            minimal = minimal_stable_indices(tables, pp)
            equiv_ok &= (np.array_equal(irreducible, minimal == N)
                         and np.array_equal(irreducible, irreducible_depth(exps, p)))
            eigenspaces, largest = oracle.mutual_eigenspace_census(c)
            census_ok &= bool(np.all(((eigenspaces == q) & (largest == 1))[irreducible]))
            stable_ok &= np.array_equal(verdicts[:, 1:], np.arange(N + 1) >= minimal[:, None])
            nxt = shifted_exponents(tables, 1)
            shifted = oracle.realize(_reps(pp, nxt, build_stack(n, pp, nxt)))
            shift_ok &= bool(np.all(oracle.realizes_unit_shift(c, shifted)))
    return [
        PropertyResult("matrix relations hold numerically", relations_ok, f"{checked} specs"),
        PropertyResult("commutant dimension 1 = structural = depth criterion", equiv_ok),
        PropertyResult("joint eigenspace census is (p^N, 1) on irreducibles", census_ok),
        PropertyResult("numerical subspace stability matches the minimal index", stable_ok),
        PropertyResult("verdicts stable across tolerances 1e-11..1e-7", tol_ok),
        PropertyResult("cycle conjugation realizes the shift", shift_ok),
    ]


SUITES = {
    "simplex": suite_simplex,
    "rootlog": suite_rootlog,
    "standardform": suite_standard_form,
    "stability": suite_stability,
    "shout": suite_orbits,
    "orbits": suite_orbits,
    "counting": suite_counting,
    "zeta": suite_zeta,
    "oracle": suite_oracle,
}


def run_suite(name: str, n=None, p=None, N=None) -> list[PropertyResult]:
    """Run one suite (or "all"), optionally pinned to a single grid point.

    A pinned n < 2 or non-prime p is refused before any suite runs, and
    so is a pinned p < n, N < 1 or point over the table-cell budget for
    "all", whose counting or table suites would refuse it; a single suite
    pinned at p < n runs.  A suite that raises
    ``InternalCheckError`` has found a broken identity, not bad input:
    it reports as one failed property "<suite>: <message>", and the
    other suites still run.  Every other error, the input refusals among
    them, propagates.
    """
    pins = sum(v is not None for v in (n, p, N))
    if pins not in (0, 3):
        raise ValueError("pin a suite with all of --n, --p and --N, or none")
    grid = [(n, p, N)] if pins else None
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick one of "
                         f"{sorted(SUITES)} or 'all'")
    if pins:
        (validate_grid_point if name == "all" else check_family_point)(n, p, N)
    if pins and name == "all":
        check_table_point(n, p, N, resolve_budget())
    keys = (("simplex", "rootlog", "standardform", "stability", "orbits",
             "counting", "zeta", "oracle") if name == "all" else (name,))
    results = []
    for key in keys:
        try:
            part = SUITES[key](grid)
        except InternalCheckError as exc:
            results.append(PropertyResult(f"{key}: {exc}", False))
            continue
        results.extend(
            PropertyResult(f"{key}: {r.name}", r.passed, r.detail) if name == "all" else r
            for r in part
        )
    return results
