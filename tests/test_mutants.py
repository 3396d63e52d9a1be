"""Mutants of the package that the property suites must catch.

Each row edits one file of a copy of ``src/maxclass`` (the old text must
occur exactly once), runs ``verify --suite <suite>`` on the default grid
against the copy in a subprocess, and expects exactly the named
properties to fail.  A suite that raises ``InternalCheckError`` prints
one failed verdict "<suite>: <message>" instead, which its row names in
place of properties.  Together the rows flip every property of the
suites in ``PROPERTIES``.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "maxclass"

PROPERTIES = {
    "simplex": [
        "recursion and binomial closed form agree (k<=8, j<=64)",
        "stacked-sum identity T_k(j+1) = sum_l T_l(j)",
        "convolution identity T_k(i+j) = sum T_l(i) T_{k-l}(j)",
        "difference divisibility (i-j) | k!(T_k(i)-T_k(j))",
        "shift congruence T_k(a p^b + j) = T_k(j) mod p^b (k < p)",
        "vanishing T_k(p^N - 1) = 0 mod p^N (2 <= k < p)",
        "scaled-simplex periodicity congruence",
    ],
    "rootlog": [
        "depth matches root-of-unity order membership",
        "product depth bounded by max of factor depths",
    ],
    "standardform": [
        "closed form = recursion on every entry",
        "last row constant (central generator is scalar)",
        "column 1 reproduces the defining exponents",
        "cycle wraparound consistent for p >= n",
        "row n-1 is the geometric progression of e_n",
        "deepest-entry rows have all-distinct predecessors",
    ],
    "stability": [
        "depth criterion = structural criterion (p >= n)",
        "column equality propagates one step right",
        "restriction can only lower the minimal stable index",
        "all-shallow specs repeat with period p^(max depth)",
    ],
    "orbits": [
        "orbit size = p^(restricted minimal stable index)",
        "shifts compose additively mod p^N",
        "irreducibility is constant on orbits",
        "depth case profile is constant on orbits (p >= n)",
    ],
    "counting": [
        "enumerated = closed form = series on the whole grid",
        "orbit census matches the case-split prediction",
    ],
    "zeta": [
        "functional equation with factor p^(n-1), n = 2..10",
        "abscissa n-2 for n >= 3 and 1 for n = 2",
        "geometric-series assembly reduces to the closed form",
        "partial-fraction middle term matches its product form",
        "series expansions hit the reference values",
    ],
    "oracle": [
        "matrix relations hold numerically",
        "commutant dimension 1 = structural = depth criterion",
        "joint eigenspace census is (p^N, 1) on irreducibles",
        "numerical subspace stability matches the minimal index",
        "verdicts stable across tolerances 1e-11..1e-7",
        "cycle conjugation realizes the shift",
    ],
}

# (file, old text, new text, suite, properties expected to fail)
MUTANTS = [
    # Row 0 of twos doubles every table entry, which keeps every linear
    # identity of the table and breaks only its agreement with the closed form.
    pytest.param(
        "simplex.py", "rows = [[1] * (max_j + 1)]", "rows = [[2] * (max_j + 1)]",
        "simplex", ["recursion and binomial closed form agree (k<=8, j<=64)"],
        id="table-row-0-doubled",
    ),
    pytest.param(
        "simplex.py", "return self.values[k][j]", "return self.values[k - 1][j]",
        "simplex", ["stacked-sum identity T_k(j+1) = sum_l T_l(j)"],
        id="table-value-reads-the-row-below",
    ),
    # An edit of simplex() below j = 65 also breaks the table's agreement
    # with it, and while T_0 = 1 the convolution identity on its grid implies
    # difference divisibility, so these two rows flip more than one property.
    pytest.param(
        "simplex.py", "    if k == 0:\n        return 1\n", "    if k == 0:\n        return 2\n",
        "simplex", ["recursion and binomial closed form agree (k<=8, j<=64)",
                    "convolution identity T_k(i+j) = sum T_l(i) T_{k-l}(j)"],
        id="simplex-row-0-is-2",
    ),
    pytest.param(
        "simplex.py", "return math.comb(j + k - 1, k)", "return math.comb(j + k, k)",
        "simplex", ["recursion and binomial closed form agree (k<=8, j<=64)",
                    "convolution identity T_k(i+j) = sum T_l(i) T_{k-l}(j)",
                    "difference divisibility (i-j) | k!(T_k(i)-T_k(j))",
                    "shift congruence T_k(a p^b + j) = T_k(j) mod p^b (k < p)",
                    "scaled-simplex periodicity congruence"],
        id="simplex-reads-one-column-late",
    ),
    # Wrong only past the table's range: the shift congruence reads its
    # closed-form values up to j = 6 * 7^2 + 29 and must still see it.
    pytest.param(
        "simplex.py", "return math.comb(j + k - 1, k)",
        "return math.comb(j + k - 1, k) + (j > 64)",
        "simplex", ["shift congruence T_k(a p^b + j) = T_k(j) mod p^b (k < p)",
                    "vanishing T_k(p^N - 1) = 0 mod p^N (2 <= k < p)",
                    "scaled-simplex periodicity congruence"],
        id="simplex-off-past-j-64",
    ),
    pytest.param(
        "simplex.py", "scale = alpha * p**m", "scale = alpha * p ** (m - 1)",
        "simplex", ["scaled-simplex periodicity congruence"],
        id="scaled-congruence-scale-one-power-low",
    ),
    # One level too deep on every nonzero exponent: the depths still rank
    # the exponents as the true depths do, so the product bound holds.
    pytest.param(
        "rootlog.py", "    d = N\n", "    d = N + 1\n",
        "rootlog", ["depth matches root-of-unity order membership"],
        id="depth-one-level-too-deep",
    ),
    # The product bound is a theorem about the true depth, and the
    # membership property pins depth_of on every exponent the bound
    # reads, so no mutant of depth_of flips the bound alone.  Here
    # zeta^a zeta^-a = 1 comes out deeper than two non-primitive factors.
    pytest.param(
        "rootlog.py", "    if value == 0:\n        return 0\n",
        "    if value == 0:\n        return N\n",
        "rootlog", ["depth matches root-of-unity order membership",
                    "product depth bounded by max of factor depths"],
        id="trivial-root-counted-primitive-rootlog",
    ),
    # E[i][j+1] = E[i+1][j] + E[i][j]: the closed form and the wraparound
    # see it, while row n-1 still reads the constant row n.
    pytest.param(
        "standard_form.py", "np.cumsum(rows[:, i + 1, 1:], axis=1",
        "np.cumsum(rows[:, i + 1, :-1], axis=1",
        "standardform", ["closed form = recursion on every entry",
                         "cycle wraparound consistent for p >= n"],
        id="recursion-reads-row-above-one-column-late",
    ),
    pytest.param(
        "standard_form.py", "for k in range(i + 2, n + 1)", "for k in range(i + 1, n + 1)",
        "standardform", ["cycle wraparound consistent for p >= n"],
        id="cycle-constraint-from-i-plus-1",
    ),
    pytest.param(
        "checks.py", "rows[:, :, 0]", "rows[:, :, 1]",
        "standardform", ["column 1 reproduces the defining exponents"],
        id="column-reads-one-right",
    ),
    pytest.param(
        "checks.py", "rows[:, n - 2]", "np.roll(rows[:, n - 2], -1, axis=1)",
        "standardform", ["row n-1 is the geometric progression of e_n"],
        id="entry-reads-one-right",
    ),
    pytest.param(
        "standard_form.py", "    rows[:, n - 1] = exps[:, n - 1:]\n",
        "    rows[:, n - 1] = exps[:, n - 1:]\n    rows[:, n - 1, -1] = 0\n",
        "standardform", ["closed form = recursion on every entry",
                         "last row constant (central generator is scalar)",
                         "cycle wraparound consistent for p >= n",
                         "row n-1 is the geometric progression of e_n",
                         "deepest-entry rows have all-distinct predecessors"],
        id="last-row-ends-in-zero",
    ),
    pytest.param(
        "rootlog.py", "    if value == 0:\n        return 0\n",
        "    if value == 0:\n        return N\n",
        "standardform", ["deepest-entry rows have all-distinct predecessors"],
        id="trivial-root-counted-primitive",
    ),
    pytest.param(
        "stability.py", "np.any(exponents[:, 1:] % p", "np.any(exponents[:, 2:] % p",
        "stability", ["depth criterion = structural criterion (p >= n)"],
        id="depth-criterion-skips-e2",
    ),
    # Only where e_n is a unit, so every restriction keeps index N and no
    # drift check trips before the propagation property sees the table.
    pytest.param(
        "standard_form.py",
        "    return rows\n",
        "    unit = exps[:, -1] % pp.p != 0\n"
        "    rows[unit, :, -1] = rows[unit, :, -2]\n"
        "    return rows\n",
        "stability", ["column equality propagates one step right"],
        id="last-column-repeated",
    ),
    # The restriction to rows 2..n reads row n alone.  The index of rows
    # 2..n then drops below that of rows 3..n, while the full index still
    # bounds every restriction: only the whole chain r = 1..n-1 sees it.
    pytest.param(
        "stability.py", "cols = tables[:, first_row - 1:]",
        "cols = tables[:, (tables.shape[1] - 1 if first_row == 2 else first_row - 1):]",
        "stability", ["restriction can only lower the minimal stable index"],
        id="restriction-to-row-2-reads-row-n",
    ),
    pytest.param(
        "checks.py", "depth_at[exps[:, 1:]].max(axis=1)", "depth_at[exps[:, 1:]].min(axis=1)",
        "stability", ["all-shallow specs repeat with period p^(max depth)"],
        id="max-tail-depth-takes-min",
    ),
    pytest.param(
        "orbits.py", "minimal_stable_indices(tables, pp, first_row=2)",
        "minimal_stable_indices(tables, pp, first_row=1)",
        "orbits", ["orbit size = p^(restricted minimal stable index)"],
        id="orbit-law-unrestricted",
    ),
    pytest.param(
        "orbits.py", "tables[:, 1:, offset % tables.shape[2]]",
        "tables[:, 1:, (offset + 1) % tables.shape[2]]",
        "orbits", ["shifts compose additively mod p^N"],
        id="shift-off-by-one",
    ),
    # A verdict computed from the table alone is a function of the
    # shift-invariant minimal stable index, so it has to read the spec's
    # exponents (column 1 of the table) to vary along an orbit.
    pytest.param(
        "stability.py", "    return minimal_stable_indices(tables, pp) == pp.N\n",
        "    return (minimal_stable_indices(tables, pp) == pp.N) != (tables[:, 1, 0] == 0)\n",
        "orbits", ["irreducibility is constant on orbits"],
        id="verdict-reads-e2",
    ),
    pytest.param(
        "checks.py", "depths.max(axis=2)", "depths.min(axis=2)",
        "orbits", ["depth case profile is constant on orbits (p >= n)"],
        id="depth-case-takes-min",
    ),
    pytest.param(
        "counting.py", "    total += unit_frac * p**N\n", "    total += unit_frac * p**N + 1\n",
        "counting", ["enumerated = closed form = series on the whole grid"],
        id="closed-form-off-by-one",
    ),
    pytest.param(
        "counting.py", "census.get(1, 0) + units", "census.get(1, 0) + units + 1",
        "counting", ["orbit census matches the case-split prediction"],
        id="census-one-extra-fixed-point",
    ),
    # The rest walk: each rest stands for q tails with a unit entry and
    # q - q/p without one.  Swapped, the first n >= 3 point leaves 4
    # tails of period 3 at (3,3,1); dropped, every count falls short.
    pytest.param(
        "counting.py", "for weight, kept in ((q, unit), (q - q // p, ~unit)):",
        "for weight, kept in ((q - q // p, unit), (q, ~unit)):",
        "counting", ["counting: orbit size law violated: 4 tails of period 3 do not fill "
                     "whole orbits (p=3, N=1)"],
        id="rest-weights-swapped",
    ),
    pytest.param(
        "counting.py", "for weight, kept in ((q, unit), (q - q // p, ~unit)):",
        "for weight, kept in ((q, unit),):",
        "counting", ["enumerated = closed form = series on the whole grid",
                     "orbit census matches the case-split prediction"],
        id="rests-without-a-unit-dropped",
    ),
    # A step difference that reads e_2 would make a rest's period
    # depend on the e_2 it stands for; the column-0 check refuses it.
    pytest.param(
        "counting.py", "if c > r else 0", "if c > r else int(r > c == 0)",
        "counting", ["counting: A^1 - I mod 3, A the column step, has a nonzero column 0, "
                     "so a period would depend on e_2"],
        id="step-difference-reads-e2",
    ),
    # The series expansion feeds both suites: the counting agreement and
    # the reference coefficients.
    pytest.param(
        "zeta.py", "for m in range(b, n_max + 1):", "for m in range(b + 1, n_max + 1):",
        "counting", ["enumerated = closed form = series on the whole grid"],
        id="series-recurrence-starts-late-counting",
    ),
    pytest.param(
        "zeta.py", "for m in range(b, n_max + 1):", "for m in range(b + 1, n_max + 1):",
        "zeta", ["series expansions hit the reference values"],
        id="series-recurrence-starts-late-zeta",
    ),
    pytest.param(
        "zeta.py", "return k if", "return k + 1 if",
        "zeta", ["functional equation with factor p^(n-1), n = 2..10"],
        id="functional-equation-k-shifted",
    ),
    pytest.param(
        "zeta.py", "return max(rates)", "return min(rates)",
        "zeta", ["abscissa n-2 for n >= 3 and 1 for n = 2"],
        id="abscissa-takes-min",
    ),
    pytest.param(
        "zeta.py", "mono(1, 1, 1) - mono(1, 0, 1)", "mono(1, 1, 1) - mono(2, 0, 1)",
        "zeta", ["geometric-series assembly reduces to the closed form"],
        id="assembly-last-numerator",
    ),
    pytest.param(
        "zeta.py", "pt = BivariatePolynomial.monomial(1, 1, 1)",
        "pt = BivariatePolynomial.monomial(1, 2, 1)",
        "zeta", ["partial-fraction middle term matches its product form"],
        id="partial-fractions-numerator",
    ),
    # y diag(v) y^-1 is diag(roll(v, 1)); rolled the other way, the
    # commutators come out O(1) wrong, far from every tolerance.
    pytest.param(
        "oracle.py", "np.roll(lower.conj(), 1, axis=-1)", "np.roll(lower.conj(), -1, axis=-1)",
        "oracle", ["matrix relations hold numerically"],
        id="commutator-rolls-the-wrong-way",
    ),
    # Summed over the columns of each cyclic diagonal instead of within
    # it, every nonconstant spec has nullity 0 and none reads as
    # irreducible; the census is then judged on no spec at all.
    pytest.param(
        "oracle.py", "axis=(-3, -1)", "axis=(-3, -2)",
        "oracle", ["commutant dimension 1 = structural = depth criterion"],
        id="commutant-sums-the-wrong-axis",
    ),
    pytest.param(
        "oracle.py", "axis=1) <= DEFAULT_TOL", "axis=1) <= 1.5",
        "oracle", ["joint eigenspace census is (p^N, 1) on irreducibles"],
        id="census-tolerance-literal",
    ),
    # The mean over the residue classes' members, taken over the classes
    # instead: the whole space (one member per class) leaks.
    pytest.param(
        "oracle.py", "classes.mean(axis=-2, keepdims=True)",
        "classes.mean(axis=-1, keepdims=True)",
        "oracle", ["numerical subspace stability matches the minimal index"],
        id="class-mean-over-the-wrong-axis",
    ),
    # pi to ten decimals: an exponent that wraps mod p^N leaves a
    # residual of about 1e-10, inside the default tolerance but not 1e-11.
    pytest.param(
        "oracle.py", "np.exp(2j * np.pi * rows", "np.exp(2j * 3.1415926535 * rows",
        "oracle", ["verdicts stable across tolerances 1e-11..1e-7"],
        id="pi-to-ten-decimals",
    ),
    pytest.param(
        "oracle.py", "np.roll(c.eig, -1, axis=-1)", "np.roll(c.eig, 1, axis=-1)",
        "oracle", ["cycle conjugation realizes the shift"],
        id="conjugation-rolls-the-wrong-way",
    ),
]


@pytest.mark.parametrize("file, old, new, suite, expected", MUTANTS)
def test_suite_catches_the_mutant(tmp_path, file, old, new, suite, expected):
    package = tmp_path / "maxclass"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / file
    text = path.read_text()
    assert text.count(old) == 1, f"{file} no longer holds the mutated text once"
    path.write_text(text.replace(old, new))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "maxclass.cli", "verify", "--suite", suite],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    verdicts = {}
    for line in proc.stdout.splitlines()[:-1]:
        status, name = re.fullmatch(
            r"\[(PASS|FAIL)\] (.*?)(?: \(\d+ (?:specs|grid points.*)\))?", line).groups()
        verdicts[name] = status
    raised = not set(expected) <= set(PROPERTIES[suite])
    assert list(verdicts) == (expected if raised else PROPERTIES[suite]), proc.stdout + proc.stderr
    assert [name for name, status in verdicts.items() if status == "FAIL"] == expected
    assert proc.returncode == 1


def test_every_property_is_flipped_by_some_mutant():
    flipped = {(row.values[3], name) for row in MUTANTS for name in row.values[4]
               if name in PROPERTIES[row.values[3]]}
    assert flipped == {(suite, name) for suite, names in PROPERTIES.items() for name in names}
