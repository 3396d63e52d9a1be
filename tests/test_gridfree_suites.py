"""The row-wise simplex and rootlog suites against their entry-by-entry loops.

``_reference_simplex`` and ``_reference_rootlog`` are the two suites as
they were written before they shared rows: one ``simplex(k, j)`` or
``depth_of`` call per entry they compare, and the periodicity congruence
checked pointwise, one (m, alpha) at a time.  Both must report the same
verdicts as the suites, on the true values and with one value moved.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxclass import checks, rootlog
from maxclass.checks import ROOTLOG_CONTEXTS, PropertyResult
from maxclass.errors import InternalCheckError
from maxclass.simplex import SimplexTable, scaled_congruence_holds

# The package exports the function simplex under the module's name.
simplex_module = importlib.import_module("maxclass.simplex")


def _pointwise_congruence(k, p, N, m, alpha):
    """a p^m T_k(beta p^(N-m) + j) = a p^m T_k(j) mod p^N, one entry at a time."""
    simplex = simplex_module.simplex
    q, step, scale = p**N, p ** (N - m), alpha * p**m
    for j in range(step):
        base = scale * simplex(k, j) % q
        for beta in range(1, p**m):
            if scale * simplex(k, beta * step + j) % q != base:
                return False
    return True


def _reference_simplex():
    simplex = simplex_module.simplex
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
    out.append(PropertyResult("vanishing T_k(p^N - 1) = 0 mod p^N (2 <= k < p)", ok))

    ok = all(
        _pointwise_congruence(k, p, N, m, alpha)
        for p in (3, 5)
        for N in (1, 2, 3)
        for m in range(1, N + 1)
        for k in range(1, p)
        for alpha in (1, 2, p + 1)
    )
    out.append(PropertyResult("scaled-simplex periodicity congruence", ok))
    return out


def _reference_rootlog():
    ok = True
    for p, N in ROOTLOG_CONTEXTS:
        q = p**N
        for e in range(q):
            d = rootlog.depth_of(e, p, N)
            memberships = [e * p**k % q == 0 for k in range(N + 1)]
            if [k >= d for k in range(N + 1)] != memberships:
                ok = False
    out = [PropertyResult("depth matches root-of-unity order membership", ok)]

    ok = True
    for p, N in ROOTLOG_CONTEXTS:
        q = p**N
        depths = checks._depths(p, N)
        sums = np.add.outer(np.arange(q), np.arange(q)) % q
        ok &= bool(np.all(depths[sums] <= np.maximum.outer(depths, depths)))
    out.append(PropertyResult("product depth bounded by max of factor depths", ok))
    return out


def test_row_suites_match_the_entry_loops():
    for suite, reference in ((checks.suite_simplex, _reference_simplex),
                             (checks.suite_rootlog, _reference_rootlog)):
        want = reference()
        assert all(r.passed for r in want)
        assert suite() == want


def test_scaled_congruence_builds_each_value_once(monkeypatch):
    seen = []
    true_simplex = simplex_module.simplex
    monkeypatch.setattr(simplex_module, "simplex", lambda k, j: seen.append((k, j)) or
                        true_simplex(k, j))
    assert scaled_congruence_holds(2, 5, 3, [(m, a) for m in (1, 2, 3) for a in (1, 2, 6)])
    assert sorted(seen) == [(2, j) for j in range(125)]


def test_suite_simplex_reads_the_recursion_table_once_per_entry(monkeypatch):
    reads = []
    value = SimplexTable.value
    monkeypatch.setattr(SimplexTable, "value", lambda self, k, j: reads.append((k, j)) or
                        value(self, k, j))
    checks.suite_simplex()
    assert sorted(reads) == [(k, j) for k in range(9) for j in range(65)]


@st.composite
def shift_args(draw):
    """An argument a p^b + j of the shift congruence; j = 0 and 29 come up often."""
    p = draw(st.sampled_from([5, 7]))
    alpha, b, j = draw(st.integers(1, p - 1)), draw(st.integers(1, 2)), draw(st.integers(0, 29))
    return draw(st.integers(1, p - 1)), alpha * p**b + j


# Arguments the simplex suite reads: its tables, the arguments of the
# shift congruence, the vanishing points p^N - 1, and the rows of the
# periodicity congruence.
SIMPLEX_ARGS = st.one_of(
    st.tuples(st.integers(0, 8), st.integers(0, 64)),
    st.tuples(st.integers(0, 6), st.integers(0, 6 * 7**2 + 29)),
    shift_args(),
    st.tuples(st.integers(1, 10), st.sampled_from([p**N - 1 for p in (5, 7, 11)
                                                   for N in (1, 2, 3)])),
    st.tuples(st.integers(1, 4), st.integers(0, 124)),
)


@given(SIMPLEX_ARGS, st.sampled_from([-1, 1]))
@settings(max_examples=150, deadline=None)
def test_suite_simplex_matches_the_entry_loop_with_one_value_moved(point, delta):
    true_simplex = simplex_module.simplex

    def moved(k, j):
        return true_simplex(k, j) + delta * ((k, j) == point)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_module, "simplex", moved)
        mp.setattr(checks, "simplex", moved)
        want = _reference_simplex()
        assert checks.suite_simplex() == want


@given(st.sampled_from(ROOTLOG_CONTEXTS), st.data())
@settings(max_examples=80, deadline=None)
def test_suite_rootlog_matches_the_entry_loop_with_one_depth_moved(context, data):
    p, N = context
    e = data.draw(st.integers(0, p**N - 1))
    true_depth_of = rootlog.depth_of
    wrong = data.draw(st.integers(0, N + 1).filter(lambda d: d != true_depth_of(e, p, N)))

    def moved(value, p_, N_):
        return wrong if (value, p_, N_) == (e, p, N) else true_depth_of(value, p_, N_)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootlog, "depth_of", moved)
        mp.setattr(checks, "depth_of", moved)
        want = _reference_rootlog()
        assert not all(r.passed for r in want)
        assert checks.suite_rootlog() == want

