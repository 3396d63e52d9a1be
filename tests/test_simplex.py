import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxclass.errors import InternalCheckError
from maxclass.simplex import (
    SimplexTable,
    scaled_congruence_holds,
    simplex,
    simplex_row_mod,
)


def reference_simplex(k, j):
    # Independent oracle: the additive recursion, evaluated bottom-up.
    row = [1] * (j + 1)
    for _ in range(k):
        nxt = [0] * (j + 1)
        for i in range(1, j + 1):
            nxt[i] = nxt[i - 1] + row[i]
        row = nxt
    return row[j]


def test_edge_values():
    assert simplex(3, 0) == 0
    assert simplex(0, 7) == 1
    assert simplex(0, 0) == 1
    # T_2(3) = T_2(2) + T_1(3) = (T_2(1) + T_1(2)) + 3 = (1 + 2) + 3 = 6
    assert simplex(2, 3) == 6
    assert simplex(2, 3) == reference_simplex(2, 3)


def test_rejects_negative_arguments():
    with pytest.raises(ValueError):
        simplex(-1, 2)
    with pytest.raises(ValueError):
        simplex(2, -1)


@given(st.integers(0, 8), st.integers(0, 120))
def test_matches_recursion_oracle(k, j):
    assert simplex(k, j) == reference_simplex(k, j)


@given(st.integers(1, 8), st.integers(1, 120))
def test_recursion_identity(k, j):
    assert simplex(k, j) == simplex(k, j - 1) + simplex(k - 1, j)


def test_modular_examples():
    # T_3(4) = C(6,3) = 20, and 20 mod 5 = 0
    assert simplex(3, 4) == 20
    assert simplex(3, 4) % 5 == 0
    assert simplex(2, 0) % 3**2 == 0
    # T_1(j) = j, so 13 mod 9 = 4
    assert simplex(1, 13) % 3**2 == 4


def test_table_invariants():
    table = SimplexTable.build(8, 64)
    table.validate()
    assert table.value(0, 10) == 1
    assert table.value(4, 0) == 0
    # binomial closed form on every entry
    for k in range(9):
        for j in range(65):
            if k == 0:
                expected = 1
            elif j == 0:
                expected = 0
            else:
                expected = math.comb(j + k - 1, k)
            assert table.value(k, j) == expected


def test_table_validate_catches_corruption():
    table = SimplexTable.build(3, 5)
    rows = [list(r) for r in table.values]
    rows[2][3] += 1
    bad = SimplexTable(3, 5, tuple(tuple(r) for r in rows))
    with pytest.raises(InternalCheckError):
        bad.validate()


def test_stacked_sum_identity():
    # T_k(j+1) = T_k(j) + T_{k-1}(j) + ... + T_0(j)
    for k in range(9):
        for j in range(64):
            assert simplex(k, j + 1) == sum(simplex(l, j) for l in range(k + 1))


def test_convolution_identity():
    for k in range(7):
        for i in range(21):
            for j in range(21):
                assert simplex(k, i + j) == sum(
                    simplex(l, i) * simplex(k - l, j) for l in range(k + 1)
                )


def test_difference_divisibility():
    for k in range(7):
        for i in range(41):
            for j in range(41):
                if i != j:
                    assert math.factorial(k) * (simplex(k, i) - simplex(k, j)) % (
                        i - j
                    ) == 0


def test_shift_congruence():
    # T_k(alpha p^b + j) = T_k(j) mod p^b whenever k < p
    for p in (5, 7):
        for k in range(1, p):
            for b in (1, 2):
                for alpha in range(1, p):
                    for j in range(30):
                        assert (
                            simplex(k, alpha * p**b + j) % p**b
                            == simplex(k, j) % p**b
                        )


def test_vanishing_at_full_period():
    # T_k(p^N - 1) = 0 mod p^N for 2 <= k < p.  The k = 1 value is
    # p^N - 1, never 0, so the congruence genuinely starts at k = 2.
    for p in (5, 7, 11):
        for N in (1, 2, 3):
            assert simplex(1, p**N - 1) % p**N == p**N - 1
            for k in range(2, p):
                assert simplex(k, p**N - 1) % p**N == 0


def test_scaled_congruence_examples():
    assert scaled_congruence_holds(1, 5, 2, 1, 2)
    # N = m collapses the j-range to {0}: trivially periodic
    assert scaled_congruence_holds(2, 3, 1, 1, 1)
    with pytest.raises(ValueError):
        scaled_congruence_holds(3, 3, 1, 1, 1)
    with pytest.raises(ValueError):
        scaled_congruence_holds(1, 5, 2, 1, 5)


def test_scaled_congruence_exhaustive():
    for p in (3, 5):
        for N in (1, 2, 3):
            for m in range(1, N + 1):
                for k in range(1, p):
                    for alpha in (1, 2, p + 1):
                        assert scaled_congruence_holds(k, p, N, m, alpha)


def test_row_table_matches_pointwise():
    for p, N in ((3, 2), (5, 1), (2, 4)):
        rows = simplex_row_mod(4, p, N)
        for d in range(5):
            for j in range(p**N):
                assert rows[d][j] == simplex(d, j) % p**N
