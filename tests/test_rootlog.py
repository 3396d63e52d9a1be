import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxclass.errors import BudgetExceededError, ExceptionalPrimeError, GuardExceededError
from maxclass.rootlog import (
    PrimePower,
    check_family_point,
    check_table_point,
    depth_of,
    is_prime,
    refuse_power,
    validate_grid_point,
)

SMALL_CONTEXTS = [(2, 6), (3, 4), (5, 3), (7, 2), (11, 2)]  # all p^N <= 125


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def _trial_division(n):
    """Reference: the trial-division primality test is_prime used to be."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_agrees_with_trial_division_below_10_to_the_5():
    assert [n for n in range(10**5) if is_prime(n) != _trial_division(n)] == []


# Each n is a strong pseudoprime to every prime base up to some point of
# 2, 3, 5, ..., 41 (3215031751 to 2, 3, 5 and 7), listed with a factor.
STRONG_PSEUDOPRIMES = [
    (2047, 23),
    (1373653, 829),
    (25326001, 2251),
    (3215031751, 151),
    (2152302898747, 6763),
    (3474749660383, 1303),
    (341550071728321, 10670053),
    (3825123056546413051, 149491),
    (318665857834031151167461, 399165290221),
]


@pytest.mark.parametrize("n, factor", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_strong_pseudoprimes(n, factor):
    assert n % factor == 0 and 1 < factor < n
    assert not is_prime(n)
    with pytest.raises(ValueError, match=f"^p={n} is not prime$"):
        PrimePower(n, 1)


def test_is_prime_decides_large_primes_quickly():
    # Trial division took 0.76 s on 10^14 + 31 and could not finish the rest.
    start = time.perf_counter()
    for n in (10**14 + 31, 2**61 - 1, 10**18 + 9, 10**24 + 7):
        assert is_prime(n)
        assert not is_prime(n + 2)
    assert time.perf_counter() - start < 1.0


# 2^89 - 1 is prime, and 3317044064679887385961981, the bound itself, is
# the least strong pseudoprime to all 13 bases (Sorenson and Webster).
BIG_PRIME = 2**89 - 1
PSI_13 = 3317044064679887385961981


def test_is_prime_refuses_what_miller_rabin_cannot_certify():
    start = time.perf_counter()
    for n in (BIG_PRIME, PSI_13):
        with pytest.raises(ValueError, match=f"^p={n} passes Miller-Rabin to the first 13 "
                           f"prime bases, which proves primality only below {PSI_13}$"):
            is_prime(n)
    # A witness or a small factor still proves a large n composite.
    for n in (BIG_PRIME * (2**61 - 1), BIG_PRIME + 2, PSI_13 + 2, 41 * BIG_PRIME):
        assert not is_prime(n)
        with pytest.raises(ValueError, match=f"^p={n} is not prime$"):
            PrimePower(n, 1)
    assert time.perf_counter() - start < 1.0


def test_prime_power_validation():
    assert PrimePower(3, 2).dim == 9
    assert PrimePower(2, 0).dim == 1
    with pytest.raises(ValueError):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(3, -1)
    with pytest.raises(GuardExceededError):
        PrimePower(2, 30).check_guard()
    with pytest.raises(GuardExceededError):
        PrimePower(1009, 2).check_guard()  # just above the 10^6 guard
    PrimePower(997, 2).check_guard()  # just below it
    with pytest.raises(GuardExceededError, match=r"^2\^30 columns exceed the table guard 1000000$"):
        PrimePower(2, 30).check_guard()


class Refused(Exception):
    pass


def refuses(p, e, bound):
    try:
        refuse_power(p, e, bound, "things", Refused)
    except Refused as exc:
        assert str(exc) == f"{p}^{e} things"
        return True
    return False


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([1, 2, 3, 5, 97, 1009]), st.integers(0, 200), st.integers(0, 6))
def test_size_rule_matches_the_plain_comparison(p, e, pick):
    # Bounds at p^e - 1, p^e and p^e + 1, where the bit lengths cannot
    # decide, and the real bounds: the oracle and table guards, the
    # default budget and the exactness bound.
    bound = [p**e - 1, p**e, p**e + 1, 64, 10**6, 10**8, 2**62 - 1][pick]
    assert refuses(p, e, bound) == (p**e > bound)


def test_size_rule_never_builds_a_huge_power():
    start = time.perf_counter()
    assert refuses(5, 10**15, 10**8)
    assert refuses(2, 10**15, 2**62 - 1)
    assert not refuses(1, 10**15, 1)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "n, p, N, budget, error, message",
    [
        (1, 4, 0, 1, ValueError, "the group family starts at n = 2"),
        (3, 4, 0, 1, ValueError, "p=4 is not prime"),
        (3, 5, 0, 1, ValueError, "standard forms need N >= 1"),
        (3, 5, 1, 124, BudgetExceededError,
         r"5\^3 table cells \(5\^2 specs x 5\^1 columns\) exceed the enumeration budget 124"),
    ],
)
def test_table_point_rules_refuse_in_order(n, p, N, budget, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        check_table_point(n, p, N, budget)
    assert check_table_point(3, 5, 1, 125) == PrimePower(5, 1)


@pytest.mark.parametrize(
    "n, p, N, message",
    [
        (1, 4, -1, "the group family starts at n = 2"),
        (3, 4, -1, "p=4 is not prime"),
        (3, 5, -1, "N must be >= 0"),
    ],
)
def test_input_rules_refuse_in_order(n, p, N, message):
    for check in (check_family_point, validate_grid_point):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(n, p, N)


def test_only_the_grid_point_check_refuses_an_exceptional_prime():
    check_family_point(5, 3, 1)
    with pytest.raises(ExceptionalPrimeError, match="^exceptional prime p=3 < n=5"):
        validate_grid_point(5, 3, 1)


def test_depth_examples():
    assert depth_of(0, 3, 2) == 0
    # zeta^3 with zeta a primitive 9th root is a primitive cube root
    assert depth_of(3, 3, 2) == 1
    assert depth_of(1, 3, 2) == 2
    assert depth_of(6, 3, 2) == 1


def test_depth_is_order_membership():
    # depth(e) <= k  iff  e * p^k = 0 mod p^N, exhaustively over p^N <= 125
    for p, N in SMALL_CONTEXTS:
        q = p**N
        for e in range(q):
            d = depth_of(e, p, N)
            for k in range(N + 1):
                assert (e * p**k % q == 0) == (k >= d)


def test_residue_validation_and_depth():
    # every exponent in [0, 9) as a plain int: 0 is trivial, multiples of
    # 3 are cube roots, the rest are primitive 9th roots
    pp = PrimePower(3, 2)
    depths = [depth_of(e, pp.p, pp.N) for e in range(pp.dim)]
    assert depths == [0, 2, 2, 1, 2, 2, 1, 2, 2]


def product_bound_holds(a, b, p, N):
    """depth(zeta^(a+b)) <= max(depth(zeta^a), depth(zeta^b))."""
    q = p**N
    return depth_of((a + b) % q, p, N) <= max(depth_of(a, p, N), depth_of(b, p, N))


def test_product_bound_examples():
    # 3 + 6 = 9 = 0 mod 9: depth drops to 0 <= max(1, 1)
    assert product_bound_holds(3, 6, 3, 2)
    assert product_bound_holds(0, 5, 5, 2)
    assert product_bound_holds(1, 1, 2, 1)


def test_product_bound_exhaustive():
    for p, N in SMALL_CONTEXTS:
        q = p**N
        for a in range(q):
            for b in range(q):
                assert product_bound_holds(a, b, p, N)


@pytest.mark.parametrize("depth", [depth_of, lambda e, p, N: e % 2], ids=["depth_of", "parity"])
def test_suite_product_property_matches_the_pairwise_loop(monkeypatch, depth):
    # The suite compares the whole q x q grid at once; the loop is the reference.
    import maxclass.checks as checks

    monkeypatch.setattr(checks, "depth_of", depth)
    want = all(
        depth((a + b) % p**N, p, N) <= max(depth(a, p, N), depth(b, p, N))
        for p, N in SMALL_CONTEXTS
        for a in range(p**N)
        for b in range(p**N)
    )
    product = checks.suite_rootlog()[1]
    assert product.name == "product depth bounded by max of factor depths"
    assert product.passed == want == (depth is depth_of)
