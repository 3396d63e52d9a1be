"""Exact arithmetic on p^N-th roots of unity via discrete logarithms.

A root of unity lambda = zeta^e (zeta a fixed primitive p^N-th root) is
a plain int exponent e in [0, p^N); multiplying roots adds exponents
mod p^N.  The *depth* of lambda is the least k such that lambda is a
p^k-th root of unity; in exponent terms depth(e) = N - v_p(e) for
e != 0 and depth(0) = 0, and depth N means primitive.  `PrimePower`
carries the modulus p^N and its size guard, and this module holds
every rule on the input (n, p, N), the one size rule `refuse_power`
among them.  Nothing in this module (or in any module that counts) ever
touches a complex number: the choice of zeta is immaterial because
every statement is an exact statement about exponents.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (BudgetExceededError, ExceptionalPrimeError, GuardExceededError,
                     MaxclassError)

DEFAULT_TABLE_GUARD = 10**6
_TABLE_GUARD_TEXT = f"columns exceed the table guard {DEFAULT_TABLE_GUARD}"


# Strong-probable-prime tests to the first 13 primes decide primality
# exactly below 3.3 * 10^24 (Sorenson and Webster, 2015).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below 3.3 * 10^24, trial division above."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    if n >= _MILLER_RABIN_EXACT_BELOW:
        f = 43
        while f * f <= n:
            if n % f == 0:
                return False
            f += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_group_index(n: int) -> None:
    """Refuse an n outside the group family G_n, which starts at n = 2."""
    if n < 2:
        raise ValueError("the group family starts at n = 2")


def check_table_N(N: int) -> None:
    """Refuse N < 1, where no standard-form table exists."""
    if N < 1:
        raise ValueError("standard forms need N >= 1")


def refuse_power(p: int, e: int, bound: int, text: str, error: type[Exception]) -> None:
    """The one size rule: raise ``error("{p}^{e} {text}")`` when p^e > bound.

    With b = p.bit_length(), 2^(e(b-1)) <= p^e <= 2^(eb): only when bound's bit length
    lies between those exponents is p^e built, with under twice bound's bits.
    """
    top, bits = bound.bit_length(), p.bit_length()
    if e * bits >= top and (e * (bits - 1) >= top or p**e > bound):
        raise error(f"{p}^{e} {text}")


def refuse_unprintable_count(n: int, p: int, N: int) -> None:
    """Refuse (n, p, N) when r_{p^N} could have too many digits to print.

    The closed form sums N + 1 terms p^((n-2)N), p^(N + (n-3)l) (1 <= l < N)
    and p^N, each times a fraction in [0, 1), so r_{p^N} <= (N + 1)
    p^(max(n-2, 1) N) at every p >= 1; logarithms bound its digits.
    """
    digits = math.floor(math.log10(N + 1) + max(n - 2, 1) * N * math.log10(p)) + 1
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit and digits > limit:
        raise MaxclassError(f"the count at n={n}, p={p}, N={N} may have {digits} digits, "
                            f"over Python's int-to-str limit of {limit}")


def check_family_point(n: int, p: int, N: int) -> PrimePower:
    """Refuse n < 2, then a non-prime p, then N < 0; return the modulus p^N, even at p < n."""
    check_group_index(n)
    return PrimePower(p, N)


def validate_grid_point(n: int, p: int, N: int) -> None:
    """Refuse an (n, p, N) outside the non-exceptional theory.

    Every counting method and the depth irreducibility test call this,
    so each refuses bad input on its own: n < 2, a non-prime p, N < 0,
    or an exceptional prime p < n, in that order.
    """
    check_family_point(n, p, N)
    if p < n:
        raise ExceptionalPrimeError(
            f"exceptional prime p={p} < n={n}: this toolkit requires p >= n"
        )


def check_table_point(n: int, p: int, N: int, budget: int) -> PrimePower:
    """Refuse a bad (n, p, N), N < 1, then p^(nN) table cells over ``budget``; return p^N."""
    pp = check_family_point(n, p, N)
    check_table_N(N)
    refuse_power(p, n * N, budget, f"table cells ({p}^{(n - 1) * N} specs x {p}^{N} columns) "
                 f"exceed the enumeration budget {budget}", BudgetExceededError)
    return pp


@dataclass(frozen=True)
class PrimePower:
    """The modulus p^N all exponent arithmetic happens in."""

    p: int
    N: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.N < 0:
            raise ValueError("N must be >= 0")

    @property
    def dim(self) -> int:
        return self.p**self.N

    def check_guard(self) -> None:
        refuse_power(self.p, self.N, DEFAULT_TABLE_GUARD, _TABLE_GUARD_TEXT, GuardExceededError)


def depth_of(value: int, p: int, N: int) -> int:
    """Depth of zeta^value: 0 for the trivial root, N for primitive."""
    if value == 0:
        return 0
    d = N
    while value % p == 0:
        value //= p
        d -= 1
    return d
