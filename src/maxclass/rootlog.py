"""Exact arithmetic on p^N-th roots of unity via discrete logarithms.

A root of unity lambda = zeta^e (zeta a fixed primitive p^N-th root) is
a plain int exponent e in [0, p^N); multiplying roots adds exponents
mod p^N.  The *depth* of lambda is the least k such that lambda is a
p^k-th root of unity; in exponent terms depth(e) = N - v_p(e) for
e != 0 and depth(0) = 0, and depth N means primitive.  `PrimePower`
carries the modulus p^N and its size guard, and this module holds
every rule on the input (n, p, N).  Nothing in this module (or in any
module that counts) ever touches a complex number: the choice of zeta
is immaterial because every statement is an exact statement about
exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExceptionalPrimeError, GuardExceededError

DEFAULT_TABLE_GUARD = 10**6


def is_prime(n: int) -> bool:
    """Trial-division primality check; fine for the sizes used here."""
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


def check_group_index(n: int) -> None:
    """Refuse an n outside the group family G_n, which starts at n = 2."""
    if n < 2:
        raise ValueError("the group family starts at n = 2")


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
        if self.dim > DEFAULT_TABLE_GUARD:
            raise GuardExceededError(
                f"p^N = {self.dim} exceeds the table guard {DEFAULT_TABLE_GUARD}"
            )


def depth_of(value: int, p: int, N: int) -> int:
    """Depth of zeta^value: 0 for the trivial root, N for primitive."""
    if value == 0:
        return 0
    d = N
    while value % p == 0:
        value //= p
        d -= 1
    return d
