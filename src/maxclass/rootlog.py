"""Exact arithmetic on p^N-th roots of unity via discrete logarithms.

A root of unity lambda = zeta^e (zeta a fixed primitive p^N-th root) is
stored as its exponent e in [0, p^N).  The *depth* of lambda is the
least k such that lambda is a p^k-th root of unity; in exponent terms
depth(e) = N - v_p(e) for e != 0 and depth(0) = 0, and depth N means
primitive.  Nothing in this module (or in any module that counts) ever
touches a complex number: the choice of zeta is immaterial because every
statement is an exact statement about exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextMismatchError, ExceptionalPrimeError, GuardExceededError

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


def validate_grid_point(n: int, p: int, N: int) -> None:
    """Refuse an (n, p, N) that no counting method covers.

    Every counting method calls this, so each refuses bad input on its
    own: n < 2, a non-prime p, N < 0, or an exceptional prime p < n.
    """
    if n < 2:
        raise ValueError("the group family starts at n = 2")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if N < 0:
        raise ValueError("N must be >= 0")
    if p < n:
        raise ExceptionalPrimeError(
            f"exceptional prime p={p} < n={n}: counting here requires p >= n"
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

    def check_guard(self, guard: int = DEFAULT_TABLE_GUARD) -> None:
        if self.dim > guard:
            raise GuardExceededError(
                f"p^N = {self.dim} exceeds the table guard {guard}"
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


@dataclass(frozen=True)
class ExponentResidue:
    """A p^N-th root of unity, stored as its exponent mod p^N."""

    value: int
    context: PrimePower

    def __post_init__(self):
        if not 0 <= self.value < self.context.dim:
            raise ValueError(
                f"exponent {self.value} out of range [0, {self.context.dim})"
            )

    @property
    def depth(self) -> int:
        return depth_of(self.value, self.context.p, self.context.N)

    def _require_same_context(self, other: "ExponentResidue") -> None:
        if self.context != other.context:
            raise ContextMismatchError(
                f"cannot combine residues mod {self.context.dim} "
                f"and mod {other.context.dim}"
            )

    def __add__(self, other: "ExponentResidue") -> "ExponentResidue":
        # Multiplication of the underlying roots of unity.
        self._require_same_context(other)
        return ExponentResidue(
            (self.value + other.value) % self.context.dim, self.context
        )

    def __neg__(self) -> "ExponentResidue":
        return ExponentResidue((-self.value) % self.context.dim, self.context)

    def scaled(self, factor: int) -> "ExponentResidue":
        # The underlying root raised to an integer power.
        return ExponentResidue(
            self.value * factor % self.context.dim, self.context
        )


def depth_product_bound(a: ExponentResidue, b: ExponentResidue) -> bool:
    """depth(a*b) <= max(depth(a), depth(b)), exposed as a predicate.

    Always true (the p^max(k_a,k_b)-th roots of unity form a group); kept
    as a testable statement rather than an assumption.
    """
    a._require_same_context(b)
    return (a + b).depth <= max(a.depth, b.depth)
