"""k-simplex numbers and their modular identities.

The k-simplex numbers generalize triangle numbers:

    T_0(j) = 1,   T_k(0) = 0 for k >= 1,
    T_k(j) = T_k(j-1) + T_{k-1}(j),

with closed form T_k(j) = C(j+k-1, k) = j(j+1)...(j+k-1) / k!.

Every diagonal entry of a standard-form eigenvalue table is a product of
the defining eigenvalues raised to T_d(j-1), so these numbers (and their
behaviour mod p^N) drive the whole package.  Residues are taken from
the exact integers: ``simplex_row_mod`` reduces the exact table, and
pointwise checks reduce ``simplex(k, j)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalCheckError


def simplex(k: int, j: int) -> int:
    """T_k(j) as an exact integer."""
    if k < 0 or j < 0:
        raise ValueError("simplex numbers are defined for k >= 0, j >= 0")
    if k == 0:
        return 1
    if j == 0:
        return 0
    return math.comb(j + k - 1, k)


@dataclass(frozen=True)
class SimplexTable:
    """An exact table of T_k(j) for 0 <= k <= max_k, 0 <= j <= max_j."""

    max_k: int
    max_j: int
    values: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, max_k: int, max_j: int) -> "SimplexTable":
        if max_k < 0 or max_j < 0:
            raise ValueError("table bounds must be nonnegative")
        rows = [[1] * (max_j + 1)]
        for _ in range(max_k):
            prev = rows[-1]
            cur = [0] * (max_j + 1)
            for j in range(1, max_j + 1):
                cur[j] = cur[j - 1] + prev[j]
            rows.append(cur)
        return cls(max_k, max_j, tuple(tuple(r) for r in rows))

    def value(self, k: int, j: int) -> int:
        return self.values[k][j]

    def validate(self) -> None:
        """Check the recursion and the binomial closed form on every entry."""
        for k in range(self.max_k + 1):
            for j in range(self.max_j + 1):
                v = self.values[k][j]
                if v != simplex(k, j):
                    raise InternalCheckError(
                        f"table entry ({k},{j})={v} disagrees with the closed form"
                    )
                if k >= 1 and j >= 1:
                    if v != self.values[k][j - 1] + self.values[k - 1][j]:
                        raise InternalCheckError(
                            f"recursion fails at ({k},{j})"
                        )


def simplex_row_mod(max_k: int, p: int, N: int) -> tuple[tuple[int, ...], ...]:
    """All residues T_d(j) mod p^N for 0 <= d <= max_k, 0 <= j < p^N.

    The rows of the exact ``SimplexTable`` reduced mod p^N; one row per
    d.  This is the table the standard-form builder consumes.
    """
    q = p**N
    table = SimplexTable.build(max_k, q - 1)
    return tuple(tuple(v % q for v in row) for row in table.values)


def scaled_congruence_holds(k: int, p: int, N: int, m: int, alpha: int) -> bool:
    """Periodicity of a*p^m*T_k(j-1) mod p^N with period p^(N-m).

    Checks, exhaustively over the full range, that

        a * p^m * T_k(beta*p^(N-m) + j)  ==  a * p^m * T_k(j)   (mod p^N)

    for all 1 <= beta < p^m and 0 <= j <= p^(N-m) - 1.  This is the
    congruence that makes eigenvalue tables built from non-primitive
    roots repeat early, and it needs k! to be a unit, hence k < p.
    """
    if not 1 <= k < p:
        raise ValueError(f"the congruence requires 1 <= k < p (got k={k}, p={p})")
    if not 1 <= m <= N:
        raise ValueError("m must lie in [1, N]")
    if alpha % p == 0:
        raise ValueError("alpha must be coprime to p")
    q = p**N
    step = p ** (N - m)
    scale = alpha * p**m
    for j in range(step):
        base = scale * simplex(k, j) % q
        for beta in range(1, p**m):
            if scale * simplex(k, beta * step + j) % q != base:
                return False
    return True
