"""Standard-form representation tables.

The groups handled by this package are

    G_n = < a_1, ..., a_n, b | [a_i, b] = a_{i+1} >,

nilpotent of maximal class n (commutators not forced by the relations
are trivial; a_{n+1} = 1).  An irreducible representation of dimension
p^N can be put, after twisting, in *standard form*: the image y of b is
the p^N-cycle permutation matrix and the images x_i of the a_i are
diagonal.  Writing the j-th diagonal entry of x_i as zeta^E[i][j] for a
primitive p^N-th root zeta, the commutation relation [x_i, y] = x_{i+1}
pins the whole table to the defining column (e_1, ..., e_n) = E[.][1]:

    E[i][j+1] = E[i+1][j+1] + E[i][j]          (mod p^N)
    E[i][j]   = sum_{k=i..n} e_k * T_{k-i}(j-1) (mod p^N)

with T_d the d-simplex numbers.  Twisting normalizes e_1 = 0 and the
cycle's corner scalar to 1.  Here [u, v] = u v u^-1 v^-1 and y acts on
basis vectors by e_j -> e_{j+1} (cyclically); exactly this pairing turns
the relation into the recursion above, and the numerical oracle checks
it on the complex eigenvalues of the x_i.

Columns are 1-indexed and cyclic mod p^N throughout the public API,
mirroring the j = 1..p^N convention of the formulas; internal storage is
0-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InternalCheckError
from .rootlog import PrimePower, check_group_index, check_table_N
from .simplex import simplex_row_mod


@lru_cache(maxsize=None)
def _cached_simplex_rows(p: int, N: int, max_k: int) -> tuple[tuple[int, ...], ...]:
    return simplex_row_mod(max_k, p, N)


@dataclass(frozen=True)
class EigenSpec:
    """Defining data of a standard-form representation.

    ``exponents`` is (e_1, ..., e_n): the discrete logs of the first
    diagonal entries of x_1, ..., x_n.  e_1 = 0 (twist normalization),
    and every e_i lies in [0, p^N); that range is the full answer only
    for p >= n, which is the regime this package supports.
    """

    n: int
    pp: PrimePower
    exponents: tuple[int, ...]

    def __post_init__(self):
        check_group_index(self.n)
        check_table_N(self.pp.N)
        exps = tuple(self.exponents)
        object.__setattr__(self, "exponents", exps)
        if len(exps) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {len(exps)}")
        if exps[0] != 0:
            raise ValueError("e_1 must be 0 (twist normalization)")
        q = self.pp.dim
        for e in exps:
            if not 0 <= e < q:
                raise ValueError(f"exponent {e} out of range [0, {q})")

    @property
    def tail(self) -> tuple[int, ...]:
        """(e_2, ..., e_n) - the part twisting cannot change."""
        return self.exponents[1:]


def spec_from_tail(n: int, pp: PrimePower, tail) -> EigenSpec:
    """Build the normalized spec (0, e_2, ..., e_n) from a tail."""
    return EigenSpec(n, pp, (0, *tail))


@dataclass(frozen=True)
class StandardFormRep:
    """The full n x p^N exponent table of a standard-form representation.

    ``rows[i-1][j-1]`` holds E[i][j].  Row n is constant (x_n is a
    scalar), column 1 is the defining spec, and the cycle's corner
    scalar is normalized to 1.
    """

    spec: EigenSpec
    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def dim(self) -> int:
        return self.spec.pp.dim

    def entry(self, i: int, j: int) -> int:
        """E[i][j] with 1-based i and 1-based cyclic j."""
        if not 1 <= i <= self.n:
            raise ValueError(f"row index {i} out of range [1, {self.n}]")
        return self.rows[i - 1][(j - 1) % self.dim]

    def _rows_from(self, first_row: int) -> tuple[tuple[int, ...], ...]:
        """Rows first_row..n; a first_row outside [1, n] is refused."""
        if not 1 <= first_row <= self.n:
            raise ValueError(f"first_row {first_row} out of range [1, {self.n}]")
        return self.rows[first_row - 1 :]

    def column(self, j: int, first_row: int = 1) -> tuple[int, ...]:
        """The joint eigenvalue exponents (E[first_row][j], ..., E[n][j])."""
        j0 = (j - 1) % self.dim
        return tuple(row[j0] for row in self._rows_from(first_row))

    def columns(self, first_row: int = 1) -> list[tuple[int, ...]]:
        """Every column (rows first_row..n), in order from column 1."""
        return list(zip(*self._rows_from(first_row)))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.spec.pp.p,
            "N": self.spec.pp.N,
            "dim": self.dim,
            "exponents": list(self.spec.exponents),
            "rows": [list(row) for row in self.rows],
            "y_scalar": 1,
        }


def build_stack(n: int, pp: PrimePower, exponents) -> np.ndarray:
    """The exponent tables of a stack of specs of one (n, p, N), as int64 specs x n x p^N.

    ``exponents`` holds one spec's (e_1, ..., e_n) per row.  Row n is
    constant, and the recursion E[i][j+1] = E[i+1][j+1] + E[i][j] makes
    row i its first entry e_i plus the prefix sums of row i+1 from its
    second entry on.  The table guard is checked before anything is built.
    """
    pp.check_guard()
    q = pp.dim
    exps = np.asarray(exponents, dtype=np.int64)
    rows = np.empty((len(exps), n, q), dtype=np.int64)
    rows[:, n - 1] = exps[:, n - 1:]
    for i in range(n - 2, -1, -1):
        # A prefix sum adds at most q - 1 entries below q, so with e_i it
        # stays below q^2 <= 10^12 under the table guard: exact in int64.
        rows[:, i, 0] = 0
        np.cumsum(rows[:, i + 1, 1:], axis=1, out=rows[:, i, 1:])
        rows[:, i] += exps[:, i:i + 1]
        rows[:, i] %= q
    return rows


def build_rep(spec: EigenSpec, validate: bool = True) -> StandardFormRep:
    """Construct the exponent table determined by ``spec``, as a stack of one.

    With ``validate`` every entry is re-derived from the simplex closed
    form, which must agree exactly.  The cyclic wraparound of the
    recursion holds iff ``cycle_constraint_holds`` accepts the spec -
    automatic for p >= n.
    """
    rows = build_stack(spec.n, spec.pp, [spec.exponents])
    if validate:
        _validate_closed_form(spec.pp, [spec.exponents], rows)
    return StandardFormRep(spec, tuple(map(tuple, rows[0].tolist())))


def _validate_closed_form(pp: PrimePower, exponents, tables) -> None:
    """Re-derive every entry of a stack of tables of one (n, p, N) from the closed form.

    ``exponents`` holds each table's defining spec, one row per table.
    Raises ``InternalCheckError`` naming the first entry, in stack order,
    where the stored table and the simplex closed form disagree.
    """
    p, N, q = pp.p, pp.N, pp.dim
    rows = np.asarray(tables, dtype=np.int64)  # specs x n x q
    exps = np.asarray(exponents, dtype=np.int64)[:, :, None]
    n = rows.shape[1]
    tk = np.array(_cached_simplex_rows(p, N, n - 1), dtype=np.int64)
    want = np.empty_like(rows)
    for i in range(n):
        # Reduced after every product, each value stays below (q-1)^2 + q,
        # exact in int64 because the table guard (check_guard) caps q at 10^6.
        acc = np.zeros_like(rows[:, 0])
        for k in range(i, n):
            acc = (acc + exps[:, k] * tk[k - i]) % q
        want[:, i] = acc
    bad = np.argwhere(rows != want)
    if len(bad):
        _, i, j = bad[0]
        raise InternalCheckError(f"recursion and closed form disagree at E[{i + 1}][{j + 1}]")


def distinct_columns(tables: np.ndarray) -> np.ndarray:
    """The number of distinct column tuples of each table of a stack (specs x rows x columns).

    Entries are non-negative, so each column packs into as few int64
    keys as its entries' bit length allows; one lexsort then brings equal
    columns of a spec together.
    """
    specs, rows, q = tables.shape
    cols = tables.transpose(0, 2, 1).reshape(specs * q, rows)
    bits = max(1, int(cols.max()).bit_length())
    per = 63 // bits
    keys = [(cols[:, g:g + per] << (bits * np.arange(min(per, rows - g)))).sum(axis=1)
            for g in range(0, rows, per)]
    # The owning spec is the primary key, so sorting leaves ``owner`` in order.
    owner = np.repeat(np.arange(specs), q)
    order = np.lexsort((*keys, owner))
    new = np.ones(specs * q, dtype=bool)
    new[1:] = owner[1:] != owner[:-1]
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    return np.bincount(owner[new], minlength=specs)


def cycle_constraint_holds(pp: PrimePower, exponents) -> np.ndarray:
    """Per spec of a stack: whether its table closes up around the p^N-cycle.

    ``exponents`` holds one spec's (e_1, ..., e_n) per row.  Row i wraps
    (E[i][1] = E[i+1][1] + E[i][p^N]) iff

        sum_{k=i+2..n} e_k * T_{k-i}(p^N - 1)  ==  0   (mod p^N),

    and every T_d(p^N - 1) with 2 <= d <= n-1 vanishes mod p^N once
    p >= n, so for non-exceptional primes this is automatically true.
    A False entry flags a spec that does not define a representation
    at this prime (only possible for p < n).
    """
    exps = np.asarray(exponents, dtype=np.int64)
    n, q = exps.shape[1], pp.dim
    tk = _cached_simplex_rows(pp.p, pp.N, n - 1)
    holds = np.ones(len(exps), dtype=bool)
    for i in range(1, n):
        # Each product stays below q^2 <= 10^12 under the table guard.
        total = sum(exps[:, k - 1] * tk[k - i][q - 1] for k in range(i + 2, n + 1))
        holds &= total % q == 0
    return holds
