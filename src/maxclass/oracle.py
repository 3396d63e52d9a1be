"""Floating-point cross-checks on actual complex matrices.

Everything else in the package reasons about exponent tables; this
module is the independent referee.  It materializes a standard-form
table as honest complex matrices (diagonal x_i with root-of-unity
entries, y the p^N-cycle permutation), then re-derives the structural
facts numerically:

* the defining relations [x_i, y] = x_{i+1} (with [u,v] = u v u^-1 v^-1
  and y: e_j -> e_{j+1}) and centrality/scalarity of x_n;
* irreducibility, via the dimension of the joint commutant;
* the joint eigenspace structure of the diagonal part (count and sizes);
* stability of the candidate subspaces, from their spanning vectors.
* that conjugating by a cycle power, then twisting, gives the table of
  the shifted spec (the orbit layer's reading of the columns).

Floating point is confined to this module on purpose: it must not share
code paths with the exact machinery it is checking, so subspace bases
are built from their definition and commutants from linear algebra, not
from column-tuple bookkeeping.

Each piece of floating-point work is done once: the orthonormal basis
of each candidate subspace is cached per (p, N, j).  The commutant
needs no SVD: restricted to the cycle commutant, the stacked commutator
operator has pairwise orthogonal columns, so its singular values are
its column norms.  The SVD of that operator, built on
`_cycle_commutant_basis`, lives only in the test suite, as a
differential check of that fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GuardExceededError
from .standard_form import StandardFormRep

DEFAULT_ORACLE_GUARD = 64
DEFAULT_TOL = 1e-9
SV_THRESHOLD = 1e-8


@dataclass(frozen=True)
class ComplexRep:
    """Matrices of a standard-form representation, plus a tolerance."""

    p: int
    N: int
    xs: tuple[np.ndarray, ...]
    y: np.ndarray
    tol: float = DEFAULT_TOL

    @property
    def dim(self) -> int:
        return self.p**self.N

    @property
    def n(self) -> int:
        return len(self.xs)


def _cycle_matrix(dim: int) -> np.ndarray:
    """The dim-cycle: ones on the subdiagonal, corner entry 1."""
    return np.roll(np.eye(dim, dtype=complex), 1, axis=0)


def realize(rep: StandardFormRep) -> ComplexRep:
    """Turn an exponent table into complex matrices at tolerance DEFAULT_TOL.

    Entry j of x_i is exp(2*pi*i * E[i][j] / p^N); y sends basis vector
    e_j to e_{j+1} cyclically.
    """
    dim = rep.dim
    if dim > DEFAULT_ORACLE_GUARD:
        raise GuardExceededError(f"dim {dim} exceeds the oracle guard {DEFAULT_ORACLE_GUARD}")
    xs = tuple(
        np.diag(np.exp(2j * np.pi * np.array(row, dtype=float) / dim))
        for row in rep.rows
    )
    pp = rep.spec.pp
    return ComplexRep(p=pp.p, N=pp.N, xs=xs, y=_cycle_matrix(dim))


def relation_residuals(c: ComplexRep) -> list[tuple[str, float]]:
    """Max-entry residual of every defining relation.

    Diagonal unitaries invert by conjugation and y by transposition, so
    the commutators are exact matrix products.
    """
    y = c.y
    y_inv = y.T.conj()
    out = []
    for i, x in enumerate(c.xs[:-1], start=1):
        x_inv = x.conj()
        comm = x @ y @ x_inv @ y_inv
        out.append((f"[x_{i}, y] = x_{i + 1}", float(np.max(np.abs(comm - c.xs[i])))))
    xn = c.xs[-1]
    out.append((f"x_{c.n} central", float(np.max(np.abs(xn @ y - y @ xn)))))
    scalar = xn[0, 0] * np.eye(c.dim)
    out.append((f"x_{c.n} scalar", float(np.max(np.abs(xn - scalar)))))
    return out


def check_relations(c: ComplexRep) -> bool:
    """All defining relations hold to within c.tol."""
    return all(res <= c.tol for _, res in relation_residuals(c))


def realizes_unit_shift(c: ComplexRep, shifted: ComplexRep) -> bool:
    """Whether ``shifted`` is ``c`` conjugated by y, then twisted.

    y^-1 x_i y must match x_i of ``shifted`` within c.tol for i >= 2;
    x_1 may differ by one scalar, the twist that renormalizes e_1 to 0.
    """
    conjugated = [c.y.T @ x @ c.y for x in c.xs]  # y^-1 = y^T
    twist = shifted.xs[0][0, 0] / conjugated[0][0, 0]
    conjugated[0] = twist * conjugated[0]
    return all(np.max(np.abs(u - v)) <= c.tol for u, v in zip(conjugated, shifted.xs))


@lru_cache(maxsize=None)
def _cycle_commutant_basis(dim: int) -> np.ndarray:
    """Orthonormal basis of {A : Ay = yA} as a read-only dim^2 x dim matrix.

    The commutant of a single dim-cycle is spanned by its powers (the
    minimal polynomial t^dim - 1 is squarefree, so the commutant has
    dimension dim); the powers have disjoint supports, hence are
    orthogonal, and dividing by sqrt(dim) normalizes them.  The oracle
    itself needs only the orthogonality; the tests build the stacked
    operator on this basis and take its SVD.
    """
    y = _cycle_matrix(dim)
    cols = []
    power = np.eye(dim, dtype=complex)
    for _ in range(dim):
        cols.append(power.reshape(-1) / np.sqrt(dim))
        power = y @ power
    basis = np.stack(cols, axis=1)
    basis.setflags(write=False)
    return basis


def _commutant_singular_values(c: ComplexRep) -> np.ndarray:
    """Singular values of the stacked operator, indexed by cycle power k.

    The y-operator's kernel is the cycle commutant, spanned by the
    powers y^k / sqrt(dim) (see `_cycle_commutant_basis`).  On y^k the
    map A -> x_i A - A x_i scales entry (c + k, c) by x_i[c + k] - x_i[c],
    so column k of the stacked operator lives on the k-th cyclic
    diagonal.  Distinct diagonals are disjoint, the columns are pairwise
    orthogonal, and the singular values are the column norms:

        sigma_k^2 = sum_i sum_c |x_i[c + k] - x_i[c]|^2 / dim.
    """
    eig = np.stack([np.diag(x) for x in c.xs])  # n x dim
    shifted = (np.arange(c.dim)[:, None] + np.arange(c.dim)) % c.dim  # [k, c] -> c + k
    gaps = eig[:, shifted] - eig[:, None, :]  # n x dim (k) x dim (c)
    return np.sqrt(np.sum(gaps.real**2 + gaps.imag**2, axis=(0, 2)) / c.dim)


def commutant_dimension(c: ComplexRep) -> int:
    """dim {A : A commutes with every x_i and with y}.

    This is the joint nullity of the stacked operators A -> gA - Ag over
    the generators, read off singular values (sigma below SV_THRESHOLD *
    sigma_max counts as zero).  Restricted to the y-operator's kernel,
    the stacked operator has pairwise orthogonal columns, so its
    singular values are the column norms (`_commutant_singular_values`)
    and no SVD is taken; the tests check the two against each other.

    A value of 1 certifies irreducibility.
    """
    if c.dim > DEFAULT_ORACLE_GUARD:
        raise GuardExceededError(
            f"dim {c.dim} exceeds the oracle guard {DEFAULT_ORACLE_GUARD}"
        )
    sigmas = _commutant_singular_values(c)
    top = sigmas.max()
    if top == 0.0:
        return c.dim
    return int(np.sum(sigmas < SV_THRESHOLD * top))


def mutual_eigenspace_census(c: ComplexRep) -> tuple[int, int]:
    """(number of joint eigenspaces of the x_i, largest dimension).

    Basis vectors are grouped by their joint eigenvalue signature across
    x_1..x_n, two signatures counting as equal when every component is
    within c.tol.  Each vector joins the first class whose first member
    is that close to it, or starts a new class.  Requires an irreducible
    input (checked through the commutant); the expected answer is then
    (p^N, 1).
    """
    if commutant_dimension(c) != 1:
        raise ValueError("mutual eigenspace census expects an irreducible input")
    sigs = np.stack([np.diag(x) for x in c.xs], axis=1)  # dim x n
    close = np.max(np.abs(sigs[:, None, :] - sigs[None, :, :]), axis=2) <= c.tol
    firsts: list[int] = []
    sizes: list[int] = []
    for j in range(c.dim):
        hits = np.flatnonzero(close[firsts, j])
        if hits.size:
            sizes[hits[0]] += 1
        else:
            firsts.append(j)
            sizes.append(1)
    return len(firsts), max(sizes)


@lru_cache(maxsize=None)
def _stable_basis(p: int, N: int, j: int) -> np.ndarray:
    """Spanning vectors of the j-th candidate subspace, as read-only columns.

    The seed vector is the sum of basis vectors 1, p^j + 1, 2 p^j + 1,
    ...; the cycle orbit of the seed closes after p^j steps, giving a
    p^j-dimensional space.  Shift s of the seed has ones exactly at the
    rows congruent to s mod p^j, so the columns are p^(N-j) stacked
    copies of the p^j identity.  The shifts have disjoint supports of
    size p^(N-j), so dividing by sqrt(p^(N-j)) makes them orthonormal.
    """
    copies = p ** (N - j)
    basis = np.tile(np.eye(p**j, dtype=complex), (copies, 1)) / np.sqrt(copies)
    basis.setflags(write=False)
    return basis


def subspace_is_stable(c: ComplexRep, j: int) -> bool:
    """Whether every generator maps the j-th candidate subspace into itself.

    The basis is orthonormal, and invariance of each generator image
    is tested against c.tol on the orthogonal complement's share.
    """
    if not 0 <= j <= c.N:
        raise ValueError(f"subspace index {j} out of range [0, {c.N}]")
    basis = _stable_basis(c.p, c.N, j)
    basis_h = basis.conj().T
    for g in (*c.xs, c.y):
        image = g @ basis
        residual = image - basis @ (basis_h @ image)
        if np.max(np.abs(residual)) > c.tol:
            return False
    return True
