"""Floating-point cross-checks on complex eigenvalues.

Everything else in the package reasons about exponent tables; this
module is the independent referee.  In standard form every x_i is
diagonal and y is the p^N-cycle (y: e_j -> e_{j+1}), so a spec is fully
given by the diagonals d_i of the x_i, honest complex roots of unity,
and y acts on a diagonal by a roll: y diag(v) y^-1 = diag(roll(v, 1)).
From the d_i alone the module re-derives, numerically:

* the defining relations [x_i, y] = x_{i+1} (with [u,v] = u v u^-1 v^-1)
  and centrality/scalarity of x_n;
* irreducibility, via the dimension of the joint commutant;
* the joint eigenspace structure of the diagonal part (count and sizes);
* stability of the candidate subspaces, from their spanning vectors;
* that conjugating by a cycle power, then twisting, gives the table of
  the shifted spec (the orbit layer's reading of the columns).

Floating point is confined to this module on purpose: it must not share
code paths with the exact machinery it is checking, so subspaces are
read from their definition and commutants from linear algebra, not from
column-tuple bookkeeping.

The work is batched: `realize` takes a stack of int64 tables of one
(n, p, N), as `standard_form.build_stack` makes them, and keeps its
leading spec axis (a lone `StandardFormRep` gets none).  Every check
broadcasts over it, one value per spec.  A stack of S specs holds
S n p^N eigenvalues, the commutant gaps and census distances S n p^(2N)
entries; `checks.suite_oracle` bounds them with the table suites' chunk.

Each piece of floating-point work is done once per spec: a caller reads
the relation residual and each stability residual at every tolerance,
and judges the census only on the specs its one commutant call marks
irreducible (the census itself takes no commutant).  Every verdict
compares against `DEFAULT_TOL`, read when the check runs.  The commutant
needs no SVD: restricted to the cycle commutant, the stacked commutator
operator has pairwise orthogonal columns, so its singular values are
its column norms.  The test suite keeps the dense dim x dim forms of
every check, and that operator's SVD on `_cycle_commutant_basis`, as
differential references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GuardExceededError
from .rootlog import PrimePower, refuse_power
from .standard_form import StandardFormRep

DEFAULT_ORACLE_GUARD = 64
_GUARD_TEXT = f"matrix rows exceed the oracle guard {DEFAULT_ORACLE_GUARD}"
DEFAULT_TOL = 1e-9
SV_THRESHOLD = 1e-8


def check_guard(p: int, N: int) -> None:
    """The oracle's one size rule: refuse p^N over DEFAULT_ORACLE_GUARD matrix rows."""
    refuse_power(p, N, DEFAULT_ORACLE_GUARD, _GUARD_TEXT, GuardExceededError)


@dataclass(frozen=True)
class ComplexRep:
    """The diagonals of the x_i, stacked as (..., n, dim); y is the dim-cycle."""

    p: int
    N: int
    eig: np.ndarray

    @property
    def dim(self) -> int:
        return self.p**self.N

    @property
    def n(self) -> int:
        return self.eig.shape[-2]


def _cycle_matrix(dim: int) -> np.ndarray:
    """The dim-cycle: ones on the subdiagonal, corner entry 1."""
    return np.roll(np.eye(dim, dtype=complex), 1, axis=0)


def realize(tables, pp: PrimePower | None = None) -> ComplexRep:
    """Turn a stack of exponent tables of one (n, p, N) into complex eigenvalues.

    ``tables`` is specs x n x p^N, as ``build_stack`` makes them, and
    each spec gets its own diagonals along the leading axis.  Entry j of
    x_i is exp(2*pi*i * E[i][j] / p^N).  A lone ``StandardFormRep``
    carries its own ``pp`` and gets no spec axis.
    """
    if isinstance(tables, StandardFormRep):
        tables, pp = tables.rows, tables.spec.pp
    check_guard(pp.p, pp.N)
    rows = np.asarray(tables, dtype=float)
    return ComplexRep(p=pp.p, N=pp.N, eig=np.exp(2j * np.pi * rows / pp.dim))


def relation_residuals(c: ComplexRep) -> np.ndarray:
    """Per spec: the largest max-entry residual over every defining relation.

    The relations are [x_i, y] = x_{i+1} for i < n, x_n central and x_n
    scalar.  With x_i = diag(d_i), x_i y x_i^-1 y^-1 is
    diag(d_i * roll(conj d_i, 1)); x_n y - y x_n has entries
    d_n[j+1] - d_n[j] on the subdiagonal and corner; and x_n - d_n[0] I
    is d_n - d_n[0] on the diagonal.  Every other entry is exactly 0.
    """
    d = c.eig
    lower, xn = d[..., :-1, :], d[..., -1, :]
    return np.maximum.reduce([
        np.abs(lower * np.roll(lower.conj(), 1, axis=-1) - d[..., 1:, :]).max(axis=(-2, -1)),
        np.abs(np.roll(xn, 1, axis=-1) - xn).max(axis=-1),
        np.abs(xn - xn[..., :1]).max(axis=-1),
    ])


def check_relations(c: ComplexRep) -> np.ndarray:
    """Per spec: all defining relations hold to within DEFAULT_TOL."""
    return relation_residuals(c) <= DEFAULT_TOL


def realizes_unit_shift(c: ComplexRep, shifted: ComplexRep) -> np.ndarray:
    """Per spec: whether ``shifted`` is ``c`` conjugated by y, then twisted.

    y^-1 x_i y = diag(roll(d_i, -1)) must match x_i of ``shifted`` within
    DEFAULT_TOL for i >= 2; x_1 may differ by one scalar, the twist that
    renormalizes e_1 to 0.
    """
    conjugated = np.roll(c.eig, -1, axis=-1)
    x1, target = conjugated[..., 0, :], shifted.eig[..., 0, :]
    x1 *= target[..., :1] / x1[..., :1]  # twists conjugated in place
    return np.abs(conjugated - shifted.eig).max(axis=(-2, -1)) <= DEFAULT_TOL


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
    map A -> x_i A - A x_i scales entry (c + k, c) by d_i[c + k] - d_i[c],
    so column k of the stacked operator lives on the k-th cyclic
    diagonal.  Distinct diagonals are disjoint, the columns are pairwise
    orthogonal, and the singular values are the column norms:

        sigma_k^2 = sum_i sum_c |d_i[c + k] - d_i[c]|^2 / dim.
    """
    shifted = (np.arange(c.dim)[:, None] + np.arange(c.dim)) % c.dim  # [k, c] -> c + k
    gaps = c.eig[..., shifted] - c.eig[..., None, :]  # (..., n, dim (k), dim (c))
    return np.sqrt(np.sum(gaps.real**2 + gaps.imag**2, axis=(-3, -1)) / c.dim)


def commutant_dimension(c: ComplexRep) -> np.ndarray:
    """dim {A : A commutes with every x_i and with y}, one per spec.

    This is the joint nullity of the stacked operators A -> gA - Ag over
    the generators, read off singular values (sigma below SV_THRESHOLD *
    sigma_max counts as zero).  Restricted to the y-operator's kernel,
    the stacked operator has pairwise orthogonal columns, so its
    singular values are the column norms (`_commutant_singular_values`)
    and no SVD is taken; the tests check the two against each other.

    A value of 1 certifies irreducibility.
    """
    check_guard(c.p, c.N)
    sigmas = _commutant_singular_values(c)
    top = sigmas.max(axis=-1, keepdims=True)
    nullity = np.sum(sigmas < SV_THRESHOLD * top, axis=-1)
    return np.where(top[..., 0] == 0.0, c.dim, nullity)[()]


def mutual_eigenspace_census(c: ComplexRep) -> tuple[np.ndarray, np.ndarray]:
    """(number of joint eigenspaces of the x_i, largest dimension), per spec.

    Basis vectors are grouped by their joint eigenvalue signature across
    x_1..x_n, two signatures counting as equal when every component is
    within DEFAULT_TOL.  Each vector joins the first class whose first
    member is that close to it, or starts a new class.  An irreducible
    spec gives (p^N, 1); a reducible one gets its census too, and the
    caller, which knows the commutant, decides which specs to judge.
    """
    lead = c.eig.shape[:-2]
    sigs = c.eig.reshape(-1, c.n, c.dim)
    close = np.max(np.abs(sigs[..., :, None] - sigs[..., None, :]), axis=1) <= DEFAULT_TOL
    # first[s, j]: vector j starts a class of spec s; sizes by first member.
    first = np.zeros(close.shape[:2], dtype=bool)
    sizes = np.zeros(close.shape[:2], dtype=int)
    first[:, 0], sizes[:, 0] = True, 1
    specs = np.arange(len(close))
    for j in range(1, c.dim):
        hits = close[:, :j, j] & first[:, :j]
        joined = hits.any(axis=1)
        sizes[specs, np.where(joined, hits.argmax(axis=1), j)] += 1
        first[:, j] = ~joined
    return first.sum(axis=1).reshape(lead)[()], sizes.max(axis=1).reshape(lead)[()]


def stability_residual(c: ComplexRep, j: int) -> np.ndarray:
    """Per spec: how far the generators carry the j-th candidate subspace out.

    The subspace is spanned by the cycle orbit of the seed e_1 + e_{p^j + 1}
    + e_{2 p^j + 1} + ...: shift s of the seed is the indicator of the
    rows congruent to s mod p^j, and the p^j shifts, divided by
    sqrt(p^(N-j)), are an orthonormal basis.  y permutes these spanning
    vectors, so it leaks nothing.  x_i = diag(d_i) maps shift s to d_i on
    class s, whose share in the orthogonal complement is d_i minus its
    class mean there; the residual is the largest such entry, over every
    x_i, divided by sqrt(p^(N-j)).
    """
    if not 0 <= j <= c.N:
        raise ValueError(f"subspace index {j} out of range [0, {c.N}]")
    copies = c.p ** (c.N - j)
    classes = c.eig.reshape(c.eig.shape[:-1] + (copies, c.p**j))  # [..., a, s]: row a p^j + s
    leak = np.abs(classes - classes.mean(axis=-2, keepdims=True)).max(axis=(-3, -2, -1))
    return leak / np.sqrt(copies)


def subspace_is_stable(c: ComplexRep, j: int) -> np.ndarray:
    """Per spec: every generator maps the j-th candidate subspace into itself."""
    return stability_residual(c, j) <= DEFAULT_TOL
