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

The work is batched: `realize` takes a stack of int64 tables of one
(n, p, N), as `standard_form.build_stack` makes them, and keeps its
leading spec axis (a lone `StandardFormRep` gets none).  Every check
broadcasts over it, one value per spec.  A stack of S specs holds
S n p^(2N) entries, so `checks.suite_oracle` realizes chunks of at most
`checks._ORACLE_CHUNK` entries (or one spec), which bounds its memory.

Each piece of floating-point work is done once per spec: a caller reads
the relation residual and each stability residual at every tolerance,
and judges the census only on the specs its one commutant call marks
irreducible (the census itself takes no commutant).  Every verdict
compares against `DEFAULT_TOL`, read when the check runs.  A candidate
subspace's orthonormal basis is one tile of an identity, cheap enough
to build on every call.  The commutant needs no SVD: restricted to the
cycle commutant, the stacked commutator operator has pairwise
orthogonal columns, so its singular values are its column norms.  The
SVD of that operator, built on `_cycle_commutant_basis`, lives only in
the test suite, as a differential check of that fact.
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


@dataclass(frozen=True)
class ComplexRep:
    """Stacked x_i of shape (..., n, dim, dim) and the shared cycle y."""

    p: int
    N: int
    xs: np.ndarray
    y: np.ndarray

    @property
    def dim(self) -> int:
        return self.p**self.N

    @property
    def n(self) -> int:
        return self.xs.shape[-3]


def _cycle_matrix(dim: int) -> np.ndarray:
    """The dim-cycle: ones on the subdiagonal, corner entry 1."""
    return np.roll(np.eye(dim, dtype=complex), 1, axis=0)


def realize(tables, pp: PrimePower | None = None) -> ComplexRep:
    """Turn a stack of exponent tables of one (n, p, N) into complex matrices.

    ``tables`` is specs x n x p^N, as ``build_stack`` makes them, and
    each spec gets its own x_i along the leading axis.  Entry j of x_i
    is exp(2*pi*i * E[i][j] / p^N); y sends basis vector e_j to e_{j+1}
    cyclically.  A lone ``StandardFormRep`` carries its own ``pp`` and
    gets no spec axis.
    """
    if isinstance(tables, StandardFormRep):
        tables, pp = tables.rows, tables.spec.pp
    refuse_power(pp.p, pp.N, DEFAULT_ORACLE_GUARD, _GUARD_TEXT, GuardExceededError)
    dim = pp.dim
    rows = np.asarray(tables, dtype=float)
    xs = np.zeros(rows.shape + (dim,), dtype=complex)
    xs[..., np.arange(dim), np.arange(dim)] = np.exp(2j * np.pi * rows / dim)
    return ComplexRep(p=pp.p, N=pp.N, xs=xs, y=_cycle_matrix(dim))


def relation_residuals(c: ComplexRep) -> np.ndarray:
    """Per spec: the largest max-entry residual over every defining relation.

    The relations are [x_i, y] = x_{i+1} for i < n, x_n central and x_n
    scalar.  Diagonal unitaries invert by conjugation and y by
    transposition, so the commutators are exact matrix products.
    """
    xs, y = c.xs, c.y
    lower, xn = xs[..., :-1, :, :], xs[..., -1, :, :]
    return np.maximum.reduce([
        np.abs(lower @ y @ lower.conj() @ y.T - xs[..., 1:, :, :]).max(axis=(-3, -2, -1)),
        np.abs(xn @ y - y @ xn).max(axis=(-2, -1)),
        np.abs(xn - xn[..., :1, :1] * np.eye(c.dim)).max(axis=(-2, -1)),
    ])


def check_relations(c: ComplexRep) -> np.ndarray:
    """Per spec: all defining relations hold to within DEFAULT_TOL."""
    return relation_residuals(c) <= DEFAULT_TOL


def realizes_unit_shift(c: ComplexRep, shifted: ComplexRep) -> np.ndarray:
    """Per spec: whether ``shifted`` is ``c`` conjugated by y, then twisted.

    y^-1 x_i y must match x_i of ``shifted`` within DEFAULT_TOL for i >= 2;
    x_1 may differ by one scalar, the twist that renormalizes e_1 to 0.
    """
    conjugated = c.y.T @ c.xs @ c.y  # y^-1 = y^T
    x1, target = conjugated[..., 0, :, :], shifted.xs[..., 0, :, :]
    x1 *= target[..., :1, :1] / x1[..., :1, :1]  # twists conjugated in place
    return np.abs(conjugated - shifted.xs).max(axis=(-3, -2, -1)) <= DEFAULT_TOL


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
    eig = np.diagonal(c.xs, axis1=-2, axis2=-1)  # (..., n, dim)
    shifted = (np.arange(c.dim)[:, None] + np.arange(c.dim)) % c.dim  # [k, c] -> c + k
    gaps = eig[..., shifted] - eig[..., None, :]  # (..., n, dim (k), dim (c))
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
    refuse_power(c.p, c.N, DEFAULT_ORACLE_GUARD, _GUARD_TEXT, GuardExceededError)
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
    sigs = np.diagonal(c.xs, axis1=-2, axis2=-1)  # (..., n, dim)
    lead = sigs.shape[:-2]
    sigs = sigs.reshape(-1, c.n, c.dim)
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


def _stable_basis(p: int, N: int, j: int) -> np.ndarray:
    """Spanning vectors of the j-th candidate subspace, as columns.

    The seed vector is the sum of basis vectors 1, p^j + 1, 2 p^j + 1,
    ...; the cycle orbit of the seed closes after p^j steps, giving a
    p^j-dimensional space.  Shift s of the seed has ones exactly at the
    rows congruent to s mod p^j, so the columns are p^(N-j) stacked
    copies of the p^j identity.  The shifts have disjoint supports of
    size p^(N-j), so dividing by sqrt(p^(N-j)) makes them orthonormal.
    """
    copies = p ** (N - j)
    return np.tile(np.eye(p**j, dtype=complex), (copies, 1)) / np.sqrt(copies)


def stability_residual(c: ComplexRep, j: int) -> np.ndarray:
    """Per spec: how far the generators carry the j-th candidate subspace out.

    The basis is orthonormal, so this is the largest entry, over every
    generator, of the image's share in the orthogonal complement.
    """
    if not 0 <= j <= c.N:
        raise ValueError(f"subspace index {j} out of range [0, {c.N}]")
    basis = _stable_basis(c.p, c.N, j)
    x_leak, y_leak = (np.abs(image - basis @ (basis.conj().T @ image)).max(axis=(-2, -1))
                      for image in (c.xs @ basis, c.y @ basis))
    return np.maximum(x_leak.max(axis=-1), y_leak)


def subspace_is_stable(c: ComplexRep, j: int) -> np.ndarray:
    """Per spec: every generator maps the j-th candidate subspace into itself."""
    return stability_residual(c, j) <= DEFAULT_TOL
