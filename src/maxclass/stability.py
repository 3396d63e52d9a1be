"""Stable subspaces and irreducibility tests.

For a standard-form table the candidate stable subspaces form a chain
V_1 < V_p < ... < V_{p^N}: V_{p^j} is spanned by the cycle orbit of the
sum of every p^j-th basis vector.  V_{p^j} is stable exactly when the
column tuples of the table repeat with period p^j, so the whole lattice
question reduces to comparing columns, and stability of V_{p^j} for the
minimal j can be read off one comparison: column 1 against column
p^j + 1 (column equality propagates one step to the right, hence to
every shift).

Irreducibility has two equivalent characterizations kept deliberately
separate so they can cross-check each other:

* structural: no proper V_{p^j} is stable, i.e. the minimal stable
  index is N;
* depth: some defining exponent e_i (i >= 2) is a unit mod p, i.e.
  some defining eigenvalue is a primitive p^N-th root of unity.

The depth form is only valid for p >= n and is guarded accordingly.

Each test works on a stack of tables (int64 specs x n x p^N, as
``standard_form.build_stack`` makes them) or of specs, one value per
spec; the functions on a single table or spec call it with a stack of
one.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalCheckError
from .rootlog import PrimePower, validate_grid_point
from .standard_form import EigenSpec, StandardFormRep


def minimal_stable_indices(tables: np.ndarray, pp: PrimePower, first_row: int = 1) -> np.ndarray:
    """``minimal_stable_index`` of every table of a stack (specs x n x p^N).

    For j = 0, 1, ... each spec still open compares column 1 with column
    p^j + 1 on rows first_row..n; the specs that match have their full
    p^j-periodicity re-verified and take the index j.  The rest take N.
    """
    cols = tables[:, first_row - 1:].transpose(0, 2, 1)  # specs x q x rows
    q = cols.shape[1]
    index = np.full(len(cols), pp.N)
    open_ = np.ones(len(cols), dtype=bool)
    for j in range(pp.N):
        step = pp.p**j
        hit = open_ & np.all(cols[:, step] == cols[:, 0], axis=1)
        if hit.any():
            _verify_full_periodicity(cols[hit], step, q)
            index[hit] = j
            open_ &= ~hit
    return index


def minimal_stable_index(rep: StandardFormRep, first_row: int = 1) -> int:
    """Minimal j such that V_{p^j} is stable for rows first_row..n.

    first_row = 1 asks about the representation itself; first_row = r
    asks about its restriction to the subgroup generated by
    a_r, ..., a_n, b.  The answer is found by the single comparison of
    column 1 with column p^j + 1, then full p^j-periodicity of all
    columns is re-verified.  V_{p^N} is the whole space, so N is the
    answer when no smaller j matches.
    """
    rows = rep._rows_from(first_row)  # refuses a first_row outside [1, n]
    return int(minimal_stable_indices(np.array([rows]), rep.spec.pp)[0])


def _verify_full_periodicity(cols, step: int, q: int) -> None:
    """Raise unless the q columns along axis -2 of ``cols`` repeat with period ``step``."""
    cols = np.asarray(cols)
    if np.any(cols != cols[..., (np.arange(q) + step) % q, :]):
        raise InternalCheckError(
            "single-column test succeeded but full periodicity failed: "
            "either the implementation drifted or the table is not "
            "cyclically consistent (exceptional-prime input)"
        )


def irreducible_structural(tables: np.ndarray, pp: PrimePower) -> np.ndarray:
    """``is_irreducible_structural`` of every table of a stack."""
    return minimal_stable_indices(tables, pp) == pp.N


def is_irreducible_structural(rep: StandardFormRep) -> bool:
    """True iff no proper candidate subspace is stable."""
    return bool(irreducible_structural(np.array([rep.rows]), rep.spec.pp)[0])


def irreducible_depth(exponents: np.ndarray, p: int) -> np.ndarray:
    """The depth criterion on every spec of a stack (one (e_1, ..., e_n) per row).

    The caller answers for p >= n, as ``is_irreducible_depth`` does.
    """
    return np.any(exponents[:, 1:] % p != 0, axis=1)


def is_irreducible_depth(spec: EigenSpec) -> bool:
    """True iff some e_i (i >= 2) is a primitive p^N-th root exponent.

    Equivalent to the structural test whenever it applies, but it only
    applies for p >= n; ``validate_grid_point`` refuses smaller primes.
    """
    p = spec.pp.p
    validate_grid_point(spec.n, p, spec.pp.N)
    return bool(irreducible_depth(np.array([spec.exponents]), p)[0])


def restriction_monotone(rep: StandardFormRep) -> bool:
    """Minimal stable index never rises along rows r..n, r = 1..n-1.

    Restricting to the subgroup generated by a_r, ..., a_n, b drops
    components from every column tuple, so columns can only become
    *more* equal; exposed as a predicate and expected always true.
    """
    chain = [minimal_stable_index(rep, r) for r in range(1, rep.n)]
    return all(a >= b for a, b in zip(chain, chain[1:]))
