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
"""

from __future__ import annotations

from .errors import InternalCheckError
from .rootlog import validate_grid_point
from .standard_form import EigenSpec, StandardFormRep


def minimal_stable_index(rep: StandardFormRep, first_row: int = 1) -> int:
    """Minimal j such that V_{p^j} is stable for rows first_row..n.

    first_row = 1 asks about the representation itself; first_row = r
    asks about its restriction to the subgroup generated by
    a_r, ..., a_n, b.  The answer is found by the single comparison of
    column 1 with column p^j + 1, then full p^j-periodicity of all
    columns is re-verified.  V_{p^N} is the whole space, so N is the
    answer when no smaller j matches.
    """
    if not 1 <= first_row <= rep.n:
        raise ValueError(f"first_row {first_row} out of range [1, {rep.n}]")
    p = rep.spec.pp.p
    N = rep.spec.pp.N
    q = rep.dim
    cols = rep.columns(first_row)
    base = cols[0]
    for j in range(N):
        if cols[p**j] == base:
            _verify_full_periodicity(cols, p**j, q)
            return j
    return N


def _verify_full_periodicity(cols, step: int, q: int) -> None:
    if any(cols[c] != cols[(c + step) % q] for c in range(q)):
        raise InternalCheckError(
            "single-column test succeeded but full periodicity failed: "
            "either the implementation drifted or the table is not "
            "cyclically consistent (exceptional-prime input)"
        )


def is_irreducible_structural(rep: StandardFormRep) -> bool:
    """True iff no proper candidate subspace is stable."""
    return minimal_stable_index(rep, 1) == rep.spec.pp.N


def is_irreducible_depth(spec: EigenSpec) -> bool:
    """True iff some e_i (i >= 2) is a primitive p^N-th root exponent.

    Equivalent to the structural test whenever it applies, but it only
    applies for p >= n; ``validate_grid_point`` refuses smaller primes.
    """
    p = spec.pp.p
    validate_grid_point(spec.n, p, spec.pp.N)
    return any(e % p != 0 for e in spec.tail)


def restriction_monotone(rep: StandardFormRep) -> bool:
    """Minimal stable index never rises along rows r..n, r = 1..n-1.

    Restricting to the subgroup generated by a_r, ..., a_n, b drops
    components from every column tuple, so columns can only become
    *more* equal; exposed as a predicate and expected always true.
    """
    chain = [minimal_stable_index(rep, r) for r in range(1, rep.n)]
    return all(a >= b for a, b in zip(chain, chain[1:]))
