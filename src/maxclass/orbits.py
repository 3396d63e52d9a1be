"""Equivalence of standard forms under cycle shifts and re-twisting.

Two standard-form tables present the same twist isoclass exactly when
one arises from the other by conjugating with a power of the cycle and
then twisting e_1 back to 0.  Conjugating by the offset-th power reads
the defining column off at column offset+1 instead of column 1, so the
orbit of a spec is the set of tails

    { (E[2][offset+1], ..., E[n][offset+1]) : offset = 0 .. p^N - 1 }.

The twist itself never needs representing: x_2, ..., x_n are commutator
images and therefore twist-invariant, so re-twisting only resets e_1.
Every function below reads the tables it is handed and builds none.
``shifted_exponents`` and ``orbit_sizes`` work on a stack of tables
(int64 specs x n x p^N); ``shift_spec`` and ``shift_orbit`` call them
with a stack of one.

The orbit size obeys an exact law: it is p^m where m is the minimal
stable index of rows 2..n (the restriction that forgets x_1).  The law
needs the denominators appearing in rows 2..n to be units, i.e.
p >= n - 1; below that the orbit machinery is out of scope and is
refused.  Counting twist isoclasses means counting orbits once each.
"""

from __future__ import annotations

import numpy as np

from .errors import ExceptionalPrimeError, InternalCheckError
from .rootlog import PrimePower
from .stability import minimal_stable_indices
from .standard_form import EigenSpec, StandardFormRep, distinct_columns


def _require_orbit_scope(n: int, p: int) -> None:
    if p < n - 1:
        raise ExceptionalPrimeError(f"orbit analysis needs p >= n-1 (got p={p}, n={n})")


def shifted_exponents(tables: np.ndarray, offset: int) -> np.ndarray:
    """``shift_spec`` of every table of a stack: one (0, e_2, ..., e_n) per row."""
    out = np.zeros_like(tables[:, :, 0])
    out[:, 1:] = tables[:, 1:, offset % tables.shape[2]]
    return out


def shift_spec(rep: StandardFormRep, offset: int) -> EigenSpec:
    """Defining data after conjugating by the offset-th cycle power.

    offset = 0 is the identity; the new exponents are read off column
    offset+1 of ``rep``, with e_1 re-normalized to 0 by twisting.
    """
    spec = rep.spec
    exps = shifted_exponents(np.array([rep.rows]), offset)[0]
    return EigenSpec(spec.n, spec.pp, tuple(exps.tolist()))


def orbit_sizes(tables: np.ndarray, pp: PrimePower) -> np.ndarray:
    """The orbit size of every table of a stack: its distinct columns on rows 2..n.

    Each size must equal p^m for m the minimal stable index of rows
    2..n; a mismatch means the implementation (or a convention
    somewhere) is broken, so it raises, naming the first such spec.
    """
    _require_orbit_scope(tables.shape[1], pp.p)
    sizes = distinct_columns(tables[:, 1:])
    law = pp.p ** minimal_stable_indices(tables, pp, first_row=2)
    bad = np.flatnonzero(sizes != law)
    if len(bad):
        s = bad[0]
        raise InternalCheckError(
            f"orbit size {sizes[s]} != p^m = {law[s]} for "
            f"spec {tuple(tables[s, :, 0].tolist())} (p={pp.p}, N={pp.N})"
        )
    return sizes


def shift_orbit(rep: StandardFormRep) -> frozenset[tuple[int, ...]]:
    """All tails reachable from ``rep``'s spec by shifting and re-twisting.

    The number of distinct tails must equal p^m for m the minimal
    stable index of rows 2..n; ``orbit_sizes`` raises rather than
    returning bad data.
    """
    orbit_sizes(np.array([rep.rows]), rep.spec.pp)
    return frozenset(rep.columns(2))
