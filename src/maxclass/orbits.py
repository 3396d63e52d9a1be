"""Equivalence of standard forms under cycle shifts and re-twisting.

Two standard-form tables present the same twist isoclass exactly when
one arises from the other by conjugating with a power of the cycle and
then twisting e_1 back to 0.  Conjugating by the offset-th power reads
the defining column off at column offset+1 instead of column 1, so the
orbit of a spec is the set of tails

    { (E[2][offset+1], ..., E[n][offset+1]) : offset = 0 .. p^N - 1 }.

The twist itself never needs representing: x_2, ..., x_n are commutator
images and therefore twist-invariant, so re-twisting only resets e_1.
Both functions below read the table they are handed and build none.

The orbit size obeys an exact law: it is p^m where m is the minimal
stable index of rows 2..n (the restriction that forgets x_1).  The law
needs the denominators appearing in rows 2..n to be units, i.e.
p >= n - 1; below that the orbit machinery is out of scope and is
refused.  Counting twist isoclasses means counting orbits once each.
"""

from __future__ import annotations

from .errors import ExceptionalPrimeError, InternalCheckError
from .stability import minimal_stable_index
from .standard_form import EigenSpec, StandardFormRep, spec_from_tail


def _require_orbit_scope(spec: EigenSpec) -> None:
    if spec.pp.p < spec.n - 1:
        raise ExceptionalPrimeError(
            f"orbit analysis needs p >= n-1 (got p={spec.pp.p}, n={spec.n})"
        )


def shift_spec(rep: StandardFormRep, offset: int) -> EigenSpec:
    """Defining data after conjugating by the offset-th cycle power.

    offset = 0 is the identity; the new exponents are read off column
    offset+1 of ``rep``, with e_1 re-normalized to 0 by twisting.
    """
    spec = rep.spec
    return spec_from_tail(spec.n, spec.pp, rep.column(offset + 1, first_row=2))


def shift_orbit(rep: StandardFormRep) -> frozenset[tuple[int, ...]]:
    """All tails reachable from ``rep``'s spec by shifting and re-twisting.

    The number of distinct tails must equal p^m for m the minimal
    stable index of rows 2..n; a mismatch means the implementation (or
    a convention somewhere) is broken, so it raises rather than
    returning bad data.
    """
    spec = rep.spec
    _require_orbit_scope(spec)
    tails = frozenset(rep.columns(2))
    m = minimal_stable_index(rep, first_row=2)
    if len(tails) != spec.pp.p**m:
        raise InternalCheckError(
            f"orbit size {len(tails)} != p^m = {spec.pp.p ** m} for "
            f"spec {spec.exponents} (p={spec.pp.p}, N={spec.pp.N})"
        )
    return tails
