"""Exact representation counting for maximal-class nilpotent groups.

Irreducible p^N-dimensional representations of

    G_n = < a_1, ..., a_n, b | [a_i, b] = a_{i+1} >

(for primes p >= n) are built in standard form from exponent tables,
counted up to twisting and isomorphism by three independent methods,
and packaged into local zeta factors with their functional equation and
abscissa of convergence.  A floating-point oracle cross-checks the
exact machinery on the complex eigenvalues of the realized matrices.
"""

from .counting import (
    CountReport,
    closed_form_count,
    enumerate_isoclasses,
    expected_census,
)
from .errors import (
    BudgetExceededError,
    ExceptionalPrimeError,
    GuardExceededError,
    InternalCheckError,
    MaxclassError,
)
from .orbits import shift_orbit, shift_spec
from .rootlog import PrimePower, depth_of, is_prime
from .simplex import SimplexTable, scaled_congruence_holds, simplex
from .stability import (
    is_irreducible_depth,
    is_irreducible_structural,
    minimal_stable_index,
    restriction_monotone,
)
from .standard_form import (
    EigenSpec,
    StandardFormRep,
    build_rep,
    cycle_constraint_holds,
    spec_from_tail,
)
from .zeta import (
    BivariatePolynomial,
    BivariateRationalFunction,
    abscissa,
    count_from_series,
    functional_equation_factor,
    geometric_assembly,
    series_coefficients,
    zeta_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "BivariatePolynomial",
    "BivariateRationalFunction",
    "BudgetExceededError",
    "CountReport",
    "EigenSpec",
    "ExceptionalPrimeError",
    "GuardExceededError",
    "InternalCheckError",
    "MaxclassError",
    "PrimePower",
    "SimplexTable",
    "StandardFormRep",
    "abscissa",
    "build_rep",
    "closed_form_count",
    "count_from_series",
    "cycle_constraint_holds",
    "depth_of",
    "enumerate_isoclasses",
    "expected_census",
    "functional_equation_factor",
    "geometric_assembly",
    "is_irreducible_depth",
    "is_irreducible_structural",
    "is_prime",
    "minimal_stable_index",
    "restriction_monotone",
    "scaled_congruence_holds",
    "series_coefficients",
    "shift_orbit",
    "shift_spec",
    "simplex",
    "spec_from_tail",
    "zeta_closed_form",
]
