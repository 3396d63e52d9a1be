#!/usr/bin/env python3
"""Reproduce the headline tables: counts and zeta factors at desk scale.

Prints the closed-form zeta factor, abscissa and functional-equation
factor for n = 2..8, then a triple-method count table over the standard
verification grid.  Everything is exact; any disagreement would be a
bug, and the script exits nonzero if one appears.
"""

import argparse
import sys

from maxclass.checks import COUNTING_GRID
from maxclass.counting import closed_form_count, enumerate_isoclasses
from maxclass.zeta import (
    abscissa,
    count_from_series,
    functional_equation_factor,
    render_text,
    zeta_closed_form,
)

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8,
                        help="largest class index for the zeta table")
    args = parser.parse_args()

    print("== local zeta factors ==")
    for n in range(2, args.max_n + 1):
        z = zeta_closed_form(n)
        print(
            f"n={n}: {render_text(z):44s} abscissa={abscissa(n)} "
            f"inversion factor=p^{functional_equation_factor(n)}"
        )

    print()
    print("== twist isoclass counts (enumerated / closed form / series) ==")
    print(f"{'n':>2} {'p':>3} {'N':>2} {'r':>8}  census")
    disagreements = 0
    for n, p, N in COUNTING_GRID:
        report = enumerate_isoclasses(n, p, N)
        agree = (
            report.r_enumerated
            == closed_form_count(n, p, N)
            == count_from_series(n, p, N)
        )
        marker = "" if agree else "  << DISAGREE"
        disagreements += not agree
        census = ", ".join(
            f"{cnt}x{size}" for size, cnt in sorted(report.orbit_census.items())
        )
        print(f"{n:>2} {p:>3} {N:>2} {report.r_enumerated:>8}  [{census}]{marker}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
