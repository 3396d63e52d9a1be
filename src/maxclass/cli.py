"""Command-line interface.

Subcommands:

* ``count``  - twist-isoclass count at one (n, p, N) by any subset of the
  three methods, with the orbit-size census;
* ``zeta``   - the closed-form local zeta factor, its abscissa, the
  functional-equation status and optionally a series table;
* ``verify`` - run one of the exhaustive property suites;
* ``table``  - TSV of counts over N = 0..max_N with per-cell error capture;
* ``dump``   - the standard-form exponent table of one spec as JSON.

All numeric output is exact; large values travel as decimal strings in
JSON.  Exit codes: 0 success/agreement, 1 disagreement or failed
properties, 2 bad configuration (non-prime or uncertifiable p, exceptional
prime, exceeded budget, a count too long to print, malformed arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import checks, zeta
from .counting import closed_form_count, enumerate_isoclasses, resolve_budget
from .errors import MaxclassError
from .rootlog import check_family_point, refuse_unprintable_count, validate_grid_point
from .standard_form import EigenSpec, build_rep
from .zeta import count_from_series

USAGE_ERROR = 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: every `main` call shares it, so nothing may change it."""
    parser = argparse.ArgumentParser(
        prog="maxclass",
        description="Exact twist-isoclass counts and local zeta factors "
        "for the maximal-class groups <a_1..a_n, b | [a_i, b] = a_{i+1}>.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count twist isoclasses at (n, p, N)")
    count.set_defaults(handler=cmd_count)
    count.add_argument("--n", type=_positive_int, required=True)
    count.add_argument("--p", type=_positive_int, required=True)
    count.add_argument("--N", type=_nonneg_int, required=True)
    count.add_argument(
        "--method",
        choices=("enum", "closed", "series", "all"),
        default="all",
    )
    count.add_argument("--format", choices=("text", "json"), default="text")

    zcmd = sub.add_parser("zeta", help="closed-form local zeta factor")
    zcmd.set_defaults(handler=cmd_zeta)
    zcmd.add_argument("--n", type=_positive_int, required=True)
    zcmd.add_argument("--p", type=_positive_int, default=None,
                      help="specialize p for a series table")
    zcmd.add_argument("--series", type=_nonneg_int, default=None, metavar="N_MAX",
                      help="print coefficients up to t^N_MAX (needs --p)")
    zcmd.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run an exhaustive property suite")
    verify.set_defaults(handler=cmd_verify)
    verify.add_argument(
        "--suite",
        required=True,
        choices=sorted({*checks.SUITES, "all"}),
    )
    verify.add_argument("--n", type=_positive_int, default=None)
    verify.add_argument("--p", type=_positive_int, default=None)
    verify.add_argument("--N", type=_nonneg_int, default=None)

    table = sub.add_parser("table", help="TSV of counts for N = 0..max_N")
    table.set_defaults(handler=cmd_table)
    table.add_argument("--n", type=_positive_int, required=True)
    table.add_argument("--p", type=_positive_int, required=True)
    table.add_argument("--max-N", dest="max_N", type=_nonneg_int, required=True)
    for enumerating in (count, table):
        enumerating.add_argument("--budget", type=_positive_int, default=None,
                                 help="enumeration budget (default MAXCLASS_BUDGET or 10^8)")
        enumerating.add_argument("--threads", type=_positive_int, default=1,
                                 help="reserved: accepted and validated, but the enumeration "
                                      "always runs in this one process")

    dump = sub.add_parser("dump", help="standard-form exponent table as JSON")
    dump.set_defaults(handler=cmd_dump)
    dump.add_argument("--n", type=_positive_int, required=True)
    dump.add_argument("--p", type=_positive_int, required=True)
    dump.add_argument("--N", type=_positive_int, required=True)
    dump.add_argument(
        "--exponents",
        required=True,
        help="comma-separated e_1,...,e_n with e_1 = 0",
    )
    return parser


def _census_text(census: dict[int, int]) -> str:
    return ", ".join(f"{count} of size {size}" for size, count in sorted(census.items()))


def cmd_count(args) -> int:
    validate_grid_point(args.n, args.p, args.N)
    refuse_unprintable_count(args.n, args.p, args.N)
    methods = {"enumerated": None, "closed_form": None, "series": None}
    census = None
    if args.method in ("enum", "all"):
        report = enumerate_isoclasses(args.n, args.p, args.N, budget=args.budget)
        methods["enumerated"] = report.r_enumerated
        census = report.orbit_census
    if args.method in ("closed", "all"):
        methods["closed_form"] = closed_form_count(args.n, args.p, args.N)
    if args.method in ("series", "all"):
        methods["series"] = count_from_series(args.n, args.p, args.N)
    computed = [v for v in methods.values() if v is not None]
    agree = len(set(computed)) == 1
    if args.format == "json":
        payload = {
            "n": args.n,
            "p": args.p,
            "N": args.N,
            "methods": {k: None if v is None else str(v) for k, v in methods.items()},
            "orbit_census": None
            if census is None
            else {str(size): str(cnt) for size, cnt in sorted(census.items())},
            "agree": agree,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"n={args.n} p={args.p} N={args.N} dim={args.p ** args.N}")
        labels = {
            "enumerated": "r (enumerated) ",
            "closed_form": "r (closed form)",
            "series": "r (series)     ",
        }
        for key, value in methods.items():
            if value is not None:
                print(f"{labels[key]} = {value}")
        if census is not None:
            print(f"orbit census: {_census_text(census)}")
        print(f"agreement: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


def cmd_zeta(args) -> int:
    if args.p is not None:
        validate_grid_point(args.n, args.p, args.series or 0)
        refuse_unprintable_count(args.n, args.p, args.series or 0)
    elif args.series is not None:
        raise ValueError("--series needs --p")
    f = zeta.zeta_closed_form(args.n)
    factor = zeta.functional_equation_factor(args.n)
    holds = factor == args.n - 1
    alpha = zeta.abscissa(args.n)
    coeffs = None
    if args.series is not None:
        coeffs = zeta.series_coefficients(f, args.p, args.series)
    if args.format == "json":
        payload = {
            "n": args.n,
            "closed_form": zeta.to_json_dict(f),
            "text": zeta.render_text(f),
            "abscissa": str(alpha),
            "functional_equation": {"holds": holds, "factor_exponent": factor},
            "series": None
            if coeffs is None
            else {"p": args.p, "coefficients": [str(c) for c in coeffs]},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"n = {args.n}")
        print(f"zeta = {zeta.render_text(f)}")
        print(f"abscissa = {alpha}")
        if holds:
            print(f"functional equation: holds with factor p^{factor}")
        else:
            print("functional equation: FAILS")
        if coeffs is not None:
            print(f"series at p={args.p}: " + ", ".join(str(c) for c in coeffs))
    return 0 if holds else 1


def cmd_verify(args) -> int:
    results = checks.run_suite(args.suite, n=args.n, p=args.p, N=args.N)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        print(f"[{status}] {r.name}{detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 0 if failed == 0 else 1


def cmd_table(args) -> int:
    check_family_point(args.n, args.p, args.max_N)  # p < n fails cell by cell
    budget = resolve_budget(args.budget)
    refuse_unprintable_count(args.n, args.p, args.max_N)
    print("n\tp\tN\tr_enum\tr_closed\tr_series\tagree\terror")
    disagreed = False
    for N in range(args.max_N + 1):
        cells: dict[str, int | None] = {}
        errors = []

        def attempt(key, fn):
            try:
                cells[key] = fn()
            except Exception as exc:  # noqa: BLE001 - per-cell capture is the contract
                cells[key] = None
                errors.append(f"{key}: {exc}")

        attempt(
            "enum",
            lambda: enumerate_isoclasses(args.n, args.p, N, budget=budget).r_enumerated,
        )
        attempt("closed", lambda: closed_form_count(args.n, args.p, N))
        attempt("series", lambda: count_from_series(args.n, args.p, N))
        values = [cells["enum"], cells["closed"], cells["series"]]
        agree = "" if any(v is None for v in values) else (
            "yes" if len(set(values)) == 1 else "no"
        )
        disagreed |= agree == "no"
        rendered = ["" if v is None else str(v) for v in values]
        print(
            f"{args.n}\t{args.p}\t{N}\t" + "\t".join(rendered)
            + f"\t{agree}\t{'; '.join(errors)}"
        )
    return 1 if disagreed else 0


def cmd_dump(args) -> int:
    try:
        exponents = tuple(int(x) for x in args.exponents.split(","))
    except ValueError:
        raise ValueError(f"malformed exponent list {args.exponents!r}") from None
    pp = check_family_point(args.n, args.p, args.N)
    pp.check_guard()  # before EigenSpec reads p^N
    rep = build_rep(EigenSpec(args.n, pp, exponents))
    print(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
    except (MaxclassError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
