"""The benchmark's workloads: which CLI calls they make and what they must print.

Every input is an exhaustive grid point (n, p, N), so nothing here is
random; the run's seed only shuffles the order in which a pass visits
the points.  The work counters are computed from the point and its
closed-form count, which the correctness checks require every returned
count to equal; nothing is read from inside the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass

GridPoint = tuple[int, int, int]


@dataclass(frozen=True)
class Workload:
    """A named list of points, all run through one CLI subcommand.

    ``command`` is "count" (``count --method all --format json``) or
    "verify" (``verify --suite all``, where the point ``None`` means the
    suites' own default grids and any other point pins every suite to
    it).  Points are listed heaviest first; the two-process verify pass
    hands them to its workers in this order.
    """

    name: str
    command: str
    points: tuple[GridPoint | None, ...]
    smoke_points: tuple[GridPoint | None, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Many tails, short cycle (p^N <= 243): per-tail overhead dominates.
        Workload("enum-wide", "count",
                 ((3, 3, 5), (4, 7, 2), (3, 5, 3), (4, 5, 2)), ((3, 3, 2),)),
        # Few tails, long cycle (p^N 2187..3125, n = 2): column work dominates.
        Workload("enum-long", "count",
                 ((2, 5, 5), (2, 7, 4), (2, 3, 7)), ((2, 3, 3),)),
        # Every suite exhaustively; oracle linear algebra dominates.
        Workload("verify-pinned", "verify",
                 (None, (3, 3, 2), (4, 5, 1), (2, 5, 2)), ((2, 3, 1),)),
    )
}


def argv_for(workload: Workload, point: GridPoint | None, threads: int = 1) -> list[str]:
    if workload.command == "count":
        n, p, N = point
        return ["count", "--n", str(n), "--p", str(p), "--N", str(N),
                "--method", "all", "--format", "json", "--threads", str(threads)]
    argv = ["verify", "--suite", "all"]
    if point is not None:
        n, p, N = point
        argv += ["--n", str(n), "--p", str(p), "--N", str(N)]
    return argv


@dataclass(frozen=True)
class Invocation:
    """One in-process call of ``maxclass.cli.main`` and what it left behind."""

    code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str = ""


def invoke(main, argv: list[str]) -> Invocation:
    """Call the CLI entry point with captured output; exceptions are results."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - a crash is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Invocation(code, out.getvalue(), err.getvalue(), seconds, error)


# -- correctness -------------------------------------------------------------


def expected_outputs(workload: Workload, points) -> dict:
    """What each point's output must contain, computed before any timing."""
    from maxclass.counting import expected_census

    if workload.command != "count":
        return {}
    return {
        pt: {str(size): str(cnt) for size, cnt in sorted(expected_census(*pt).items())}
        for pt in points
    }


def check_output(workload: Workload, point, inv: Invocation, expected: dict) -> str:
    """Return "" when the output is correct, otherwise why it is not."""
    if inv.error:
        return inv.error
    lines = inv.stdout.splitlines()
    failing = [line for line in lines if line.startswith("[FAIL]")]
    if failing:
        return f"{len(failing)} FAIL lines, first: {failing[0]}"
    if inv.code != 0:
        return f"exit code {inv.code}: {inv.stderr.strip()[:200]}"
    if workload.command == "verify":
        passed, _, total = (lines[-1].split()[0] if lines else "").partition("/")
        if not passed or passed != total:
            return f"bad verify summary {lines[-1] if lines else ''!r}"
        return ""
    try:
        payload = json.loads(inv.stdout)
    except json.JSONDecodeError as exc:
        return f"count output is not JSON: {exc}"
    methods = payload.get("methods", {})
    values = {methods.get(k) for k in ("enumerated", "closed_form", "series")}
    if None in values or len(values) != 1 or payload.get("agree") is not True:
        return f"methods disagree: {methods}"
    if payload.get("orbit_census") != expected[point]:
        return f"census {payload.get('orbit_census')} != expected {expected[point]}"
    return ""


# -- computed work -----------------------------------------------------------


def enumeration_counters(n: int, p: int, N: int, r: int) -> dict[str, int]:
    """Exact work of one enumeration at (n, p, N) whose count is r (N >= 1)."""
    tails = p ** ((n - 1) * N)
    reducible = p ** ((n - 1) * (N - 1))
    return {
        "tails_visited": tails,
        "reducible_skipped": reducible,
        "canonical_kept": r,
        "noncanonical_rejected": tails - reducible - r,
        "col_steps": tails * p**N * (n - 1),
    }


def point_work(workload: Workload, point) -> dict[str, int]:
    """Computed work of one point: enumeration counters plus specs checked.

    A count point enumerates its own tails, and each tail is one spec.
    A verify point enumerates the counting suite's grid and checks every
    spec of the standard-form, stability, orbit and oracle grids.
    """
    from maxclass import checks
    from maxclass.counting import closed_form_count

    if workload.command == "count":
        enumerated = [point]
        spec_grid = [point]
    elif point is None:
        enumerated = checks.COUNTING_GRID
        spec_grid = (checks.STANDARD_FORM_GRID + checks.STABILITY_GRID
                     + checks.ORBIT_GRID + checks.ORACLE_GRID)
    else:
        enumerated = [point]
        spec_grid = [point] * 4
    work = {"specs": sum(p ** ((n - 1) * N) for n, p, N in spec_grid),
            "oracle_specs": 0}
    if workload.command == "verify":
        oracle_grid = checks.ORACLE_GRID if point is None else [point]
        work["oracle_specs"] = sum(p ** ((n - 1) * N) for n, p, N in oracle_grid)
    for n, p, N in enumerated:
        for key, value in enumeration_counters(n, p, N, closed_form_count(n, p, N)).items():
            work[key] = work.get(key, 0) + value
    return work


# -- caches ------------------------------------------------------------------


def warm(workload: Workload, points) -> None:
    """Make the first call at each (p, N) that fills the package's caches.

    Counting warms the closed form and the series; verifying also fills
    the simplex-row cache of the standard-form builder and the cycle
    commutant cache of the oracle on every grid its suites visit.
    """
    from maxclass import checks, oracle
    from maxclass.counting import closed_form_count
    from maxclass.rootlog import PrimePower
    from maxclass.standard_form import build_rep, spec_from_tail
    from maxclass.zeta import count_from_series

    for point in points:
        if workload.command == "count":
            closed_form_count(*point)
            count_from_series(*point)
            continue
        if point is None:
            grid = set(checks.STANDARD_FORM_GRID + checks.STABILITY_GRID
                       + checks.ORBIT_GRID + checks.COUNTING_GRID + checks.ORACLE_GRID)
        else:
            grid = {point}
        for n, p, N in sorted(grid):
            closed_form_count(n, p, N)
            count_from_series(n, p, N)
            rep = build_rep(spec_from_tail(n, PrimePower(p, N), (1,) + (0,) * (n - 2)))
            if rep.dim <= oracle.DEFAULT_ORACLE_GUARD:
                oracle.commutant_dimension(oracle.realize(rep))


# -- worker processes for the two-process verify pass ------------------------

_WORKER_MAIN = None


def worker_init(workload_name: str, points) -> None:
    """Pool initializer: import the CLI once and warm the caches."""
    global _WORKER_MAIN
    from maxclass.cli import main

    _WORKER_MAIN = main
    warm(WORKLOADS[workload_name], points)


def worker_invoke(argv: list[str]) -> Invocation:
    return invoke(_WORKER_MAIN, argv)
