"""Benchmark of the maxclass command line, run in-process.

    python3 perfbench/run.py --workload enum-wide --seed 1 --seconds 44 --trace 0
    python3 perfbench/run.py --smoke

Each workload is a list of exhaustive grid points fed to
``maxclass.cli.main`` in this process, so interpreter start-up and
imports stay out of the timed passes.  A run repeats passes over the
points (in an order shuffled by the seed) for about ``--seconds``, checks
every output, and prints one JSON object as its last line:

* ``--trace 0``: the end-to-end metrics (medians over the passes);
* ``--trace 1``: the per-layer metrics, from passes run with spans
  around each layer's functions, plus untraced passes for the overhead.

The full record of a run (environment, computed work per point, every
pass's timings and, when traced, the spans) goes to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.  Any wrong
output makes the run exit with code 1.  ``--smoke`` runs every workload
at one tiny point in both modes and checks that each metric named in
BENCHMARK.json is reported with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SPAN_NAMES, Tracer, summarize
from workloads import (
    WORKLOADS,
    argv_for,
    check_output,
    expected_outputs,
    invoke,
    point_work,
    warm,
    worker_init,
    worker_invoke,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Pinned so that results do not depend on the caller's shell.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MAXCLASS_BUDGET": str(10**8),
}
SETUP_PROBES_PER_REP = 2  # spread over the run, so they sample its whole window
MIN_REPS = 3  # untraced runs; a traced run stops after the pass that ends past --seconds
WORKERS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_2proc_s": "s",
    "tails_per_s": "1/s",
    "col_steps_per_s": "1/s",
    "specs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNTERS = ("tails_visited", "reducible_skipped", "canonical_kept",
            "noncanonical_rejected", "col_steps")
CACHES = ("standard_form._cached_simplex_rows", "oracle._cycle_commutant_basis")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name.startswith("checks.suite_"):
            units[f"{name}.busy_s"] = "s"
    units["counting.shard.calls"] = "count"
    units["counting.shard.max_s"] = "s"
    units["counting.pool_overhead_s"] = "s"
    for cache in CACHES:
        units[f"{cache}.lookups"] = "count"
        units[f"{cache}.hit_ratio"] = "ratio"
    units["oracle.commutant_dimension.per_spec"] = "1/spec"
    for counter in COUNTERS:
        units[f"counting.computed.{counter}"] = "count"
    units["counting.computed.useful_ratio"] = "ratio"
    units["trace.wall_untraced_s"] = "s"
    units["trace.wall_traced_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.self_coverage"] = "ratio"
    return units


PER_LAYER = per_layer_units()


# -- environment -------------------------------------------------------------


def import_package():
    """Import maxclass from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import maxclass.cli

    origin = Path(maxclass.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"maxclass was imported from {origin}, not from src/")
    return maxclass.cli


def git_sha() -> str:
    """HEAD's commit from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    from maxclass.counting import resolve_budget

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "enumeration_budget": resolve_budget(),
    }


# -- passes ------------------------------------------------------------------


class Run:
    """One benchmark run of one workload: passes, checks and tallies."""

    def __init__(self, workload, points, cli):
        self.workload = workload
        self.points = points
        self.cli = cli
        self.expected = expected_outputs(workload, points)
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, point, inv) -> None:
        self.attempted += 1
        problem = check_output(self.workload, point, inv, self.expected)
        if problem:
            self.failures.append(f"{point}: {problem}")

    def _finish(self, start: float, results: dict) -> dict:
        wall = time.perf_counter() - start
        for point, inv in results.items():
            self.record(point, inv)
        return {
            "wall_s": wall,
            "point_s": {str(pt): inv.seconds for pt, inv in results.items()},
            "outputs": {pt: inv.stdout for pt, inv in results.items()},
        }

    def single_pass(self, order) -> dict:
        """All points once, in this process: wall, per-point seconds, outputs."""
        gc.collect()
        start = time.perf_counter()
        results = {pt: invoke(self.cli.main, argv_for(self.workload, pt)) for pt in order}
        return self._finish(start, results)

    def two_process_pass(self, order, pool) -> dict:
        """All points once on two processes.

        ``count`` shards each enumeration itself (``--threads 2``);
        ``verify`` has no such option, so the points are dealt to two
        worker processes, heaviest first, and only the pass wall counts.
        """
        gc.collect()
        start = time.perf_counter()
        if pool is None:
            results = {
                pt: invoke(self.cli.main, argv_for(self.workload, pt, threads=WORKERS))
                for pt in order
            }
        else:
            argvs = [argv_for(self.workload, pt) for pt in self.points]
            results = dict(zip(self.points,
                               pool.map(worker_invoke, argvs, chunksize=1)))
        done = self._finish(start, results)
        if pool is not None:
            done["point_s"] = {}
        return done

    def same_outputs(self, first: dict, second: dict) -> None:
        self.attempted += 1
        one, two = first["outputs"], second["outputs"]
        if one != two:
            bad = [pt for pt in one if one[pt] != two.get(pt)]
            self.failures.append(f"one- and two-process outputs differ at {bad}")


def measure_setup(workload_name: str, smoke: bool, probes: int) -> list[float]:
    """Import-and-warm time of fresh interpreters, one sample per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(probes):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def stop_child_processes() -> None:
    """End and reap every worker process still running, on any way out."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()


def cache_counts() -> dict[str, tuple[int, int]]:
    from maxclass import oracle, standard_form

    out = {}
    for cache, fn in zip(CACHES, (standard_form._cached_simplex_rows,
                                  oracle._cycle_commutant_basis)):
        info = fn.cache_info()
        out[cache] = (info.hits, info.misses)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    points = workload.smoke_points if smoke else workload.points
    setup: list[float] = []
    cli = import_package()
    env = environment(seed)
    warm(workload, points)
    run = Run(workload, points, cli)
    work_by_point = {pt: point_work(workload, pt) for pt in points}
    work = {key: sum(w[key] for w in work_by_point.values())
            for key in next(iter(work_by_point.values()))}

    rng = random.Random(seed)
    min_reps = 1 if smoke or trace else MIN_REPS
    reps: list[dict] = []
    tracer = Tracer() if trace else None
    traced_stats: list[dict] = []
    shard_stats: list[dict] = []
    pool = None
    if workload.command == "verify" and not trace:
        # Forked, not spawned: a spawn pool starts multiprocessing's
        # resource-tracker process, which can outlive this run.
        pool = multiprocessing.get_context("fork").Pool(
            WORKERS, initializer=worker_init, initargs=(name, points))
    finished = False
    try:
        caches_before = cache_counts()
        started = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            order = rng.sample(points, len(points))
            one = run.single_pass(order)
            rep = {"order": [list(pt) if pt else None for pt in order],
                   "wall_s": one["wall_s"], "point_s": one["point_s"]}
            two = None
            if trace:
                traced, stats = tracer.traced(lambda: run.single_pass(order))
                run.same_outputs(one, traced)
                rep["traced_wall_s"] = traced["wall_s"]
                traced_stats.append(stats)
                if workload.command == "count":
                    two, stats = tracer.traced(lambda: run.two_process_pass(order, None))
                    shard_stats.append(stats)
            else:
                two = run.two_process_pass(order, pool)
                setup += measure_setup(name, smoke, SETUP_PROBES_PER_REP)
            if two is not None:
                run.same_outputs(one, two)
                rep["wall_2proc_s"], rep["point_2proc_s"] = two["wall_s"], two["point_s"]
            reps.append(rep)
            now = time.perf_counter()
            if len(reps) >= min_reps and now - started + (now - rep_start) > seconds:
                break
        caches_after = cache_counts()
        finished = True
    finally:
        if pool is not None:
            if finished:
                pool.close()
            else:
                pool.terminate()
            pool.join()
        stop_child_processes()

    single_passes = len(reps) * (2 if trace else 1)
    if trace:
        metrics = layer_metrics(reps, traced_stats, shard_stats, work,
                                caches_before, caches_after, single_passes)
    else:
        metrics = end_to_end_metrics(reps, setup, work)
    record = {
        "workload": name,
        "trace": int(trace),
        "environment": env,
        "points": [list(pt) if pt else None for pt in points],
        "computed_work": {str(pt): w for pt, w in work_by_point.items()},
        "setup_samples_s": setup,
        "reps": reps,
        "metrics": metrics,
        "failures": run.failures,
    }
    if trace:
        record["span_names"] = tracer.names
        record["spans"] = tracer.export()
    return {"record": record, "metrics": metrics,
            "attempted": run.attempted, "failed": len(run.failures)}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def pass_time(reps, wall_key: str, point_key: str) -> float:
    """Typical time of one pass: the sum over points of each point's median.

    Per-point medians keep a burst of machine noise during one call from
    moving the whole pass; without per-point times, the median pass wall.
    """
    if not reps[0][point_key]:
        return _median([r[wall_key] for r in reps])
    return sum(_median([r[point_key][pt] for r in reps]) for pt in reps[0][point_key])


def end_to_end_metrics(reps, setup, work) -> dict:
    wall = pass_time(reps, "wall_s", "point_s")
    values = {
        "setup_s": _median(setup),
        "wall_s": wall,
        "wall_2proc_s": pass_time(reps, "wall_2proc_s", "point_2proc_s"),
        "tails_per_s": work["tails_visited"] / wall,
        "col_steps_per_s": work["col_steps"] / wall,
        "specs_per_s": work["specs"] / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(reps, traced, shards, work, before, after, single_passes) -> dict:
    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = _median([s["calls"].get(name, 0) for s in traced])
        values[f"{name}.self_s"] = _median([s["self_s"].get(name, 0.0) for s in traced])
        if name.startswith("checks.suite_"):
            values[f"{name}.busy_s"] = _median([s["total_s"].get(name, 0.0) for s in traced])
    values["counting.shard.calls"] = _median([s["shard_calls"] for s in shards])
    values["counting.shard.max_s"] = _median([s["shard_max_s"] for s in shards])
    values["counting.pool_overhead_s"] = _median([s["pool_overhead_s"] for s in shards])
    for cache in CACHES:
        hits = after[cache][0] - before[cache][0]
        misses = after[cache][1] - before[cache][1]
        values[f"{cache}.lookups"] = (hits + misses) / single_passes
        values[f"{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    commutants = values["oracle.commutant_dimension.calls"]
    values["oracle.commutant_dimension.per_spec"] = (
        commutants / work["oracle_specs"] if work["oracle_specs"] else 0.0)
    for counter in COUNTERS:
        values[f"counting.computed.{counter}"] = work[counter]
    values["counting.computed.useful_ratio"] = work["canonical_kept"] / work["tails_visited"]
    untraced = pass_time(reps, "wall_s", "point_s")
    traced_wall = _median([r["traced_wall_s"] for r in reps])
    values["trace.wall_untraced_s"] = untraced
    values["trace.wall_traced_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced
    values["trace.self_coverage"] = _median([
        sum(s["self_s"].values()) / r["traced_wall_s"] for s, r in zip(traced, reps)])
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


# -- entry points --------------------------------------------------------------


def write_record(record: dict, name: str, seed: int, trace: bool) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record))
    return path


def print_report(result: dict) -> None:
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio = {result['failed'] / max(result['attempted'], 1):.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in result["record"]["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(name, seed=0, seconds=0, trace=bool(trace), smoke=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append(f"{name} trace {trace}: missing {missing}, "
                                f"extra {extra}, wrong units {wrong}")
            if result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} trace {trace}: fail_ratio "
                                f"{result['failed']}/{result['attempted']}")
            print(f"smoke {name} trace {trace}: {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} failed")
    for problem in problems:
        print(f"SMOKE FAILED {problem}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 0 if not problems else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at one tiny point and check the metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maxclass" / "cli.py").is_file():
        print("error: src/maxclass is missing; run from a full maxclass checkout",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    if args.setup_probe:
        start = time.perf_counter()
        import numpy  # noqa: F401 - part of the measured import time

        import_package()
        workload = WORKLOADS[args.workload]
        warm(workload, workload.smoke_points if args.smoke else workload.points)
        print(repr(time.perf_counter() - start))
        return 0
    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    path = write_record(result["record"], args.workload, args.seed, bool(args.trace))
    print(f"environment = {json.dumps(result['record']['environment'], sort_keys=True)}")
    print(f"record = {path.relative_to(ROOT)}")
    print_report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
