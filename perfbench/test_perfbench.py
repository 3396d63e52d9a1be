"""Tests of the benchmark itself.  Run: python -m pytest perfbench -q"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from spans import _covered

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_covered_merges_overlapping_and_clips():
    assert _covered([], 0.0, 1.0) == 0.0
    assert _covered([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)], 0.0, 1.0) == pytest.approx(0.5)
    assert _covered([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)


def test_smoke_reports_every_metric_without_failures():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{"), "printed a result without the sources"
    assert not (tmp_path / "perfbench" / "out").exists()
