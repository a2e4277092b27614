"""Smoke test of the benchmark: a few operations per workload and mode.

    python -m pytest -q bench/test_smoke.py

Kept out of the repository's test suite (pytest collects ``tests/`` only);
it takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_out" / "smoke"  # inside the checkout, like every benchmark file
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace):
    out = WORK / f"{workload}_trace{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--smoke",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", GATED)
def test_gated_workload_reports_its_metrics(workload, trace):
    last, result = smoke(workload, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, metric in last["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    for key in ("python", "numpy", "scipy", "mpmath", "blas", "nproc", "loadavg_start",
                "loadavg_end", "git_commit", "seed", "package"):
        assert key in result["environment"]
    if trace:
        assert result["spans"]


def test_screen_edge_classifies_its_failures():
    _, result = smoke("screen-edge", 0)
    for failure in result["failures"]:
        assert failure["cause"]
        assert "defect" in failure


def test_missing_source_tree_fails_without_a_result():
    """A checkout holding only BENCHMARK.json and bench/ must fail cleanly."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "screen", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
