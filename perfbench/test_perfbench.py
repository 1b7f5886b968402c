"""Checks of the benchmark itself: python3 -m pytest perfbench -q

The speed sampler must interrupt a busy loop and restore SIGALRM's
handler; a short traced run must succeed, report every per-layer metric and
leave the git tree as it found it; BENCHMARK.json must list exactly the
workloads and metrics the harness produces; and a directory holding
only the benchmark must make it fail without printing a result.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibration
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]


def _git_status():
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if proc.returncode != 0:
        pytest.skip("not a git work tree")
    return proc.stdout


def _end_to_end_units():
    sys.path.insert(0, str(HERE))
    import run

    return run.END_TO_END_UNITS


def test_benchmark_json_matches_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == _end_to_end_units()
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER_UNITS


def test_traced_run_reports_every_layer_and_leaves_tree_clean():
    before = _git_status()
    proc = subprocess.run(
        RUN + ["--workload", "verify_suite", "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(layers.PER_LAYER_UNITS)
    assert result["metrics"]["verify.checks_passed"]["value"] == 17
    assert _git_status() == before


def test_fails_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "simulate_fig1",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampler_interrupts_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibration.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    try:
        while time.perf_counter() - t0 < 6 * calibration.INTERVAL_S:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert 0.0 < sampler.interrupt_s < time.perf_counter() - t0
    assert sampler.kernel_s() > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
