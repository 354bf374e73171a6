"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

The traced-run tests start the benchmark as a subprocess, two runs per
workload, and take a few minutes.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402

WORKLOADS = ("train-gauss", "train-gen", "sweep", "pipeline")


@functools.lru_cache(maxsize=None)
def traced_run(workload: str, repeat: int) -> tuple[dict, dict]:
    """Per-layer metrics and record of one short traced run on seed 5."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"], proc.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, json.loads(lines[-2])["record"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(workload):
    first, _ = traced_run(workload, 0)
    second, _ = traced_run(workload, 1)
    for name in bench_trace.EXACT_COUNTS:
        assert first[name] == second[name], name
    assert set(first) == set(bench_trace.PER_LAYER_UNITS)


def test_layer_shares_match_the_code():
    gauss, _ = traced_run("train-gauss", 0)
    gen, gen_record = traced_run("train-gen", 0)
    assert gauss["losses.mmd_calls"] == 0
    assert gauss["model.forwards_per_step"] == 3
    assert gen["model.forwards_per_step"] == 8
    assert gen["losses.mmd_self_s"] > 0.5 * gen_record["traced_run_s_p50"]


def test_unit_metrics_from_synthetic_spans():
    spans = [
        ["trainer.train", 0, 1000, -1, None],
        ["model.forward", 100, 300, 0, {"rows": 4, "flops": 80}],
        ["rng.normal", 400, 460, 0, {"draws": 6}],
        ["rng.uniform", 410, 420, 2, {"draws": 3}],
        ["trainer.optimizer", 500, 600, 0, None],
        ["evaluation.predict", 700, 900, 0, {"rows": 5}],
        ["model.forward", 710, 890, 5, {"rows": 5, "flops": 100}],
    ]
    m = bench_trace.unit_metrics([spans])
    assert m["trainer.self_s"] == pytest.approx((1000 - 200 - 60 - 100 - 200) * 1e-9)
    assert m["model.forward_self_s"] == pytest.approx((200 + 180) * 1e-9)
    assert m["evaluation.predict_s"] == pytest.approx(200e-9)
    assert (m["rng.calls"], m["rng.draws"]) == (1, 6)
    assert (m["trainer.steps"], m["model.forwards_per_step"]) == (1, 1.0)
    assert (m["model.forward_calls"], m["model.gemm_flops"]) == (2, 180)
    assert m["evaluation.predict_rows"] == 5


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-gauss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
