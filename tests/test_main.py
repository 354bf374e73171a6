"""The command process's lifecycle: the collector off while it imports, the
import-time objects frozen while it runs and at exit, and a reader that
closes stdout early."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contradist import cli
from contradist.__main__ import run_command
from helpers import run_python

# gen-data -> train -> eval -> contour, with paths relative to the run directory
PIPELINE = [
    ["gen-data", "--preset", "rotated", "--seed", "3", "--samples-per-class", "40",
     "--out", "data"],
    ["train", "--data-dir", "data", "--sources", "d0", "--target", "d1", "--epochs", "2",
     "--out", "run"],
    ["eval", "--checkpoint", "run/model.ckpt", "--data", "data/d1_test.csv",
     "--out", "metrics.json"],
    ["contour", "--checkpoint", "run/model.ckpt", "--data", "data/d1_test.csv",
     "--resolution", "30", "--out", "contour.csv"],
]


def run_cli(argv, cwd, stdout=subprocess.PIPE, **env):
    """`python -m contradist.cli argv` in cwd, with the given variables set
    (a value of None unsets one)."""
    return run_python(["-m", "contradist.cli", *argv], cwd, stdout, **env)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_start_command_leaves_the_collector_disabled():
    code = (
        "import gc\n"
        "from contradist.__main__ import start_command\n"
        "start_command()\n"
        "print(gc.isenabled())\n"
    )
    proc = run_python(["-c", code], check=True)
    assert proc.stdout == "False\n"


def test_run_command_runs_main_with_the_imports_frozen_and_freezes_after(monkeypatch):
    monkeypatch.setattr(sys, "stdout", sys.stdout)  # run_command replaces it
    seen = []

    def main():
        seen.append((gc.isenabled(), gc.get_freeze_count()))
        return 3

    try:
        assert run_command(main) == 3
        frozen_after = gc.get_freeze_count()
    finally:
        gc.unfreeze()
        gc.enable()
    [(enabled, frozen)] = seen
    assert enabled and frozen > 0
    assert frozen_after >= frozen


def test_in_process_calls_leave_the_collector_and_stdout_alone(tmp_path):
    stdout, before = sys.stdout, (gc.isenabled(), gc.get_freeze_count())
    assert cli.main(["gen-data", "--preset", "aligned", "--samples-per-class", "10",
                     "--out", str(tmp_path / "data")]) == 0
    assert (sys.stdout, gc.isenabled(), gc.get_freeze_count()) == (stdout, *before)
    cells = [
        cli.build_cell("aligned", ("d0", "d1"), seed, 10, {"epochs": 1, "terms": ["ss"]},
                       str(tmp_path / f"cell{seed}"))
        for seed in (1, 2)
    ]
    for workers in (1, 2):
        assert all(result["ok"] for result in cli.run_cells(cells, workers))
        assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_command_processes_write_what_in_process_calls_write(tmp_path, monkeypatch):
    (tmp_path / "child").mkdir()
    for argv in PIPELINE:
        proc = run_cli(argv, tmp_path / "child")
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    (tmp_path / "in-process").mkdir()
    monkeypatch.chdir(tmp_path / "in-process")
    for argv in PIPELINE:
        assert cli.main(argv) == 0, argv
    child, in_process = tree_bytes(tmp_path / "child"), tree_bytes(tmp_path / "in-process")
    assert "contour.csv" in child and "run/model.ckpt" in child
    assert child == in_process


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("closed-stdout")
    for argv in PIPELINE[:2]:
        assert run_cli(argv, root).returncode == 0, argv
    return root


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", [PIPELINE[2], PIPELINE[3]], ids=["eval", "contour"])
def test_a_closed_stdout_is_not_an_error(checkpoint, command, unbuffered):
    out = checkpoint / command[-1]
    out.unlink(missing_ok=True)
    read, write = os.pipe()
    os.close(read)
    try:  # a write to this pipe fails with EPIPE
        proc = run_cli(command, checkpoint, stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.exists()


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_another_stdout_error_exits_2_with_one_error_line(checkpoint, unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:  # writes fail with ENOSPC
        proc = run_cli(PIPELINE[2], checkpoint, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: [Errno 28]")
    assert proc.stderr.count("\n") == 1
