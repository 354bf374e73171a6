#!/usr/bin/env python3
"""Benchmark for contradist: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload train-gauss --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One run sets up (imports, input generation and untimed warm-up units), then
repeats timed units for --seconds, checking every unit's output.  A unit is
one `train` call, one whole sweep or one whole CLI pipeline.  Untimed and
untraced units cycle through SEEDS_PER_RUN unit seeds derived from --seed, so
target_acc is a mean over that many seeds; traced units all use the first
unit seed, so their exact counts repeat from unit to unit.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 the first
half of the time runs untraced units and the second half traced ones, and the
last line carries the per-layer metrics of the traced units.  The line before
it is a JSON record of the environment, sample counts, percentiles, output
checks and parameter hashes.  `--workload all` runs every workload in its own
process and prints one table.

End-to-end metrics (untraced units only):

  setup_s              import time plus the median of 3 passes of input
                       generation and an untimed warm-up unit
  run_s_p50            median wall seconds per unit
  run_s_hi             the highest nearest-rank percentile with ten units
                       beyond it; the record states the percentile and count
  train_samples_per_s  median over units of classifier training rows
                       (steps x batch x (sources + 1)) per wall second
  cpu_s                median user + system CPU seconds per unit, this
                       process and its children
  peak_rss_mb          peak resident memory of the process that runs the
                       program: this one for train-*, else the largest child
  target_acc           mean over the unit seeds of the target-test accuracy
                       of their models (deterministic per seed)

The record also gives failed_frac: units that raised, exited non-zero or
failed an output check, over units attempted (warm-ups included).

The benchmark never sets BLAS thread variables; it records them.  Spans of a
traced run are written to .perfbench/spans-<workload>-s<seed>.jsonl.

BENCHMARK.json lists train-gen, sweep and pipeline.  train-gauss runs by name
but is not listed: with OpenBLAS's default threads its tiny GEMMs hand work
to a second thread, so a unit takes about 2.7x as long while anything else
holds the other core, and on a shared 2-vCPU host the quartile spread of its
run medians went past the largest bound the benchmark may set (0.25).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_trace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 3  # setup_s is the median of this many input + warm-up passes
SEEDS_PER_RUN = 4  # untraced units cycle through this many unit seeds
MIN_UNITS = 2
UNIT_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s_p50": "s",
    "run_s_hi": "s",
    "train_samples_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "target_acc": "ratio",
}

ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CONTRADIST_THREADS")


@dataclass
class Unit:
    """Outcome of one unit: timings, training size, accuracy, output checks."""

    wall_s: float
    seed: int = 0
    cpu_s: float = 0.0
    inputs_s: float = 0.0
    rows: int = 0
    target_acc: float = 0.0
    sha256: str = ""
    problems: list[str] = field(default_factory=list)
    dumps: list | None = None


def _import_program() -> None:
    """Import contradist from this checkout's src/, or raise ImportError."""
    if not (SRC / "contradist" / "__init__.py").is_file():
        raise ImportError(f"no contradist package under {SRC}")
    sys.path.insert(0, str(SRC))
    import contradist

    if Path(contradist.__file__).resolve().parent != (SRC / "contradist").resolve():
        raise ImportError(f"contradist imported from {contradist.__file__}, not {SRC}")


def _cpu() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _sha_params(params) -> str:
    h = hashlib.sha256(repr(tuple(params.layer_dims)).encode())
    for w, b in zip(params.weights, params.biases):
        h.update(w.astype("<f8").tobytes())
        h.update(b.astype("<f8").tobytes())
    return h.hexdigest()


def _steps_per_epoch(n_rows: int, batch: int) -> int:
    return -(-n_rows // batch)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class TrainWorkload:
    """In-process trainer.train on preset rotated, d0 -> d1, terms ss,tu,ta.

    train-gauss (Gaussian fakes) is model-layer work and never runs
    kernel_mmd; train-gen (generator fakes) is mostly kernel_mmd and runs 8
    forwards per step.  Each is the other's no-change control.
    """

    preset = "rotated"
    rusage = resource.RUSAGE_SELF  # the program runs in this process

    def __init__(self, generator: bool):
        self.generator = generator

    def config(self, seed: int):
        from contradist.trainer import GeneratorSettings, TrainConfig

        if not self.generator:
            # default TrainConfig; epoch 21 is the first with the ta term on
            return TrainConfig(epochs=25, seed=seed)
        # The generator, its MMD loss and the ta forwards run in every epoch
        # whatever the schedule, at ~0.4 s per epoch; a compressed schedule
        # reaches the ta stage in 4 epochs so a run holds many units.
        return TrainConfig(
            epochs=4,
            warmup_epochs=2,
            ramp_epochs=1,
            seed=seed,
            fake_sampler=GeneratorSettings(noise_dim=8, hidden_dims=(64, 64)),
        )

    def run_unit(self, seed: int, workdir: Path, tracer) -> Unit:
        import numpy as np
        from contradist import dataset, evaluation, trainer

        t = time.perf_counter()
        if tracer is not None:
            tracer.enabled = True
        specs = dataset.preset_domains(self.preset, seed)  # 2000 train rows per domain
        data = {
            did: dataset.split(dataset.make_blobs(spec, did), 0.5, spec.seed)
            for did, spec in specs.items()
        }
        src_train = data["d0"][0]
        tgt_train = data["d1"][0].without_labels()
        tgt_test = data["d1"][1]
        cfg = self.config(seed)
        inputs_s = time.perf_counter() - t

        c0, t0 = _cpu(), time.perf_counter()
        params, history = trainer.train(cfg, [src_train], tgt_train)
        wall = time.perf_counter() - t0
        cpu = _cpu() - c0
        if tracer is not None:
            tracer.enabled = False

        unit = Unit(wall_s=wall, cpu_s=cpu, inputs_s=inputs_s, sha256=_sha_params(params))
        steps = cfg.epochs * _steps_per_epoch(max(src_train.n, tgt_train.n), cfg.batch_size)
        unit.rows = steps * cfg.batch_size * 2
        if not all(np.all(np.isfinite(a)) for a in params.weights + params.biases):
            unit.problems.append("non-finite parameters")
        if [r.epoch for r in history.records] != list(range(1, cfg.epochs + 1)):
            unit.problems.append(f"{len(history.records)} history records for {cfg.epochs} epochs")
        pred = evaluation.predict(params, tgt_test.features)
        unit.target_acc = float((pred == tgt_test.labels).mean())
        if not self.generator and unit.target_acc < 0.98:
            unit.problems.append(f"target accuracy {unit.target_acc:.4f} < 0.98 (criterion 2)")
        return unit


class CliWorkload:
    """Base for workloads that run the contradist command as subprocesses."""

    child_env: dict[str, str] = {}
    rusage = resource.RUSAGE_CHILDREN

    def cli(self, args: list[str], trace_dir: Path | None, unit: Unit) -> bool:
        env = dict(os.environ, PYTHONPATH=str(SRC), **self.child_env)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "contradist.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), *args]
            env[bench_trace.TRACE_DIR_ENV] = str(trace_dir)
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=UNIT_TIMEOUT_S,
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            unit.problems.append(f"{args[0]} exited {proc.returncode}: {tail[0]}")
        return proc.returncode == 0

    def run_unit(self, seed: int, workdir: Path, tracer) -> Unit:
        trace_dir = None
        if tracer is not None:
            trace_dir = workdir / "trace"
            trace_dir.mkdir(parents=True)
        unit = Unit(wall_s=0.0)
        c0, t0 = _cpu(), time.perf_counter()
        ok = self.commands(seed, workdir, trace_dir, unit)
        unit.wall_s = time.perf_counter() - t0
        unit.cpu_s = _cpu() - c0
        if ok:
            self.check(workdir, unit)
        if trace_dir is not None:
            unit.dumps = bench_trace.load_dumps(trace_dir)
        return unit


class SweepWorkload(CliWorkload):
    """`contradist sweep`: 8 small cells in a 2-worker fork pool.

    Batch 32 makes per-call Python overhead dominate; each cell also
    generates its data and writes checkpoints, and the pool contends with
    BLAS threads.
    """

    presets = ("rotated", "overlap-source")
    term_sets = ("ss", "ss,tu,ta")
    samples_per_class = 500
    batch = 32
    epochs = 22  # epoch 21 is the first with the ta term on
    child_env = {"CONTRADIST_THREADS": "2"}

    def commands(self, seed, workdir, trace_dir, unit) -> bool:
        args = [
            "sweep",
            "--presets", ",".join(self.presets),
            "--term-sets", "|".join(self.term_sets),
            "--seeds", str(seed),
            "--directions", "both",
            "--samples-per-class", str(self.samples_per_class),
            "--batch-size", str(self.batch),
            "--epochs", str(self.epochs),
            "--out", str(workdir / "sweep"),
        ]
        return self.cli(args, trace_dir, unit)

    def check(self, workdir, unit) -> None:
        import csv

        n_cells = len(self.presets) * 2 * len(self.term_sets)
        with open(workdir / "sweep" / "summary.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n_cells:
            unit.problems.append(f"summary.csv has {len(rows)} rows for {n_cells} cells")
        accs = []
        for row in rows:
            for key in ("source_acc", "target_acc"):
                acc = float(row[key])
                if not 0.0 <= acc <= 1.0:
                    unit.problems.append(f"{key} {acc} outside [0, 1]")
            accs.append(float(row["target_acc"]))
        unit.target_acc = statistics.fmean(accs) if accs else 0.0
        n_train = 2 * math.ceil(0.5 * self.samples_per_class)  # 2 classes, train half
        steps = self.epochs * _steps_per_epoch(n_train, self.batch)
        unit.rows = n_cells * steps * self.batch * 2
        h = hashlib.sha256()
        for ckpt in sorted((workdir / "sweep" / "cells").glob("*/model.ckpt")):
            h.update(ckpt.read_bytes())
        unit.sha256 = h.hexdigest()


class PipelineWorkload(CliWorkload):
    """gen-data -> train -> eval -> contour as CLI subprocesses.

    The only workload that writes and reads CSVs and checkpoints and exports
    a grid; the 300x300 grid sets peak memory.
    """

    preset = "overlap-source"
    samples_per_class = 1000  # 1000 train rows per domain: ~14 units in 25 s
    epochs = 22
    batch = 128
    resolution = 300

    def commands(self, seed, workdir, trace_dir, unit) -> bool:
        data, run = workdir / "data", workdir / "run"
        steps = [
            ["gen-data", "--preset", self.preset, "--seed", str(seed),
             "--samples-per-class", str(self.samples_per_class), "--out", str(data)],
            ["train", "--data-dir", str(data), "--sources", "d0", "--target", "d1",
             "--terms", "ss,tu,ta", "--epochs", str(self.epochs),
             "--batch-size", str(self.batch), "--seed", str(seed), "--out", str(run)],
            ["eval", "--checkpoint", str(run / "model.ckpt"),
             "--data", str(data / "d1_test.csv"), "--out", str(workdir / "eval.json")],
            ["contour", "--checkpoint", str(run / "model.ckpt"),
             "--data", str(data / "d1_train.csv"), "--resolution", str(self.resolution),
             "--out", str(workdir / "contour.csv")],
        ]
        return all(self.cli(args, trace_dir, unit) for args in steps)

    def check(self, workdir, unit) -> None:
        import numpy as np
        from contradist.errors import CheckpointError
        from contradist.model import load_checkpoint

        run = workdir / "run"
        try:
            load_checkpoint(run / "model.ckpt")  # rejects non-finite parameters
        except CheckpointError as exc:
            unit.problems.append(str(exc))
        with open(run / "history.jsonl", encoding="utf-8") as fh:
            epochs = [json.loads(line)["epoch"] for line in fh]
        if epochs != list(range(1, self.epochs + 1)):
            unit.problems.append(f"{len(epochs)} history records for {self.epochs} epochs")
        with open(run / "metrics_target_test.json", encoding="utf-8") as fh:
            trained = json.load(fh)["accuracy"]
        with open(workdir / "eval.json", encoding="utf-8") as fh:
            evaluated = json.load(fh)["accuracy"]
        if evaluated != trained:
            unit.problems.append(f"eval accuracy {evaluated} != train's {trained}")
        unit.target_acc = float(trained)
        grid = np.loadtxt(workdir / "contour.csv", delimiter=",", skiprows=1, ndmin=2)
        if grid.shape[0] != self.resolution**2:
            unit.problems.append(f"contour has {grid.shape[0]} rows, not {self.resolution**2}")
        err = float(np.abs(grid[:, 2:-1].sum(axis=1) - 1.0).max())
        if not err <= 1e-9:
            unit.problems.append(f"contour probabilities off 1 by {err}")
        n_train = 2 * math.ceil(0.5 * self.samples_per_class)
        unit.rows = self.epochs * _steps_per_epoch(n_train, self.batch) * self.batch * 2
        unit.sha256 = hashlib.sha256((run / "model.ckpt").read_bytes()).hexdigest()


WORKLOADS = {
    "train-gauss": TrainWorkload(generator=False),
    "train-gen": TrainWorkload(generator=True),
    "sweep": SweepWorkload(),
    "pipeline": PipelineWorkload(),
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def unit_seeds(seed: int) -> list[int]:
    """The unit seeds of a run on --seed; distinct runs get distinct seeds."""
    return [seed * SEEDS_PER_RUN + j for j in range(SEEDS_PER_RUN)]


def _run_one(workload, seed: int, workdir: Path, tracer) -> Unit:
    """One unit in a fresh directory; an exception is a failed unit."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        unit = workload.run_unit(seed, workdir, tracer)
    except Exception as exc:  # a unit that raises is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        unit = Unit(wall_s=time.perf_counter() - t0, problems=[f"raised {exc!r}"])
    finally:
        if tracer is not None:
            tracer.enabled = False
        shutil.rmtree(workdir, ignore_errors=True)
    unit.seed = seed
    for problem in unit.problems:
        print(f"unit failed its check: {problem}", file=sys.stderr)
    return unit


def _repeat(workload, seeds, workdir, tracer, seconds: float, minimum: int) -> list[Unit]:
    """Units for `seconds` and at least `minimum` of them, cycling through seeds."""
    units: list[Unit] = []
    deadline = time.perf_counter() + seconds
    while len(units) < minimum or time.perf_counter() < deadline:
        units.append(_run_one(workload, seeds[len(units) % len(seeds)], workdir, tracer))
        if tracer is not None and units[-1].dumps is None:
            units[-1].dumps = [tracer.spans]
            tracer.reset()
    return units


def high_percentile(values: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with ten values beyond it.

    Returns (value, percentile, values beyond).  Below eleven values no rank
    has ten beyond it, and the lowest value is used.
    """
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.26 has no mode="dicts"
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = proc.stdout.strip() or sha
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k, "unset") for k in ENV_VARS},
        "python": platform.python_version(),
        "git_sha": sha,
    }


def end_to_end(setup_s: float, units: list[Unit], rusage: int) -> tuple[dict, dict]:
    good = [u for u in units if not u.problems] or units
    walls = [u.wall_s for u in good]
    acc_by_seed: dict[int, float] = {}
    for u in good:  # deterministic per seed: every unit of a seed agrees
        acc_by_seed.setdefault(u.seed, u.target_acc)
    hi, pct, beyond = high_percentile(walls)
    values = {
        "setup_s": setup_s,
        "run_s_p50": statistics.median(walls),
        "run_s_hi": hi,
        "train_samples_per_s": statistics.median(u.rows / u.wall_s for u in good),
        "cpu_s": statistics.median(u.cpu_s for u in good),
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
        "target_acc": statistics.fmean(acc_by_seed.values()),
    }
    detail = {
        "samples": len(walls),
        "target_acc_seeds": len(acc_by_seed),
        "unit_seconds": walls,
        "run_s_hi": {"percentile": pct, "units_beyond": beyond},
        "setup_repeats": SETUP_REPEATS,
    }
    return values, detail


def per_layer(untraced: list[Unit], traced: list[Unit]) -> tuple[dict, list[str]]:
    per_unit = [bench_trace.unit_metrics(u.dumps) for u in traced]
    # counts repeat exactly from unit to unit; times are medians over units
    values = {
        name: per_unit[0][name] if unit in ("count", "flop", "B") else
        statistics.median(m[name] for m in per_unit)
        for name, unit in bench_trace.PER_LAYER_UNITS.items()
        if name != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = (
        statistics.median(u.wall_s for u in traced)
        / statistics.median(u.wall_s for u in untraced)
        - 1.0
    )
    problems = [
        f"{name} differs between traced units: {sorted({m[name] for m in per_unit})}"
        for name in bench_trace.EXACT_COUNTS
        if len({m[name] for m in per_unit}) != 1
    ]
    return values, problems


def write_spans(path: Path, traced: list[Unit]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, unit in enumerate(traced):
            for spans in unit.dumps:
                fh.write(json.dumps({"unit": i, "spans": spans}) + "\n")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    workload = WORKLOADS[name]
    workdir = OUT / f"{name}-s{seed}-{os.getpid()}"

    seeds = unit_seeds(seed)
    warm = [_run_one(workload, seeds[i % len(seeds)], workdir, None) for i in range(SETUP_REPEATS)]
    setup_s = import_s + statistics.median(u.inputs_s + u.wall_s for u in warm)
    untraced = _repeat(
        workload, seeds, workdir, None,
        seconds / 2 if trace else seconds, 1 if trace else max(MIN_UNITS, len(seeds)),
    )
    traced: list[Unit] = []
    problems: list[str] = []
    if trace:
        # CLI workloads trace in their subprocesses; the tracer only marks the mode
        tracer = bench_trace.Tracer()
        if isinstance(workload, TrainWorkload):
            bench_trace.install(tracer)
        traced = _repeat(workload, seeds[:1], workdir, tracer, seconds / 2, MIN_UNITS)
        values, problems = per_layer(untraced, traced)
        metric_units = {m: bench_trace.PER_LAYER_UNITS[m] for m in values}
        OUT.mkdir(exist_ok=True)
        write_spans(OUT / f"spans-{name}-s{seed}.jsonl", traced)
        detail = {
            "traced_units": len(traced),
            "untraced_units": len(untraced),
            "traced_run_s_p50": statistics.median(u.wall_s for u in traced),
            "untraced_run_s_p50": statistics.median(u.wall_s for u in untraced),
        }
    else:
        values, detail = end_to_end(setup_s, untraced, workload.rusage)
        metric_units = END_TO_END_UNITS

    every = warm + untraced + traced
    failed = sum(1 for u in every if u.problems)
    for problem in problems:
        print(f"trace self-check failed: {problem}", file=sys.stderr)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "child_env": workload.child_env if isinstance(workload, CliWorkload) else {},
        "failed_frac": failed / len(every),
        "param_sha256": {
            str(s): sorted({u.sha256 for u in every if u.seed == s and u.sha256})
            for s in sorted({u.seed for u in every})
        },
        "problems": sorted({p for u in every for p in u.problems} | set(problems)),
        **detail,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(every),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in metric_units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        results[name] = {**result, "record": record}
        samples = record.get("samples", record.get("traced_units"))
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed_frac={record['failed_frac']} samples={samples}")
        for metric, v in result["metrics"].items():
            extra = ""
            if metric == "run_s_hi":
                hi = record["run_s_hi"]
                extra = f"  (p{hi['percentile']:.1f}, {hi['units_beyond']} units beyond)"
            print(f"   {metric:28s} {v['value']:>16.6g} {v['unit']}{extra}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
