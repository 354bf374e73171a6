"""Run the benchmark on two trees in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --seed S [--workloads W,...]
        [--pairs N] [--claim TEXT]

PARENT and CHANGE are each a git revision, exported with ``git archive``, or
``.``, a copy of the working tree (tracked and untracked files that git does
not ignore).  Both go to fresh temporary directories (TMPDIR sets where).
For each workload (default: those BENCHMARK.json lists), pair i runs

    python3 perfbench/run.py --workload W --seed S+i --seconds T

from the root of each tree, the parent first in even pairs and the change
first in odd ones.  T is BENCHMARK.json's run_seconds, so every record has
the benchmark's run length; N is at least 10.  Each run has
PYTHONPATH and the BLAS thread variables removed and PYTHONDONTWRITEBYTECODE=1
set, so neither tree's later runs import from bytecode its first run wrote.

The runs go to BENCH_<parent>.json at the repository root: ``workloads`` maps
each workload to one entry per pair, ``{seed, first, parent: {record, result},
change: {record, result}}``, where record and result are the run's last two
stdout lines; ``environment``, ``command`` and ``claim`` sit beside it.

For each workload it then prints, per end-to-end metric of BENCHMARK.json:
both medians, the median change/parent ratio, the pairs in which the change
is better by the metric's direction (ties count for neither), the exact
two-sided sign-test p over the pairs that are not tied, the 2nd and (N-1)th
smallest ratios, the run-to-run spread, the metric's bound and a verdict
against it; then the largest failed_frac of each side and the pairs whose
param_sha256 agree.  The spread is the wider of the two sides' distances
between quartiles, over the parent's median.  The verdict is ``worse`` when
the change's median is worse than the parent's by more than the bound,
else ``unresolved`` when the spread is wider than the bound and not every
change run reads better than every parent run, else ``within``.

A run that exits non-zero or whose last two lines are not a record and a
result ends the tool with one ``error:`` line and exit 2, and nothing is
written; so does an existing BENCH_<parent>.json, before anything runs.
"""

import argparse
import json
import math
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
UNSET = ("PYTHONPATH", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CONTRADIST_THREADS")


class RunError(Exception):
    """A benchmark run that failed or printed no record and result, or a record in the way."""


class PairStats(NamedTuple):
    parent: float  # median over the pairs
    change: float
    ratio: float  # median of change / parent
    better: int  # pairs the change wins by the metric's direction
    pairs: int
    p: float  # exact two-sided sign test over the pairs that are not tied
    low: float  # 2nd smallest ratio
    high: float  # (N-1)th smallest ratio


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact binomial p of wins against losses at one half."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def pair_stats(parent: list[float], change: list[float], better: str) -> PairStats:
    """The paired statistics of one metric; ``better`` is "lower" or "higher"."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ratios = sorted(c / p for p, c in zip(parent, change))
    return PairStats(
        statistics.median(parent), statistics.median(change), statistics.median(ratios),
        wins, len(ratios), sign_test(wins, losses), ratios[1], ratios[-2],
    )


def verdict(parent: list[float], change: list[float], better: str, bound: float):
    """The run-to-run spread and the verdict against ``bound``; see the module docstring."""
    sign = 1 if better == "higher" else -1
    base = statistics.median(parent)
    spread = max(q[2] - q[0] for q in map(statistics.quantiles, (parent, change))) / base
    if sign * (statistics.median(change) / base - 1) < -bound:
        return spread, "worse"
    if spread > bound and min(sign * c for c in change) <= max(sign * p for p in parent):
        return spread, "unresolved"
    return spread, "within"


def metric_values(entries: list[dict], side: str, metric: str) -> list[float]:
    return [e[side]["result"]["metrics"][metric]["value"] for e in entries]


def report(workloads: dict, end_to_end: list[dict]) -> str:
    """The table the tool prints for a BENCH record's ``workloads``."""
    lines = []
    for name, entries in workloads.items():
        seeds = [e["seed"] for e in entries]
        lines.append(f"== {name}: {len(entries)} pairs, seeds {min(seeds)}-{max(seeds)}")
        lines.append(
            f"   {'metric':20s} {'parent':>11s} {'change':>11s} {'ratio':>6s} "
            f"{'better':>7s} {'p':>6s}  {'2nd..(N-1)th':12s} {'spread':>6s} {'bound':>5s} verdict"
        )
        for m in end_to_end:
            values = [metric_values(entries, side, m["name"]) for side in ("parent", "change")]
            s = pair_stats(*values, m["better"])
            spread, word = verdict(*values, m["better"], m["bound"])
            lines.append(
                f"   {m['name']:20s} {s.parent:11.5g} {s.change:11.5g} {s.ratio:6.3f} "
                f"{s.better:>3d}/{s.pairs:<3d} {s.p:6.3f}  {s.low:.3f}-{s.high:.3f}  "
                f"{spread:6.3f} {m['bound']:5.2f} {word}"
            )
        failed = {
            side: max(e[side]["record"]["record"]["failed_frac"] for e in entries)
            for side in ("parent", "change")
        }
        same = sum(
            e["parent"]["record"]["record"]["param_sha256"]
            == e["change"]["record"]["record"]["param_sha256"]
            for e in entries
        )
        lines.append(
            f"   failed_frac max: parent {failed['parent']:g}, change {failed['change']:g}; "
            f"param_sha256 equal in {same}/{len(entries)} pairs"
        )
    return "\n".join(lines)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def label(side: str) -> str:
    """The short commit of a revision; ``.`` is the working tree over HEAD."""
    if side == ".":
        return f"{git('rev-parse', '--short=7', 'HEAD')}+worktree"
    return git("rev-parse", "--short=7", f"{side}^{{commit}}")


def export(side: str, dest: Path) -> None:
    """Write the tree of a revision, or of the working tree for ``.``, into dest."""
    dest.mkdir()
    if side == ".":
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for rel in filter(None, listed.split("\0")):
            src = ROOT / rel
            if src.is_file():  # a tracked file deleted in the working tree is left out
                (dest / rel).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / rel)
        return
    tar = subprocess.run(["git", "archive", side], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar.stdout, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float, metrics: list[str]) -> dict:
    """One benchmark run in ``tree``: its record and result lines, parsed."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    where = f"{workload} seed {seed} in {tree.name}"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"{where} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    try:
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        record["record"]["failed_frac"], record["record"]["param_sha256"]  # report() reads both
        for m in metrics:
            float(result["metrics"][m]["value"])
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise RunError(f"{where} printed a malformed last line: {exc!r}") from exc
    return {"record": record, "result": result}


def run_pairs(args, bench: dict, trees: dict) -> dict:
    metrics = [m["name"] for m in bench["end_to_end"]]
    total, done = len(args.workloads) * args.pairs * 2, 0
    workloads = {}
    for workload in args.workloads:
        entries = workloads[workload] = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            entry = {"seed": seed, "first": order[0], "parent": None, "change": None}
            entries.append(entry)
            for side in order:
                entry[side] = run_once(trees[side], workload, seed, bench["run_seconds"], metrics)
                done += 1
                value = entry[side]["result"]["metrics"]["run_s_p50"]["value"]
                print(f"[{done}/{total}] {workload} seed {seed} {side}: run_s_p50 {value:.4g}",
                      file=sys.stderr, flush=True)
    return workloads


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision, or . for the working tree")
    parser.add_argument("change", help="git revision, or . for the working tree")
    parser.add_argument(
        "--workloads", type=lambda text: text.split(","),
        default=[w["name"] for w in bench["workloads"]], help="comma-separated workload names",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="pair i runs seed S+i")
    parser.add_argument("--claim", default="none", help="the gain claimed, if any")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10: fewer pairs cannot show a gain or a bound")

    try:
        labels = {side: label(getattr(args, side)) for side in ("parent", "change")}
        out = ROOT / f"BENCH_{labels['parent'].removesuffix('+worktree')}.json"
        if out.exists():  # a committed record is evidence; never run over it
            raise RunError(f"{out.name} exists; move it away to record a new run")
        with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
            trees = {side: Path(tmp) / side for side in ("parent", "change")}
            for side, tree in trees.items():
                export(getattr(args, side), tree)
            workloads = run_pairs(args, bench, trees)
    except (RunError, subprocess.CalledProcessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    first = workloads[args.workloads[0]][0]
    out.write_text(json.dumps({
        "parent": labels["parent"],
        "change": labels["change"],
        "claim": args.claim,
        "command": (
            f"python3 tools/bench_pairs.py {shlex.join(sys.argv[1:] if argv is None else argv)}: "
            f"each run is python3 perfbench/run.py --workload W --seed S --seconds "
            f"{bench['run_seconds']} from the root of each exported tree, with "
            f"{', '.join(UNSET)} unset and PYTHONDONTWRITEBYTECODE=1; pair i runs seed S+i "
            "and 'first' names the side that ran first"
        ),
        "environment": {**first["parent"]["record"]["record"]["environment"], "git_sha": labels},
        "workloads": workloads,
    }, indent=1) + "\n")
    print(report(workloads, bench["end_to_end"]))
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
