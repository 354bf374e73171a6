"""Command-line interface.

Subcommands: gen-data, train, eval, contour, sweep.  Every command echoes
its resolved configuration into the output directory so a run can be
reproduced from the config file plus the seed.  Flags override config-file
fields.  Exit codes: 0 success, 1 validation error or a path that names
no file or a file of the wrong kind, 2 runtime/numeric error.

Each command imports only the modules it runs: gen-data loads no network
code, eval and contour no trainer, and only sweep loads the process pool,
after every module its cells run, so no forked worker imports one.
"""

from __future__ import annotations

if __name__ == "__main__":  # python -m contradist.cli: before NumPy loads
    from .__main__ import run_command, start_command

    start_command()

import argparse
import itertools
import json
import os
import sys
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dataset import (
    BlobSpec,
    DomainDataset,
    load_csv,
    make_blobs,
    preset_domains,
    preset_names,
    save_csv,
    split,
    train_rows,
)
from .errors import (
    CheckpointError,
    CsvParseError,
    NumericError,
    ShapeError,
    ValidationError,
    check_keys,
)
from .files import write_atomic

if TYPE_CHECKING:
    from .trainer import TrainConfig

SCHEMA_VERSION = 1
THREADS_ENV = "CONTRADIST_THREADS"

# JSON type of every top-level key of the gen-data and train config files
_GEN_DATA_TYPES = dict(
    schema_version=int, seed=int, samples_per_class=int, train_fraction=float,
    preset=str, domains=dict, out_dir=str,
)
_TRAIN_TYPES = dict(
    schema_version=int, data_dir=str, sources=list, target=str, out_dir=str, train=dict
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors (exit 1)
        raise ValidationError(message)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported config schema version {version}")
    return obj


def _check_config(cfg: dict, types: dict, where: str) -> None:
    """Fail on an unknown key or a value of the wrong JSON type."""
    check_keys(cfg, types, where)
    for key, value in cfg.items():
        if isinstance(value, bool) or not isinstance(value, types[key]):
            raise ValidationError(
                f"{where} key {key!r} must be of type {types[key].__name__}, got {value!r}"
            )


def _echo_config(out_dir: str, name: str, obj: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_atomic(os.path.join(out_dir, name), [json.dumps(obj, indent=2) + "\n"])


def _given_flags(args, names: Iterable[str]) -> dict:
    """The named flags that were given on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


# type= parsers: each turns a flag's text into the value of the config key it sets
def _csv_list(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"empty list argument {text!r}")
    return items


def _numbers(text: str, kind: type = float) -> list:
    try:
        return [kind(item) for item in _csv_list(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _term_weights(text: str) -> dict[str, str]:
    weights = {}
    for item in _csv_list(text):
        term, _, value = item.partition("=")
        if not value:
            raise argparse.ArgumentTypeError(f"bad --weights item {item!r}, expected term=value")
        weights[term] = value
    return weights


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def _make_splits(
    specs: dict[str, BlobSpec], train_fraction: float
) -> dict[str, tuple[DomainDataset, DomainDataset]]:
    """Generate each blob domain and split it into (train, test)."""
    return {
        domain_id: split(make_blobs(spec, domain_id=domain_id), train_fraction, spec.seed)
        for domain_id, spec in specs.items()
    }


def cmd_gen_data(args) -> int:
    flags = _given_flags(args, ("preset", "seed", "samples_per_class", "out_dir"))
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "seed": 0,
        "samples_per_class": 2000,
        "train_fraction": 0.5,
        **_load_config_file(args.config),
        **flags,
    }
    if "preset" not in cfg and not cfg.get("domains"):
        raise ValidationError(
            f"need --preset or a config with domains; presets: {', '.join(preset_names())}"
        )
    if "out_dir" not in cfg:
        raise ValidationError("need --out (or out_dir in the config)")
    _check_config(cfg, _GEN_DATA_TYPES, "gen-data config file")

    if "domains" in cfg:
        if "preset" in cfg:
            raise ValidationError("give a preset or explicit domains, not both")
        if "seed" in flags or "samples_per_class" in flags:
            raise ValidationError(
                "--seed and --samples-per-class apply to a preset; explicit domains "
                "take seed and samples_per_class from each blob spec"
            )
        specs = {name: BlobSpec.from_dict(spec) for name, spec in cfg["domains"].items()}
    else:
        specs = preset_domains(cfg["preset"], cfg["seed"], cfg["samples_per_class"])
    out_dir = cfg["out_dir"]
    splits = _make_splits(specs, cfg["train_fraction"])
    _echo_config(out_dir, "gen_config.json", cfg)
    for domain_id, pair in splits.items():
        for ds, name in zip(pair, ("train", "test")):
            save_csv(ds, os.path.join(out_dir, f"{domain_id}_{name}.csv"))
            counts = np.bincount(ds.labels, minlength=specs[domain_id].num_classes)
            pretty = ", ".join(f"class {c}: {n}" for c, n in enumerate(counts))
            print(f"{domain_id} {name}: {ds.n} rows ({pretty})")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


# train flags that set the train key of their own name
_TRAIN_FLAGS = (
    "epochs", "batch_size", "lr", "optimizer", "seed", "terms", "hidden_dims", "prior",
    "term_weights",
)


def _train_config_from_args(args, file_train: dict) -> TrainConfig:
    from .trainer import train_config_from_dict

    train = {**file_train, **_given_flags(args, _TRAIN_FLAGS)}
    if args.fake_sampler == "gaussian":
        train["fake_sampler"] = "gaussian_input"
    elif args.fake_sampler == "generator" and not isinstance(train.get("fake_sampler"), dict):
        train["fake_sampler"] = {}
    return train_config_from_dict(train)


def _load_domain(data_dir: str, name: str, suffix: str) -> DomainDataset:
    return load_csv(os.path.join(data_dir, f"{name}_{suffix}.csv"), domain_id=name)


def _train_and_score(
    cfg: TrainConfig,
    sources: list[tuple[DomainDataset, DomainDataset]],
    target: tuple[DomainDataset, DomainDataset],
    out_dir: str,
) -> tuple[float, float]:
    """Train on (train, test) splits; write model.ckpt, history.jsonl and
    metrics_{source,target}_test.json to out_dir; return both accuracies.
    Scoring comes first, so a model whose outputs overflow writes none of them.

    The source test sets are pooled into one score; every test set must be
    labeled with the sources' classes (cmd_train checks before it writes,
    preset cells always are).
    """
    from .evaluation import compute_metrics, predict
    from .model import save_checkpoint
    from .trainer import train

    target_train, target_test = target
    params, history = train(cfg, [tr for tr, _ in sources], target_train.without_labels())
    k = params.num_classes
    source_x = np.vstack([te.features for _, te in sources])
    source_y = np.concatenate([te.labels for _, te in sources])
    metrics = (
        compute_metrics(predict(params, source_x), source_y, k),
        compute_metrics(predict(params, target_test.features), target_test.labels, k),
    )

    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(params, os.path.join(out_dir, "model.ckpt"))
    history.save_jsonl(os.path.join(out_dir, "history.jsonl"))
    for m, name in zip(metrics, ("source_test", "target_test")):
        write_atomic(os.path.join(out_dir, f"metrics_{name}.json"), [m.to_json() + "\n"])
    return metrics[0].accuracy, metrics[1].accuracy


# the run paths of train: config key -> the flag that overrides it
_RUN_FLAGS = {
    "data_dir": "--data-dir", "sources": "--sources", "target": "--target", "out_dir": "--out"
}


def cmd_train(args) -> int:
    from .trainer import validate_inputs

    file_cfg = _load_config_file(args.config)
    _check_config(file_cfg, _TRAIN_TYPES, "train config file")
    run = {key: file_cfg.get(key) for key in _RUN_FLAGS} | _given_flags(args, _RUN_FLAGS)
    for key, flag in _RUN_FLAGS.items():
        if not run[key]:
            raise ValidationError(f"{flag} is required (flag or config)")
    data_dir, sources, target, out_dir = run.values()
    for i, name in enumerate([*sources, target]):  # a target's labels must not supervise
        if name in sources[:i]:
            raise ValidationError(f"domain {name!r} is given twice: sources and target must differ")
    cfg = _train_config_from_args(args, file_cfg.get("train", {}))
    splits = ("train", "test")
    source_sets = [tuple(_load_domain(data_dir, name, s) for s in splits) for name in sources]
    target_sets = tuple(_load_domain(data_dir, target, s) for s in splits)
    k = validate_inputs(cfg, [tr for tr, _ in source_sets], target_sets[0].without_labels())
    scored = [("source", test) for _, test in source_sets] + [("target", target_sets[1])]
    for role, test in scored:
        if test.labels is None:
            raise ValidationError(f"{role} test set {test.domain_id!r} has no labels to score")
        if test.labels.max() >= k:
            raise ValidationError(
                f"{role} test set {test.domain_id!r} has label {test.labels.max()}, "
                f"but the sources have {k} classes"
            )

    resolved = {"schema_version": SCHEMA_VERSION, **run, "train": asdict(cfg)}
    _echo_config(out_dir, "config.json", resolved)
    source_acc, target_acc = _train_and_score(cfg, source_sets, target_sets, out_dir)
    print(f"source test accuracy: {source_acc:.4f}")
    print(f"target test accuracy: {target_acc:.4f}")
    return 0


# ---------------------------------------------------------------------------
# eval / contour
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    from .evaluation import compute_metrics, predict
    from .model import load_checkpoint

    params = load_checkpoint(args.checkpoint)
    ds = load_csv(args.data, k=params.num_classes)
    if ds.labels is None:
        raise ValidationError(f"{args.data}: dataset is unlabeled, cannot score it")
    text = compute_metrics(predict(params, ds.features), ds.labels, params.num_classes).to_json()
    if args.out is not None:  # written first, so a bad --out prints nothing
        write_atomic(args.out, [text + "\n"])
    print(text)
    return 0


def cmd_contour(args) -> int:
    from .evaluation import contour_grid, default_bounds, save_contour_csv
    from .model import load_checkpoint

    params = load_checkpoint(args.checkpoint)
    if args.bounds is not None and len(args.bounds) != 4:
        raise ValidationError("--bounds needs x_min,x_max,y_min,y_max")
    bounds = args.bounds or default_bounds(load_csv(args.data).features)
    grid = contour_grid(params, bounds, args.resolution)
    save_contour_csv(grid, args.out)
    print(f"wrote {len(grid.points)} grid rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# training cells (sweep and the acceptance suite)
# ---------------------------------------------------------------------------


CELL_TRAIN_FRACTION = 0.5


@dataclass(frozen=True)
class Cell:
    """One preset training run, built and checked before any cell runs: the
    preset's blob specs, the train config, the (source, target) domain ids
    and the directory its artifacts go to."""

    specs: dict[str, BlobSpec]
    cfg: TrainConfig
    pair: tuple[str, str]
    out_dir: str


def build_cell(
    preset: str, pair: tuple[str, str], seed: int, samples_per_class: int, section: dict,
    out_dir: str,
) -> Cell:
    """A checked cell; `section` is a config file's train section, less its seed."""
    from .trainer import train_config_from_dict

    specs = preset_domains(preset, seed, samples_per_class)
    for spec in specs.values():  # every class of a preset domain has the same size
        train_rows(spec.samples_per_class, CELL_TRAIN_FRACTION)
    return Cell(specs, train_config_from_dict({**section, "seed": seed}), pair, out_dir)


def _run_sweep_cell(cell: Cell) -> dict:
    """Generate, split, train and score one cell in its own directory.

    The result's row holds both test accuracies and the cell's wall seconds.
    Any exception becomes a failed-cell record with its traceback, so one
    bad cell cannot stop the others.
    """
    start = time.perf_counter()
    try:
        datasets = _make_splits(cell.specs, CELL_TRAIN_FRACTION)
        source, target = cell.pair
        source_acc, target_acc = _train_and_score(
            cell.cfg, [datasets[source]], datasets[target], cell.out_dir
        )
    except Exception as exc:
        import traceback

        return {
            "ok": False,
            "cell": cell.out_dir,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    seconds = time.perf_counter() - start
    row = {"source_acc": source_acc, "target_acc": target_acc, "seconds": seconds}
    return {"ok": True, "row": row}


def cell_workers() -> int:
    """How many cells run at once: CONTRADIST_THREADS, else the CPU count."""
    threads = os.environ.get(THREADS_ENV, str(os.cpu_count() or 1))
    try:
        workers = int(threads)
    except ValueError as exc:
        raise ValidationError(f"{THREADS_ENV} must be an integer, got {threads!r}") from exc
    if workers < 1:
        raise ValidationError(f"{THREADS_ENV} must be at least 1, got {threads!r}")
    return workers


# The sweep pool's class, bound by run_cells on first use: concurrent.futures
# loads multiprocessing, logging and traceback, which no other command runs.
# run_cells reads this global at call time, so a caller may swap in its own
# class (perfbench's tracer does).
ProcessPoolExecutor = None


def run_cells(cells: list[Cell], workers: int) -> list[dict]:
    """Every cell's _run_sweep_cell result, in cell order: run in this
    process with one worker, else in a fork pool of that many workers.

    The pool gets the cells longest first, so no worker starts a long cell
    while the other workers run out of cells.  Cells of one sweep differ in
    cost by their term set, so the cells with more terms go first; cells
    with as many terms keep their cell order.  A worker that dies (killed
    for memory, say) ends the sweep with ChildProcessError.
    """
    global ProcessPoolExecutor
    # every module a cell runs loads here, so no forked worker compiles one
    import traceback  # noqa: F401

    from . import evaluation, trainer  # noqa: F401

    workers = min(workers, len(cells))
    if workers <= 1:
        return [_run_sweep_cell(cell) for cell in cells]
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    order = sorted(range(len(cells)), key=lambda i: -len(cells[i].cfg.terms))
    results = [None] * len(cells)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, result in zip(order, pool.map(_run_sweep_cell, [cells[i] for i in order])):
                results[i] = result
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a sweep worker died: {exc}") from exc
    return results


def cmd_sweep(args) -> int:
    workers = cell_workers()
    directions = ["d0->d1", "d1->d0"] if args.directions == "both" else [args.directions]

    base_train = _given_flags(args, ("epochs", "batch_size", "lr"))

    out_dir = args.out
    keys = list(itertools.product(args.presets, directions, args.term_sets, args.seeds))
    cells, names = [], set()
    # a bad setting fails here, before anything is written
    for preset, direction, terms, seed in keys:
        name = f"{preset}_{direction.replace('->', '_to_')}_{'+'.join(terms)}_s{seed}"
        if name in names:
            raise ValidationError(f"repeated sweep cell {name}")
        names.add(name)
        cells.append(
            build_cell(
                preset, tuple(direction.split("->")), seed, args.samples_per_class,
                {**base_train, "terms": terms}, os.path.join(out_dir, "cells", name),
            )
        )
    _echo_config(
        out_dir,
        "sweep_config.json",
        {
            "schema_version": SCHEMA_VERSION,
            "presets": args.presets,
            "directions": directions,
            "term_sets": ["+".join(t) for t in args.term_sets],
            "seeds": args.seeds,
            "samples_per_class": args.samples_per_class,
            "train": base_train,
        },
    )

    results = run_cells(cells, workers)
    rows = [(key, res["row"]) for key, res in zip(keys, results) if res["ok"]]
    failures = [res for res in results if not res["ok"]]
    write_atomic(
        os.path.join(out_dir, "summary.csv"),
        ["preset,direction,terms,seed,source_acc,target_acc,seconds\n"]
        + [
            f"{preset},{direction},{'+'.join(terms)},{seed},"
            f"{row['source_acc']!r},{row['target_acc']!r},{row['seconds']:.3f}\n"
            for (preset, direction, terms, seed), row in rows
        ],
    )
    if failures:
        write_atomic(os.path.join(out_dir, "failures.json"), [json.dumps(failures, indent=2)])
        for failure in failures:
            print(f"cell failed: {failure['cell']}: {failure['error']}", file=sys.stderr)
    print(f"{len(rows)} of {len(cells)} cells succeeded; summary in {out_dir}/summary.csv")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contradist", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", help="generate preset blob domains as CSVs")
    p.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples-per-class", type=int)
    p.add_argument("--config", help="JSON config (flags override fields)")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on labeled sources plus an unlabeled target")
    p.add_argument("--config", help="JSON config (flags override fields)")
    p.add_argument("--data-dir")
    p.add_argument("--sources", type=_csv_list, help="comma-separated source domain names")
    p.add_argument("--target")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--terms", type=_csv_list, help="comma-separated subset of ss,su,tu,sa,ta")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--optimizer", choices=["adam", "sgd"])
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-dims", type=_csv_list, help="comma-separated hidden layer widths")
    p.add_argument(
        "--prior", help="'estimate' or comma-separated probabilities",
        type=lambda text: "estimate_from_source" if text == "estimate" else _csv_list(text),
    )
    p.add_argument("--fake-sampler", choices=("gaussian", "generator"))
    p.add_argument(
        "--weights", dest="term_weights", type=_term_weights,
        help="term=value list, e.g. ss=1.0,tu=0.5",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a labeled CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="also write the metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("contour", help="export decision-boundary grid CSV")
    p.add_argument("--checkpoint", required=True)
    frame = p.add_mutually_exclusive_group(required=True)
    frame.add_argument("--bounds", type=_numbers, help="x_min,x_max,y_min,y_max")
    frame.add_argument("--data", help="CSV whose bounding box (+20%% per side) frames the grid")
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("sweep", help="run a preset x terms x seed matrix")
    p.add_argument("--presets", type=_csv_list, required=True)
    p.add_argument(
        "--term-sets", type=lambda text: [tuple(_csv_list(part)) for part in text.split("|")],
        required=True, help="'|'-separated term lists, e.g. 'ss|ss,tu,ta'",
    )
    p.add_argument("--seeds", type=lambda text: _numbers(text, int), required=True)
    p.add_argument("--directions", default="both", choices=("both", "d0->d1", "d1->d0"))
    p.add_argument("--samples-per-class", type=int, default=2000)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help()
            return 1
        # a non-finite result ends in one error line from its check, not warnings
        with np.errstate(all="ignore"):
            return int(args.func(args) or 0)
    except (
        ValidationError, CsvParseError, ShapeError,
        FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError,
    ) as exc:  # the last four: a path that names no file, or one of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run_command(main))
