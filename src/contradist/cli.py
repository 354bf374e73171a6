"""Command-line interface.

Subcommands: gen-data, train, eval, contour, sweep.  Every command echoes
its resolved configuration into the output directory so a run can be
reproduced from the config file plus the seed.  Flags override config-file
fields.  Exit codes: 0 success, 1 validation error, 2 runtime/numeric
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

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
)
from .errors import (
    CheckpointError,
    ContradistError,
    CsvParseError,
    NumericError,
    ShapeError,
    ValidationError,
)
from .evaluation import compute_metrics, contour_grid, default_bounds, predict, save_contour_csv
from .model import load_checkpoint, save_checkpoint
from .trainer import TrainConfig, train, train_config_from_dict, train_config_to_dict

SCHEMA_VERSION = 1
THREADS_ENV = "CONTRADIST_THREADS"


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


def _echo_config(out_dir: str, name: str, obj: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _given_flags(args, names: tuple[str, ...]) -> dict:
    """The named flags that were given on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _parse_csv_list(text: str) -> list[str]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValidationError(f"empty list argument {text!r}")
    return items


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def _gen_data_domains(cfg: dict) -> dict[str, BlobSpec]:
    if "domains" in cfg:
        return {name: BlobSpec.from_dict(spec) for name, spec in cfg["domains"].items()}
    return preset_domains(cfg["preset"], cfg["seed"], cfg["samples_per_class"])


def _make_splits(
    specs: dict[str, BlobSpec], train_fraction: float
) -> dict[str, tuple[DomainDataset, DomainDataset]]:
    """Generate each blob domain and split it into (train, test)."""
    return {
        domain_id: split(make_blobs(spec, domain_id=domain_id), train_fraction, spec.seed)
        for domain_id, spec in specs.items()
    }


def cmd_gen_data(args) -> int:
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "seed": 0,
        "samples_per_class": 2000,
        "train_fraction": 0.5,
    }
    cfg.update(_load_config_file(args.config))
    if args.preset is not None:
        cfg["preset"] = args.preset
        cfg.pop("domains", None)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.samples_per_class is not None:
        cfg["samples_per_class"] = args.samples_per_class
    if args.out is not None:
        cfg["out_dir"] = args.out
    if "preset" not in cfg and "domains" not in cfg:
        raise ValidationError(
            f"need --preset or a config with domains; presets: {', '.join(preset_names())}"
        )
    if "out_dir" not in cfg:
        raise ValidationError("need --out (or out_dir in the config)")

    specs = _gen_data_domains(cfg)
    out_dir = cfg["out_dir"]
    _echo_config(out_dir, "gen_config.json", cfg)
    for domain_id, pair in _make_splits(specs, cfg["train_fraction"]).items():
        for ds, name in zip(pair, ("train", "test")):
            save_csv(ds, os.path.join(out_dir, f"{domain_id}_{name}.csv"))
            counts = np.bincount(ds.labels, minlength=specs[domain_id].num_classes)
            pretty = ", ".join(f"class {c}: {n}" for c, n in enumerate(counts))
            print(f"{domain_id} {name}: {ds.n} rows ({pretty})")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_config_from_args(args, file_train: dict) -> TrainConfig:
    if not isinstance(file_train, dict):
        raise ValidationError("the train section of the config must be a JSON object")
    flags = _given_flags(args, ("epochs", "batch_size", "lr", "optimizer", "seed"))
    merged = {**file_train, **flags}
    if args.terms is not None:
        merged["terms"] = _parse_csv_list(args.terms)
    if args.hidden_dims is not None:
        merged["hidden_dims"] = _parse_csv_list(args.hidden_dims)
    if args.prior is not None:
        if args.prior == "estimate":
            merged["prior"] = "estimate_from_source"
        else:
            merged["prior"] = _parse_csv_list(args.prior)
    if args.fake_sampler is not None:
        if args.fake_sampler == "gaussian":
            merged["fake_sampler"] = "gaussian_input"
        elif args.fake_sampler == "generator":
            sampler = merged.get("fake_sampler")
            merged["fake_sampler"] = sampler if isinstance(sampler, dict) else {}
        else:
            raise ValidationError("--fake-sampler must be gaussian or generator")
    if args.noise_dim is not None or args.gen_lr is not None:
        sampler = merged.get("fake_sampler")
        sampler = dict(sampler) if isinstance(sampler, dict) else {}
        if args.noise_dim is not None:
            sampler["noise_dim"] = args.noise_dim
        if args.gen_lr is not None:
            sampler["lr"] = args.gen_lr
        merged["fake_sampler"] = sampler
    if args.mmd_gamma is not None:
        merged["mmd_gamma"] = "median-heuristic" if args.mmd_gamma == "median" else args.mmd_gamma
    if args.weights is not None:
        weights = {}
        for item in _parse_csv_list(args.weights):
            term, _, value = item.partition("=")
            if not value:
                raise ValidationError(f"bad --weights item {item!r}, expected term=value")
            weights[term] = value
        merged["term_weights"] = weights
    return train_config_from_dict(merged)


def _load_domain(data_dir: str, name: str, suffix: str) -> DomainDataset:
    path = os.path.join(data_dir, f"{name}_{suffix}.csv")
    if not os.path.exists(path):
        raise ValidationError(f"missing dataset file {path}")
    return load_csv(path, domain_id=name, split=suffix)


def _train_and_score(
    cfg: TrainConfig,
    sources: list[tuple[DomainDataset, DomainDataset]],
    target: tuple[DomainDataset, DomainDataset],
    out_dir: str,
) -> tuple[float, float]:
    """Train on (train, test) splits; write model.ckpt, history.jsonl and
    metrics_{source,target}_test.json to out_dir; return both accuracies.

    The source test sets are pooled into one score.
    """
    target_train, target_test = target
    if target_test.labels is None:
        raise ValidationError(
            f"target test set {target_test.domain_id!r} has no labels to score"
        )
    params, history = train(cfg, [tr for tr, _ in sources], target_train.without_labels())

    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(params, os.path.join(out_dir, "model.ckpt"))
    history.save_jsonl(os.path.join(out_dir, "history.jsonl"))
    k = params.num_classes
    source_x = np.vstack([te.features for _, te in sources])
    source_y = np.concatenate([te.labels for _, te in sources])
    metrics = (
        compute_metrics(predict(params, source_x), source_y, k),
        compute_metrics(predict(params, target_test.features), target_test.labels, k),
    )
    for m, name in zip(metrics, ("source_test", "target_test")):
        with open(os.path.join(out_dir, f"metrics_{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(m.to_json() + "\n")
    return metrics[0].accuracy, metrics[1].accuracy


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    data_dir = args.data_dir or file_cfg.get("data_dir")
    sources = _parse_csv_list(args.sources) if args.sources else file_cfg.get("sources")
    target = args.target or file_cfg.get("target")
    out_dir = args.out or file_cfg.get("out_dir")
    for field_name, value in (
        ("--data-dir", data_dir),
        ("--sources", sources),
        ("--target", target),
        ("--out", out_dir),
    ):
        if not value:
            raise ValidationError(f"{field_name} is required (flag or config)")
    cfg = _train_config_from_args(args, file_cfg.get("train", {}))
    splits = ("train", "test")
    source_sets = [tuple(_load_domain(data_dir, name, s) for s in splits) for name in sources]
    target_sets = tuple(_load_domain(data_dir, target, s) for s in splits)

    resolved = {
        "schema_version": SCHEMA_VERSION,
        "data_dir": data_dir,
        "sources": list(sources),
        "target": target,
        "out_dir": out_dir,
        "train": train_config_to_dict(cfg),
    }
    _echo_config(out_dir, "config.json", resolved)
    source_acc, target_acc = _train_and_score(cfg, source_sets, target_sets, out_dir)
    print(f"source test accuracy: {source_acc:.4f}")
    print(f"target test accuracy: {target_acc:.4f}")
    return 0


# ---------------------------------------------------------------------------
# eval / contour
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    ds = load_csv(args.data, k=params.num_classes)
    if ds.labels is None:
        raise ValidationError(f"{args.data}: dataset is unlabeled, cannot score it")
    metrics = compute_metrics(predict(params, ds.features), ds.labels, params.num_classes)
    print(metrics.to_json())
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(metrics.to_json() + "\n")
    return 0


def cmd_contour(args) -> int:
    params = load_checkpoint(args.checkpoint)
    if args.bounds is not None:
        parts = [float(v) for v in _parse_csv_list(args.bounds)]
        if len(parts) != 4:
            raise ValidationError("--bounds needs x_min,x_max,y_min,y_max")
        bounds = (parts[0], parts[1], parts[2], parts[3])
    elif args.data is not None:
        bounds = default_bounds(load_csv(args.data).features)
    else:
        raise ValidationError("need --bounds or --data to frame the grid")
    grid = contour_grid(params, bounds, args.resolution)
    save_contour_csv(grid, args.out)
    print(f"wrote {grid.resolution ** 2} grid rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _run_sweep_cell(payload: dict) -> dict:
    """Run one (preset, direction, terms, seed) cell in its own directory."""
    try:
        specs = preset_domains(
            payload["preset"], payload["seed"], payload["samples_per_class"]
        )
        datasets = _make_splits(specs, payload["train_fraction"])
        src_id, tgt_id = payload["direction"].split("->")
        cfg = train_config_from_dict(
            {**payload["train"], "terms": list(payload["terms"]), "seed": payload["seed"]}
        )
        source_acc, target_acc = _train_and_score(
            cfg, [datasets[src_id]], datasets[tgt_id], payload["cell_dir"]
        )
        return {
            "ok": True,
            "row": {
                "preset": payload["preset"],
                "direction": payload["direction"],
                "terms": "+".join(payload["terms"]),
                "seed": payload["seed"],
                "source_acc": source_acc,
                "target_acc": target_acc,
            },
        }
    except (ContradistError, OSError) as exc:
        return {"ok": False, "cell": payload["cell_dir"], "error": str(exc)}


def cmd_sweep(args) -> int:
    presets = _parse_csv_list(args.presets)
    term_sets = [tuple(_parse_csv_list(chunk)) for chunk in args.term_sets.split("|")]
    seeds = [int(s) for s in _parse_csv_list(args.seeds)]
    if args.directions == "both":
        directions = ["d0->d1", "d1->d0"]
    else:
        directions = [args.directions]
    for direction in directions:
        if direction not in ("d0->d1", "d1->d0"):
            raise ValidationError(f"bad direction {direction!r}")

    base_train = _given_flags(args, ("epochs", "batch_size", "lr"))

    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    cells = []
    for preset in presets:
        for direction in directions:
            for terms in term_sets:
                for seed in seeds:
                    name = (
                        f"{preset}_{direction.replace('->', '_to_')}_"
                        f"{'+'.join(terms)}_s{seed}"
                    )
                    cells.append(
                        {
                            "preset": preset,
                            "direction": direction,
                            "terms": list(terms),
                            "seed": seed,
                            "samples_per_class": args.samples_per_class,
                            "train_fraction": 0.5,
                            "train": base_train,
                            "cell_dir": os.path.join(out_dir, "cells", name),
                        }
                    )
    _echo_config(
        out_dir,
        "sweep_config.json",
        {
            "schema_version": SCHEMA_VERSION,
            "presets": presets,
            "directions": directions,
            "term_sets": ["+".join(t) for t in term_sets],
            "seeds": seeds,
            "samples_per_class": args.samples_per_class,
            "train": base_train,
        },
    )

    workers = int(os.environ.get(THREADS_ENV, os.cpu_count() or 1))
    workers = max(1, min(workers, len(cells)))
    if workers == 1:
        results = [_run_sweep_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_sweep_cell, cells))

    rows = [res["row"] for res in results if res["ok"]]
    failures = [res for res in results if not res["ok"]]
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("preset,direction,terms,seed,source_acc,target_acc\n")
        for row in rows:
            fh.write(
                f"{row['preset']},{row['direction']},{row['terms']},{row['seed']},"
                f"{row['source_acc']!r},{row['target_acc']!r}\n"
            )
    if failures:
        with open(os.path.join(out_dir, "failures.json"), "w", encoding="utf-8") as fh:
            json.dump(failures, fh, indent=2)
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

    p = sub.add_parser("gen-data", parents=[], help="generate preset blob domains as CSVs")
    p.add_argument("--preset", help=f"one of: {', '.join(preset_names())}")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples-per-class", type=int)
    p.add_argument("--config", help="JSON config (flags override fields)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on labeled sources plus an unlabeled target")
    p.add_argument("--config", help="JSON config (flags override fields)")
    p.add_argument("--data-dir")
    p.add_argument("--sources", help="comma-separated source domain names")
    p.add_argument("--target")
    p.add_argument("--out")
    p.add_argument("--terms", help="comma-separated subset of ss,su,tu,sa,ta")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--optimizer", choices=["adam", "sgd"])
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-dims", help="comma-separated hidden layer widths")
    p.add_argument("--prior", help="'estimate' or comma-separated probabilities")
    p.add_argument("--fake-sampler", help="gaussian or generator")
    p.add_argument("--noise-dim", type=int)
    p.add_argument("--gen-lr", type=float)
    p.add_argument("--mmd-gamma", help="'median' or a positive real")
    p.add_argument("--weights", help="term=value list, e.g. ss=1.0,tu=0.5")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a labeled CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="also write the metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("contour", help="export decision-boundary grid CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bounds", help="x_min,x_max,y_min,y_max")
    p.add_argument("--data", help="CSV whose bounding box (+20%% per side) frames the grid")
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("sweep", help="run a preset x terms x seed matrix")
    p.add_argument("--presets", required=True)
    p.add_argument("--term-sets", required=True, help="'|'-separated term lists, e.g. 'ss|ss,tu,ta'")
    p.add_argument("--seeds", required=True)
    p.add_argument("--directions", default="both", help="both, d0->d1, or d1->d0")
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
        return int(args.func(args) or 0)
    except (ValidationError, CsvParseError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
