"""Span tracing for the contradist benchmark, installed from outside the package.

`install` replaces public functions of `contradist` with timing wrappers at
every name a caller looks them up by: `trainer` binds `forward` at import, so
the wrapper goes on `contradist.trainer.forward` as well as on
`contradist.model.forward`.  Methods (`Rng.*`, `Adam.step`, `Sgd.step`,
`ModelParams.__post_init__`) are wrapped on their class.  Nothing inside
`src/contradist` changes.

A span is `[name, start_ns, end_ns, parent, attrs]`; `parent` is the index of
the enclosing span in the same process, or -1.  Spans stay in memory until
`dump` writes them out.  Forked sweep workers start with an empty span list
and dump their spans after every cell, because pool workers exit without
running exit handlers.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# Per-layer metrics that must repeat exactly between units and runs on one
# seed.  Later changes may state reductions of these as counts.
EXACT_COUNTS = (
    "model.forward_calls",
    "model.forwards_per_step",
    "model.gemm_flops",
    "model.param_validations",
    "losses.mmd_bytes",
    "rng.draws",
    "trainer.steps",
    "evaluation.predict_rows",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._dumps = 0

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._dumps = 0

    def open(self, name: str, attrs: dict | None = None) -> int | None:
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int | None, attrs: dict | None = None) -> None:
        if idx is None:
            return
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        if attrs:
            span[4] = {**(span[4] or {}), **attrs}
        self._stack.pop()

    def wrap(self, fn, name: str, meta=None):
        """Wrap fn in a span; meta(args, result) returns the span's attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, meta(args, result) if meta is not None else None)
            return result

        return traced

    def dump(self, directory: str | os.PathLike, tag: str) -> None:
        """Write this process's spans to directory and forget them."""
        path = Path(directory) / f"{os.getpid()}-{tag}-{self._dumps}.json"
        self._dumps += 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)
        self.spans = []
        self._stack = []


def load_dumps(directory: str | os.PathLike) -> list[list[list]]:
    """Span lists of every dump in directory, one list per dump."""
    out = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh)["spans"])
    return out


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _layer_macs(dims) -> int:
    return sum(int(a) * int(b) for a, b in zip(dims[:-1], dims[1:]))


def _forward_meta(args, result):
    rows = _rows(args[1])
    return {"rows": rows, "flops": 2 * rows * _layer_macs(args[0].layer_dims)}


def _backward_meta(args, result):
    # two GEMMs per layer: a_prev.T @ delta and delta @ W.T
    rows = _rows(args[1].inputs)
    return {"rows": rows, "flops": 4 * rows * _layer_macs(args[0].layer_dims)}


def _mmd_meta(args, result):
    # computed bytes of the float64 (n, m, d) difference tensors the direct
    # form materialises: aa, bb, ab for the distances, then aa, bb, ab and
    # -ab again for the gradients
    n_a, d = np.shape(args[0])
    n_b = _rows(args[1])
    return {"bytes": 8 * d * (2 * n_a * n_a + 2 * n_b * n_b + 3 * n_a * n_b)}


def _draws_meta(args, result):
    return {"draws": int(args[1])}


def _csv_meta(args, result):
    ds = result if result is not None else args[0]
    return {"rows": int(ds.n)}


def _cell_meta(args, result):
    return {"ok": bool(result and result.get("ok"))}


def install(tracer: Tracer, dump_dir: str | None = None) -> None:
    """Wrap contradist's public functions so calls record spans in tracer.

    With dump_dir set, each sweep cell run in a forked worker writes its
    spans there when it finishes.
    """
    import contradist
    from contradist import cli, dataset, evaluation, losses, model, rng, trainer

    modules = (contradist, rng, dataset, model, losses, trainer, evaluation, cli)

    def everywhere(owner, attr: str, name: str, meta=None) -> None:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, name, meta)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def on_class(cls, attr: str, name: str, meta=None) -> None:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, meta))

    on_class(rng.Rng, "next_u64", "rng.next_u64", lambda a, r: {"draws": 1})
    on_class(rng.Rng, "uniform", "rng.uniform", _draws_meta)
    on_class(rng.Rng, "normal", "rng.normal", _draws_meta)
    on_class(rng.Rng, "permutation", "rng.permutation", _draws_meta)

    everywhere(dataset, "make_blobs", "dataset.make_blobs")
    everywhere(dataset, "split", "dataset.split")
    everywhere(dataset, "load_csv", "dataset.load_csv", _csv_meta)
    everywhere(dataset, "save_csv", "dataset.save_csv", _csv_meta)

    everywhere(model, "forward", "model.forward", _forward_meta)
    everywhere(model, "backward", "model.backward", _backward_meta)
    everywhere(model, "save_checkpoint", "model.checkpoint")
    everywhere(model, "load_checkpoint", "model.checkpoint")
    on_class(model.ModelParams, "__post_init__", "model.validate")

    everywhere(losses, "ce_loss", "losses.ce")
    everywhere(losses, "pseudo_label_select", "losses.select")
    everywhere(losses, "contradistinguish_loss", "losses.contradist")
    everywhere(losses, "adv_multilabel_loss", "losses.adv")
    everywhere(losses, "multi_source_supervised", "losses.multi_source")
    everywhere(losses, "kernel_mmd", "losses.mmd", _mmd_meta)

    everywhere(trainer, "train", "trainer.train")
    everywhere(trainer, "sample_fake_gaussian", "trainer.fake_gauss")
    everywhere(trainer, "generator_step", "trainer.generator_step")
    on_class(trainer.Adam, "step", "trainer.optimizer")
    on_class(trainer.Sgd, "step", "trainer.optimizer")

    everywhere(evaluation, "predict", "evaluation.predict", lambda a, r: {"rows": _rows(a[1])})
    everywhere(evaluation, "compute_metrics", "evaluation.metrics")
    everywhere(evaluation, "contour_grid", "evaluation.contour")
    everywhere(evaluation, "save_contour_csv", "evaluation.contour_csv")

    cell = tracer.wrap(cli._run_sweep_cell, "cli.cell", _cell_meta)
    if dump_dir is not None:
        traced_cell = cell

        @functools.wraps(cli._run_sweep_cell)
        def cell(payload):
            try:
                return traced_cell(payload)
            finally:
                if tracer.enabled:
                    tracer.dump(dump_dir, "cell")

    cli._run_sweep_cell = cell

    class TracedPool(ProcessPoolExecutor):
        """The sweep pool, with its lifetime recorded as a span."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._span = tracer.open("cli.pool", {"workers": self._max_workers})

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            span, self._span = self._span, None
            tracer.close(span)

    cli.ProcessPoolExecutor = TracedPool
    os.register_at_fork(after_in_child=tracer.reset)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

# span name -> metric that sums the span's inclusive duration
_INCLUSIVE_S = {
    "dataset.make_blobs": "dataset.make_blobs_s",
    "dataset.split": "dataset.split_s",
    "dataset.load_csv": "dataset.load_csv_s",
    "dataset.save_csv": "dataset.save_csv_s",
    "model.checkpoint": "model.checkpoint_s",
    "losses.ce": "losses.ce_s",
    "losses.select": "losses.select_s",
    "losses.contradist": "losses.contradist_s",
    "losses.adv": "losses.adv_s",
    "losses.multi_source": "losses.multi_source_s",
    "trainer.optimizer": "trainer.optimizer_s",
    "trainer.fake_gauss": "trainer.fake_gauss_s",
    "trainer.generator_step": "trainer.generator_step_s",
    "evaluation.predict": "evaluation.predict_s",
    "evaluation.metrics": "evaluation.metrics_s",
    "evaluation.contour": "evaluation.contour_s",
    "evaluation.contour_csv": "evaluation.contour_csv_s",
}

# span name -> metric that sums the span's self time
_SELF_S = {
    "model.forward": "model.forward_self_s",
    "model.backward": "model.backward_self_s",
    "losses.mmd": "losses.mmd_self_s",
    "trainer.train": "trainer.self_s",
}

# every per-layer metric with its unit, in report order
PER_LAYER_UNITS = {
    "rng.calls": "count",
    "rng.draws": "count",
    "rng.self_s": "s",
    "dataset.make_blobs_s": "s",
    "dataset.split_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.load_csv_rows": "count",
    "dataset.save_csv_s": "s",
    "dataset.save_csv_rows": "count",
    "model.forward_calls": "count",
    "model.forward_rows": "count",
    "model.forward_self_s": "s",
    "model.backward_calls": "count",
    "model.backward_self_s": "s",
    "model.forwards_per_step": "count",
    "model.gemm_flops": "flop",
    "model.param_validations": "count",
    "model.checkpoint_s": "s",
    "losses.ce_s": "s",
    "losses.select_s": "s",
    "losses.contradist_s": "s",
    "losses.adv_s": "s",
    "losses.multi_source_s": "s",
    "losses.mmd_calls": "count",
    "losses.mmd_self_s": "s",
    "losses.mmd_bytes": "B",
    "trainer.steps": "count",
    "trainer.optimizer_s": "s",
    "trainer.fake_gauss_s": "s",
    "trainer.generator_step_s": "s",
    "trainer.self_s": "s",
    "evaluation.predict_calls": "count",
    "evaluation.predict_rows": "count",
    "evaluation.predict_s": "s",
    "evaluation.metrics_s": "s",
    "evaluation.contour_s": "s",
    "evaluation.contour_csv_s": "s",
    "cli.cells": "count",
    "cli.cell_s_p50": "s",
    "cli.cell_wait_s": "s",
    "cli.pool_busy_frac": "ratio",
    "cli.cells_failed": "count",
    "trace.overhead_frac": "ratio",
}


def unit_metrics(dumps: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one unit from the span lists of its processes.

    `_self_s` metrics exclude the time covered by child spans; the other
    `_s` metrics are inclusive call durations.  Counts are exact;
    `model.gemm_flops` and `losses.mmd_bytes` are computed from call shapes.
    """
    m = {name: 0 for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
    m["cli.cell_s_p50"] = 0.0
    cells: list[list] = []
    pools: list[list] = []
    trainer_forwards = 0
    for spans in dumps:
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            attrs = attrs or {}  # a call that raised has no attributes
            dur = (end - start) * 1e-9
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name.startswith("rng."):
                if not parent_name.startswith("rng."):  # Box-Muller's uniforms are one call
                    m["rng.calls"] += 1
                    m["rng.draws"] += attrs.get("draws", 0)
                    m["rng.self_s"] += dur
                continue
            if name in _INCLUSIVE_S:
                m[_INCLUSIVE_S[name]] += dur
            if name in _SELF_S:
                m[_SELF_S[name]] += dur - child_ns[i] * 1e-9
            if name == "dataset.load_csv":
                m["dataset.load_csv_rows"] += attrs.get("rows", 0)
            elif name == "dataset.save_csv":
                m["dataset.save_csv_rows"] += attrs.get("rows", 0)
            elif name in ("model.forward", "model.backward"):
                kind = name.split(".")[1]
                m[f"model.{kind}_calls"] += 1
                m["model.gemm_flops"] += attrs.get("flops", 0)
                if kind == "forward":
                    m["model.forward_rows"] += attrs.get("rows", 0)
                    if _under_training_step(spans, parent):
                        trainer_forwards += 1
            elif name == "model.validate":
                m["model.param_validations"] += 1
            elif name == "losses.mmd":
                m["losses.mmd_calls"] += 1
                m["losses.mmd_bytes"] += attrs.get("bytes", 0)
            elif name == "trainer.optimizer" and parent_name == "trainer.train":
                m["trainer.steps"] += 1
            elif name == "evaluation.predict":
                m["evaluation.predict_calls"] += 1
                m["evaluation.predict_rows"] += attrs.get("rows", 0)
            elif name == "cli.cell":
                cells.append(spans[i])
            elif name == "cli.pool":
                pools.append(spans[i])
    if m["trainer.steps"]:
        m["model.forwards_per_step"] = trainer_forwards / m["trainer.steps"]
    if cells:
        m["cli.cells"] = len(cells)
        m["cli.cells_failed"] = sum(1 for c in cells if not (c[4] or {}).get("ok"))
        m["cli.cell_s_p50"] = statistics.median((c[2] - c[1]) * 1e-9 for c in cells)
    if cells and pools:
        pool = pools[0]
        m["cli.cell_wait_s"] = statistics.fmean((c[1] - pool[1]) * 1e-9 for c in cells)
        busy = sum(c[2] - c[1] for c in cells)
        m["cli.pool_busy_frac"] = busy / (pool[4]["workers"] * (pool[2] - pool[1]))
    return m


def _under_training_step(spans: list[list], parent: int) -> bool:
    """True when a forward was issued by train() itself, not by predict()."""
    while parent >= 0:
        name = spans[parent][0]
        if name == "evaluation.predict":
            return False
        if name == "trainer.train":
            return True
        parent = spans[parent][3]
    return False
