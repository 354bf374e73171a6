"""Inference, classification metrics, and decision-boundary grid export."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .blas import one_thread
from .dataset import write_rows
from .errors import NumericError, ValidationError
from .model import MAX_BATCH_ENTRIES, ModelParams, forward

# Every whole-set pass, predict's and the contour grid's, runs CHUNK_ROWS rows
# at a time, so only the rows and their probabilities grow with the set, not
# the hidden activations.  A layer wider than MAX_BATCH_ENTRIES / CHUNK_ROWS
# = 512 units gets fewer rows per chunk, so that no array of a chunk holds
# more than MAX_BATCH_ENTRIES entries.  The resolution is capped before the
# grid exists.
MAX_RESOLUTION = 1000
CHUNK_ROWS = 8192


@one_thread()
def _probs(params: ModelParams, x) -> np.ndarray:
    """forward's probabilities for the rows of x, one chunk at a time."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x) if x.ndim == 2 else 0
    rows = min(CHUNK_ROWS, max(1, MAX_BATCH_ENTRIES // max(params.layer_dims)))
    probs = np.empty((n, params.num_classes))
    for i in range(0, max(n, 1), rows):  # once at least, so forward checks every x
        probs[i : i + rows] = forward(params, x[i : i + rows] if n else x).probs
    if not np.isfinite(probs).all():  # finite weights can overflow; argmax reads NaN as 0
        raise NumericError("class probabilities are not finite: the forward pass overflows")
    return probs


def predict(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Per-row argmax of the softmax output; ties go to the lowest class."""
    return np.argmax(_probs(params, x), axis=1).astype(np.int64, copy=False)


@dataclass
class Metrics:
    """Accuracy, per-class precision/recall, confusion matrix (rows = true).

    A precision or recall whose denominator is zero is None, never 0, so
    averages over classes cannot be silently deflated.
    """

    accuracy: float
    per_class_precision: list[float | None]
    per_class_recall: list[float | None]
    confusion: np.ndarray
    n: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "accuracy": self.accuracy,
                "per_class_precision": self.per_class_precision,
                "per_class_recall": self.per_class_recall,
                "confusion": self.confusion.tolist(),
                "n": self.n,
            },
            indent=2,
        )


def compute_metrics(pred: np.ndarray, truth: np.ndarray, k: int) -> Metrics:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size == 0:
        raise ValidationError("pred and truth must be equal-length nonempty vectors")
    for name, v in (("pred", pred), ("truth", truth)):
        if v.min() < 0 or v.max() >= k:
            raise ValidationError(f"{name} contains ids outside [0, {k})")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, pred), 1)
    precision: list[float | None] = []
    recall: list[float | None] = []
    for c in range(k):
        col = confusion[:, c].sum()
        row = confusion[c, :].sum()
        precision.append(float(confusion[c, c] / col) if col > 0 else None)
        recall.append(float(confusion[c, c] / row) if row > 0 else None)
    accuracy = float(np.trace(confusion) / pred.size)
    return Metrics(accuracy, precision, recall, confusion, int(pred.size))


@dataclass
class ContourGrid:
    """Class probabilities over a regular 2-D grid, row-major with x fastest."""

    points: np.ndarray  # (resolution**2, 2)
    probs: np.ndarray  # (resolution**2, K)
    preds: np.ndarray  # (resolution**2,)


def contour_grid(
    params: ModelParams, bounds: tuple[float, float, float, float], resolution: int
) -> ContourGrid:
    """Evaluate the model on a regular grid spanning the given bounds."""
    if params.input_dim != 2:
        raise ValidationError("contour export needs a model with 2-D input")
    x_min, x_max, y_min, y_max = (float(v) for v in bounds)
    if not all(map(math.isfinite, (x_min, x_max, y_min, y_max, x_max - x_min, y_max - y_min))):
        raise ValidationError("bounds and their spans x_max - x_min, y_max - y_min must be finite")
    if not (x_min < x_max and y_min < y_max):
        raise ValidationError("bounds must satisfy x_min < x_max and y_min < y_max")
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValidationError(f"resolution must lie in [2, {MAX_RESOLUTION}], got {resolution}")
    points = np.empty((resolution, resolution, 2))  # y varies along rows, x along columns
    points[:, :, 0] = np.linspace(x_min, x_max, resolution)
    points[:, :, 1] = np.linspace(y_min, y_max, resolution)[:, None]
    points = points.reshape(-1, 2)
    probs = _probs(params, points)
    preds = np.argmax(probs, axis=1).astype(np.int64, copy=False)
    return ContourGrid(points, probs, preds)


def default_bounds(
    features: np.ndarray, margin: float = 0.2
) -> tuple[float, float, float, float]:
    """Data bounding box expanded by the margin fraction per side."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != 2:
        raise ValidationError("default bounds need 2-D features")
    # Python floats: a span that overflows becomes inf without a NumPy
    # warning, and contour_grid refuses it with one error
    x_min, y_min = features.min(axis=0).tolist()
    x_max, y_max = features.max(axis=0).tolist()
    dx = (x_max - x_min) * margin
    dy = (y_max - y_min) * margin
    return (x_min - dx, x_max + dx, y_min - dy, y_max + dy)


def save_contour_csv(grid: ContourGrid, path: str | os.PathLike) -> None:
    """Write the grid as `x,y,p0,...,p{K-1},pred` with round-trip floats."""
    header = ["x", "y"] + [f"p{i}" for i in range(grid.probs.shape[1])] + ["pred"]
    write_rows(path, header, [*grid.points.T, *grid.probs.T, grid.preds])
