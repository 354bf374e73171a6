"""Synthetic 2-D blob domains: generation, stratified splits, priors, CSV I/O.

A domain is a cloud of isotropic Gaussian blobs, one per class, rotated as a
whole about the origin and then translated.  Named presets pair two such
domains into a source/target adaptation task.  Datasets travel as CSV with
header ``f0,...,f{d-1},label`` where label ``-1`` marks unlabeled rows, so a
single format covers both domains.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, ValidationError, as_float, as_int, check_keys
from .files import write_atomic
from .rng import Rng, derive_seed


# The most rows a blob spec may draw per class.  make_blobs draws two normals
# per row and keeps 2 features and a label, 40 B a row: 4 MB per class at
# 10**5 rows.  Scoring after training and eval pass a whole split through the
# classifier in evaluation.CHUNK_ROWS-row chunks, so past one chunk's
# activations only the rows' K class probabilities, 8 * K bytes a row, grow.
MAX_SAMPLES_PER_CLASS = 10**5


@dataclass(frozen=True)
class BlobSpec:
    """Generator settings for one domain.

    classes: per-class pairs of (center, std); centers are 2-vectors and
    stds are positive.  rotation_deg rotates the whole domain about the
    origin, offset then translates it.  Draws are reproducible per seed.
    """

    classes: tuple[tuple[tuple[float, float], float], ...]
    samples_per_class: int
    rotation_deg: float = 0.0
    offset: tuple[float, float] = (0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ValidationError("a blob spec needs at least 2 classes")
        for i, (center, std) in enumerate(self.classes):
            if len(center) != 2:
                raise ValidationError(f"class {i}: center must be a 2-vector")
            if not all(math.isfinite(c) for c in center):
                raise ValidationError(f"class {i}: non-finite center")
            if not (std > 0 and math.isfinite(std)):
                raise ValidationError(f"class {i}: std must be positive, got {std}")
        if self.samples_per_class < 1:
            raise ValidationError("samples_per_class must be >= 1")
        if self.samples_per_class > MAX_SAMPLES_PER_CLASS:
            raise ValidationError(
                f"samples_per_class {self.samples_per_class} is more than "
                f"MAX_SAMPLES_PER_CLASS = {MAX_SAMPLES_PER_CLASS}"
            )
        if len(self.offset) != 2:
            raise ValidationError("offset must be a 2-vector")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @staticmethod
    def from_dict(obj: dict) -> "BlobSpec":
        """Parse a config spec; unknown keys and unconvertible values fail."""
        known = ("classes", "samples_per_class", "rotation_deg", "offset", "seed")
        check_keys(obj, known, "blob spec")
        try:
            for c in obj["classes"]:
                check_keys(c, ("center", "std"), "blob class")
            classes = tuple(
                (_coords(c["center"], "center"), as_float(c["std"])) for c in obj["classes"]
            )
            return BlobSpec(
                classes=classes,
                samples_per_class=as_int(obj["samples_per_class"]),
                rotation_deg=as_float(obj.get("rotation_deg", 0.0)),
                offset=_coords(obj.get("offset", [0, 0]), "offset"),
                seed=as_int(obj.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed blob spec: {exc}") from exc


def _coords(value, name: str) -> tuple[float, ...]:
    """Coordinates from a config list; a string would split into characters."""
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(as_float(v) for v in value)


@dataclass
class DomainDataset:
    """Feature matrix plus optional labels for one domain."""

    features: np.ndarray
    labels: np.ndarray | None = None
    domain_id: str = ""

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValidationError("features must be a nonempty n x d matrix")
        if not np.all(np.isfinite(self.features)):
            raise ValidationError("features contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ValidationError("labels length must match feature rows")
            if self.labels.min() < 0:
                raise ValidationError("labels must be non-negative class ids")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def without_labels(self) -> "DomainDataset":
        """Copy with labels dropped (how a target domain enters training)."""
        return DomainDataset(self.features.copy(), None, self.domain_id)


@dataclass(frozen=True)
class Priors:
    """Class-probability vector: entries >= 0, summing to 1 within 1e-9."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.shape[0] < 1:
            raise ValidationError("priors must be a nonempty vector")
        # checked before the sum, which entries above 1 could overflow
        if not np.all(np.isfinite(probs)) or probs.min() < 0 or probs.max() > 1:
            raise ValidationError("prior entries must be finite and lie in [0, 1]")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValidationError(f"priors must sum to 1, got {float(probs.sum())!r}")

    @property
    def num_classes(self) -> int:
        return self.probs.shape[0]


def make_blobs(spec: BlobSpec, domain_id: str = "") -> DomainDataset:
    """Draw one labeled blob domain.

    Class c is sampled from an isotropic Gaussian at its center with its
    std, then the whole point cloud is rotated about the origin and offset.
    Rows are grouped by class in spec order; deterministic per spec.seed.
    """
    rng = Rng(spec.seed)
    n_per = spec.samples_per_class
    blocks = []
    for center, std in spec.classes:
        z = rng.normal(2 * n_per).reshape(n_per, 2)
        blocks.append(np.asarray(center, dtype=np.float64) + std * z)
    features = np.vstack(blocks)
    theta = math.radians(spec.rotation_deg)
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    features = features @ rot.T + np.asarray(spec.offset, dtype=np.float64)
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), n_per)
    return DomainDataset(features, labels, domain_id=domain_id)


def train_rows(n_c: int, train_fraction: float) -> int:
    """How many of a class's n_c rows split() puts in train.

    That is floor(train_fraction * n_c), plus the remainder row when the
    product is fractional; fails unless both splits get at least one row.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ValidationError("train_fraction must lie strictly between 0 and 1")
    if n_c < 2:
        raise ValidationError(f"cannot stratify a class with {n_c} sample(s) into two splits")
    n_train = math.floor(train_fraction * n_c)
    if n_train < train_fraction * n_c:
        n_train += 1  # remainder goes to train
    if n_train >= n_c:
        raise ValidationError(
            f"train fraction {train_fraction} leaves no test rows for a "
            f"class with {n_c} samples"
        )
    return n_train


def split(
    ds: DomainDataset, train_fraction: float, seed: int
) -> tuple[DomainDataset, DomainDataset]:
    """Stratified train/test split.

    Each class of n_c rows contributes train_rows(n_c, train_fraction) of
    them to train and the rest to test.  Row selection within a class is
    random per seed; the two outputs are disjoint and their union is the
    input.  Unlabeled data is treated as a single stratum.
    """
    rng = Rng(derive_seed(seed, "split"))
    groups: list[np.ndarray]
    if ds.labels is None:
        groups = [np.arange(ds.n)]
    else:
        # the classes present, ascending (return_inverse: np.unique then skips
        # its masked-array check, which would load numpy.ma)
        classes, inverse = np.unique(ds.labels, return_inverse=True)
        groups = [np.flatnonzero(inverse == i) for i in range(len(classes))]
    train_idx, test_idx = [], []
    for idx in groups:
        n_c = idx.shape[0]
        n_train = train_rows(n_c, train_fraction)
        order = idx[rng.permutation(n_c)]
        train_idx.append(np.sort(order[:n_train]))
        test_idx.append(np.sort(order[n_train:]))

    def _take(rows: np.ndarray) -> DomainDataset:
        labels = None if ds.labels is None else ds.labels[rows]
        return DomainDataset(ds.features[rows], labels, ds.domain_id)

    return _take(np.concatenate(train_idx)), _take(np.concatenate(test_idx))


def estimate_prior(labels: np.ndarray, k: int) -> Priors:
    """Empirical class frequencies of a label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValidationError("cannot estimate a prior from an empty label vector")
    if labels.min() < 0 or labels.max() >= k:
        raise ValidationError(f"labels must lie in [0, {k})")
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    return Priors(counts / labels.size)


_ROW_BLOCK = 8192  # rows write_rows formats at a time


def _format_column(col: np.ndarray):
    """repr of each entry of a float64 or int64 column, one call per distinct value.

    Values are told apart by their 64-bit pattern, so 0.0 and -0.0 stay
    distinct where a value comparison would merge them.
    """
    uniq, inverse = np.unique(col.view(np.int64), return_inverse=True)
    strs = list(map(repr, uniq.view(col.dtype).tolist()))
    return map(strs.__getitem__, inverse.tolist())


def write_rows(path: str | os.PathLike, header: list[str], columns: list[np.ndarray]) -> None:
    """Write UTF-8 CSV from equal-length 1-D float64 or int64 columns.

    The bytes are those of `",".join(map(repr, row))` per row; repr gives the
    shortest decimal that round-trips each double exactly.  Rows are written
    in blocks of _ROW_BLOCK, so a million-row contour grid never holds all of
    its lines in memory at once.  Within a block each column calls repr once
    per distinct bit pattern (see _format_column), which makes the repeated
    coordinates of a grid cheap, and rows are joined in C-level loops.
    """

    def blocks():
        yield ",".join(header) + "\n"
        for i in range(0, len(columns[0]), _ROW_BLOCK):
            fields = [_format_column(col[i : i + _ROW_BLOCK]) for col in columns]
            yield "\n".join(map(",".join, zip(*fields))) + "\n"

    write_atomic(path, blocks())


def save_csv(ds: DomainDataset, path: str | os.PathLike) -> None:
    """Write a dataset as UTF-8 CSV; unlabeled rows carry label -1."""
    header = [f"f{i}" for i in range(ds.dim)] + ["label"]
    labels = ds.labels if ds.labels is not None else np.full(ds.n, -1)
    write_rows(path, header, [*ds.features.T, labels])


def load_csv(
    path: str | os.PathLike, k: int | None = None, domain_id: str | None = None
) -> DomainDataset:
    """Read a dataset CSV written by save_csv.

    Data rows are numbered from 1 in error messages.  A file whose label
    column is all -1 loads as unlabeled; mixing -1 with real labels is a
    parse error.  When k is given, labels must be < k.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise CsvParseError(f"{path}: empty file")
    header = lines[0].split(",")
    d = len(header) - 1
    if d < 1 or header != [f"f{i}" for i in range(d)] + ["label"]:
        raise CsvParseError(f"{path}: malformed header {lines[0]!r}")
    if len(lines) == 1:
        raise CsvParseError(f"{path}: no data rows")
    features = np.empty((len(lines) - 1, d), dtype=np.float64)
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    for row, line in enumerate(lines[1:], start=1):
        parts = line.split(",")
        if len(parts) != d + 1:
            raise CsvParseError(
                f"{path}: row {row}: expected {d + 1} columns, got {len(parts)}"
            )
        try:
            values = [float(p) for p in parts[:-1]]
        except ValueError as exc:
            raise CsvParseError(f"{path}: row {row}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise CsvParseError(f"{path}: row {row}: non-finite feature value")
        try:
            label = int(parts[-1])
        except ValueError as exc:
            raise CsvParseError(f"{path}: row {row}: bad label {parts[-1]!r}") from exc
        if label < -1:
            raise CsvParseError(f"{path}: row {row}: bad label {label}")
        if k is not None and label >= k:
            raise CsvParseError(
                f"{path}: row {row}: label {label} out of range for {k} classes"
            )
        features[row - 1] = values
        labels[row - 1] = label
    unlabeled = labels == -1
    if unlabeled.all():
        out_labels = None
    elif unlabeled.any():
        row = int(np.flatnonzero(unlabeled != unlabeled[0])[0]) + 1
        raise CsvParseError(f"{path}: row {row}: mixes labeled and unlabeled rows")
    else:
        out_labels = labels
    if domain_id is None:
        domain_id = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    return DomainDataset(features, out_labels, domain_id=domain_id)


# ---------------------------------------------------------------------------
# Named two-domain presets.  The geometries are this package's own choices:
# they realize the qualitative source/target configurations of interest
# (aligned clouds, a rotated target, an overlapping source) at desk scale.
# ---------------------------------------------------------------------------

_PRESETS: dict[str, dict] = {
    "aligned": {
        "d0": {"centers": ((-2.0, 0.0), (2.0, 0.0)), "std": 0.5, "rotation": 0.0, "offset": (0.0, 0.0)},
        "d1": {"centers": ((-2.0, 0.0), (2.0, 0.0)), "std": 0.5, "rotation": 0.0, "offset": (0.5, 3.0)},
    },
    "rotated": {
        "d0": {"centers": ((-2.0, 0.0), (2.0, 0.0)), "std": 0.45, "rotation": 0.0, "offset": (0.0, 0.0)},
        "d1": {"centers": ((-2.0, 0.0), (2.0, 0.0)), "std": 0.45, "rotation": 70.0, "offset": (0.0, 0.0)},
    },
    "overlap-source": {
        "d0": {"centers": ((-1.0, 0.0), (1.0, 0.0)), "std": 0.42, "rotation": 0.0, "offset": (0.0, 0.0)},
        "d1": {"centers": ((-2.0, 0.0), (2.0, 0.0)), "std": 0.35, "rotation": 75.0, "offset": (0.0, 0.0)},
    },
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_domains(
    name: str, seed: int, samples_per_class: int = 2000
) -> dict[str, BlobSpec]:
    """Blob specs for both domains of a named preset, seeded per domain."""
    if name not in _PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    out = {}
    for domain_id, geo in _PRESETS[name].items():
        out[domain_id] = BlobSpec(
            classes=tuple((c, geo["std"]) for c in geo["centers"]),
            samples_per_class=samples_per_class,
            rotation_deg=geo["rotation"],
            offset=geo["offset"],
            seed=derive_seed(seed, f"{name}/{domain_id}"),
        )
    return out
