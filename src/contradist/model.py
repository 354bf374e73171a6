"""Fully connected softmax classifier with analytic gradients.

The same parameter structure doubles as the toy generator network (noise in,
feature vector out); generator callers read the raw ``logits`` of the trace
as the network output and never touch ``probs``.

Checkpoint format: magic ``CDST``, u32 format version, u32 layer-dim count,
the dims as u32, then per layer the weight matrix (row-major) and bias
vector as little-endian float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ShapeError, ValidationError
from .rng import Rng

_MAGIC = b"CDST"
_FORMAT_VERSION = 1


@dataclass
class ModelParams:
    """Weights and biases of a ReLU MLP; layer_dims = [d, h1, ..., K]."""

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]  # weights[l]: (layer_dims[l], layer_dims[l+1])
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        self.layer_dims = dims
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValidationError(f"need >= 2 positive layer dims, got {dims}")
        if self.activation != "relu":
            raise ValidationError(f"unsupported activation {self.activation!r}")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValidationError("one weight matrix and bias vector per layer")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[l], dims[l + 1]) or b.shape != (dims[l + 1],):
                raise ValidationError(f"layer {l}: shapes inconsistent with dims")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValidationError(f"layer {l}: non-finite parameters")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.layer_dims,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.activation,
        )


@dataclass
class ForwardTrace:
    """Everything a forward pass produces that backprop needs.

    activations holds the hidden-layer outputs only; the last entry is the
    encoder embedding used by the generator's distribution-matching loss.
    """

    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    logits: np.ndarray
    log_probs: np.ndarray
    probs: np.ndarray


@dataclass
class Gradients:
    """Loss gradients shaped like ModelParams, plus the input gradient."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    inputs: np.ndarray


def init_params(layer_dims, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValidationError(f"need >= 2 positive layer dims, got {dims}")
    rng = Rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        u = rng.uniform(fan_in * fan_out).reshape(fan_in, fan_out)
        weights.append(a * (2.0 * u - 1.0))
        biases.append(np.zeros(fan_out))
    return ModelParams(dims, weights, biases)


def forward(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Run the network; softmax is computed with per-row max subtraction."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(
            f"input width {x.shape[1] if x.ndim == 2 else x.shape} does not match "
            f"model input dim {params.input_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise ValidationError("forward input contains non-finite values")
    a = x
    pre, acts = [], []
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        pre.append(z)
        if l < last:
            a = np.maximum(z, 0.0)
            acts.append(a)
    logits = pre[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return ForwardTrace(x, pre, acts, logits, log_probs, np.exp(log_probs))


def backward(params: ModelParams, trace: ForwardTrace, dl_dlogits: np.ndarray) -> Gradients:
    """Exact gradients of a scalar loss whose logit gradient is dl_dlogits."""
    dl_dlogits = np.asarray(dl_dlogits, dtype=np.float64)
    if dl_dlogits.shape != trace.logits.shape:
        raise ShapeError(
            f"dl_dlogits shape {dl_dlogits.shape} != logits shape {trace.logits.shape}"
        )
    n_layers = len(params.weights)
    d_weights: list[np.ndarray | None] = [None] * n_layers
    d_biases: list[np.ndarray | None] = [None] * n_layers
    delta = dl_dlogits
    for l in range(n_layers - 1, -1, -1):
        a_prev = trace.activations[l - 1] if l > 0 else trace.inputs
        d_weights[l] = a_prev.T @ delta
        d_biases[l] = delta.sum(axis=0)
        delta = delta @ params.weights[l].T
        if l > 0:
            delta = delta * (trace.pre_activations[l - 1] > 0.0)
    return Gradients(d_weights, d_biases, delta)


def save_checkpoint(params: ModelParams, path) -> None:
    dims = params.layer_dims
    chunks = [_MAGIC, struct.pack("<II", _FORMAT_VERSION, len(dims))]
    chunks.append(struct.pack(f"<{len(dims)}I", *dims))
    for w, b in zip(params.weights, params.biases):
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != _MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
    version, n_dims = struct.unpack_from("<II", data, 4)
    if version != _FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if n_dims < 2 or len(data) < 12 + 4 * n_dims:
        raise CheckpointError(f"{path}: truncated header")
    dims = struct.unpack_from(f"<{n_dims}I", data, 12)
    offset = 12 + 4 * n_dims
    expected = offset + sum(
        8 * (fi * fo + fo) for fi, fo in zip(dims[:-1], dims[1:])
    )
    if len(data) != expected:
        raise CheckpointError(
            f"{path}: expected {expected} bytes for dims {dims}, got {len(data)}"
        )
    weights, biases = [], []
    for fi, fo in zip(dims[:-1], dims[1:]):
        w = np.frombuffer(data, dtype="<f8", count=fi * fo, offset=offset).reshape(fi, fo)
        offset += 8 * fi * fo
        b = np.frombuffer(data, dtype="<f8", count=fo, offset=offset)
        offset += 8 * fo
        weights.append(w.astype(np.float64))
        biases.append(b.astype(np.float64))
    try:
        return ModelParams(dims, weights, biases)
    except ValidationError as exc:
        raise CheckpointError(f"{path}: invalid parameters: {exc}") from exc
