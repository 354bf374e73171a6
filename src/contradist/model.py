"""Fully connected softmax classifier with analytic gradients.

The same parameter structure doubles as the toy generator network (noise in,
feature vector out); generator callers read the raw ``logits`` of the trace
as the network output and never touch ``probs``.

All parameters live in one contiguous float64 vector, ``flat``, in the order
``W0, b0, W1, b1, ...`` (weights row-major); ``weights[l]`` and ``biases[l]``
are reshaped views into it.  backward returns the parameter gradient as one
vector in that layout.

A pass allocates one float array per layer result that it returns or keeps
(an activation, the logits, log_probs and probs, a backpropagated delta)
and computes into it in place; backward's boolean ReLU mask is its only
temporary.  The in-place steps are the elementwise operations of the plain
expressions, in their order, so the results are the same to the bit.

Checkpoint format: magic ``CDST``, u32 format version, u32 layer-dim count,
the dims as u32, then ``flat`` as little-endian float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ShapeError, ValidationError
from .files import write_atomic
from .rng import Rng

_MAGIC = b"CDST"
_FORMAT_VERSION = 1

# The most entries one float64 array of a pass may hold: a training step's
# batch (trainer.validate_inputs checks it), a block of an epoch's drawn
# batches and fakes (trainer.train sizes its blocks by it) and a whole-set
# chunk (evaluation sizes its chunks by it).  At 2**22 entries an array
# takes 32 MB.
MAX_BATCH_ENTRIES = 2**22


def _checked_dims(layer_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValidationError(f"need >= 2 positive layer dims, got {dims}")
    return dims


def _views(dims, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into flat, laid out W0, b0, W1, b1, ..."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


def param_count(layer_dims) -> int:
    """The length of flat for these layer dims: every layer's weights and biases."""
    return sum(i * o + o for i, o in zip(layer_dims[:-1], layer_dims[1:]))


@dataclass
class ModelParams:
    """ReLU MLP parameters, layer_dims = [d, h1, ..., K], built from a flat vector.

    flat is copied as float64; weights[l] (layer_dims[l], layer_dims[l+1]) and
    biases[l] become views of the copy."""

    layer_dims: tuple[int, ...]
    flat: np.ndarray = field(repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.layer_dims = _checked_dims(self.layer_dims)
        flat = self.flat = np.array(self.flat, dtype=np.float64)
        if flat.shape != (param_count(dims),):
            raise ValidationError(f"need {param_count(dims)} parameters for dims {dims}")
        if not np.isfinite(flat).all():
            raise ValidationError("non-finite parameters")
        self.weights, self.biases = _views(dims, flat)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_classes(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.layer_dims, self.flat)


@dataclass
class ForwardTrace:
    """Everything a forward pass produces that backprop needs.

    activations holds the hidden-layer ReLU outputs only; backward reads each
    layer's ReLU mask from them, and the last entry is the encoder embedding
    used by the generator's distribution-matching loss.  logits is the last
    layer's affine output, and log_probs and probs its softmax.
    """

    inputs: np.ndarray
    activations: list[np.ndarray]
    logits: np.ndarray
    log_probs: np.ndarray
    probs: np.ndarray


def init_params(layer_dims, seed: int) -> ModelParams:
    """Glorot-uniform weights drawn layer by layer into one zeroed flat vector."""
    dims = _checked_dims(layer_dims)
    rng = Rng(seed)
    flat = np.zeros(param_count(dims))
    for w in _views(dims, flat)[0]:  # w: (fan_in, fan_out)
        a = np.sqrt(6.0 / sum(w.shape))
        w[:] = a * (2.0 * rng.uniform(w.size).reshape(w.shape) - 1.0)
    return ModelParams(dims, flat)


def hidden_pass(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The checked float64 input and the hidden-layer ReLU outputs."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(
            f"input width {x.shape[1] if x.ndim == 2 else x.shape} does not match "
            f"model input dim {params.input_dim}"
        )
    if not np.isfinite(x).all():
        raise ValidationError("forward input contains non-finite values")
    a = x
    acts = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = a @ w
        a += b
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    return x, acts


def forward(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Run the network; softmax is computed with per-row max subtraction."""
    x, acts = hidden_pass(params, x)
    logits = (acts[-1] if acts else x) @ params.weights[-1]
    logits += params.biases[-1]
    # the ufunc reductions are what .max and .sum run, less their wrappers
    log_probs = logits - np.maximum.reduce(logits, axis=1, keepdims=True)  # shifted
    probs = np.exp(log_probs)
    log_probs -= np.log(np.add.reduce(probs, axis=1, keepdims=True))
    np.exp(log_probs, out=probs)
    return ForwardTrace(x, acts, logits, log_probs, probs)


def backward(params: ModelParams, trace: ForwardTrace, dl_dlogits: np.ndarray) -> np.ndarray:
    """Exact parameter gradient of a scalar loss whose logit gradient is
    dl_dlogits, as one vector in flat's layout (W0, b0, W1, b1, ...).

    It stops at the first layer's parameters: the gradient with respect to
    the inputs, one more product, is not computed, since no caller reads it.
    """
    dl_dlogits = np.asarray(dl_dlogits, dtype=np.float64)
    if dl_dlogits.shape != trace.logits.shape:
        raise ShapeError(
            f"dl_dlogits shape {dl_dlogits.shape} != logits shape {trace.logits.shape}"
        )
    flat = np.empty_like(params.flat)
    d_weights, d_biases = _views(params.layer_dims, flat)
    delta = dl_dlogits
    for l in range(len(params.weights) - 1, -1, -1):
        a_prev = trace.activations[l - 1] if l > 0 else trace.inputs
        np.matmul(a_prev.T, delta, out=d_weights[l])
        np.add.reduce(delta, axis=0, out=d_biases[l])
        if l > 0:
            delta = delta @ params.weights[l].T
            delta *= a_prev > 0.0  # a ReLU output is > 0 where its input is
    return flat


def save_checkpoint(params: ModelParams, path) -> None:
    dims = params.layer_dims
    chunks = [_MAGIC, struct.pack("<II", _FORMAT_VERSION, len(dims))]
    chunks.append(struct.pack(f"<{len(dims)}I", *dims))
    chunks.append(params.flat.astype("<f8").tobytes())
    write_atomic(path, chunks)


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
    expected = offset + 8 * param_count(dims)
    if len(data) != expected:
        raise CheckpointError(
            f"{path}: expected {expected} bytes for dims {dims}, got {len(data)}"
        )
    try:  # ModelParams copies the read-only buffer into its own writable vector
        return ModelParams(dims, np.frombuffer(data, dtype="<f8", offset=offset))
    except ValidationError as exc:
        raise CheckpointError(f"{path}: invalid parameters: {exc}") from exc
