"""Scalar training objectives and their gradients with respect to logits.

Sign convention: every objective is a loss to MINIMIZE, averaged over the
batch.  Log-probabilities always come from the trace's log-softmax; an
explicit log of a probability (class priors) clamps its argument at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Priors
from .errors import NumericError, ShapeError, ValidationError
from .model import ForwardTrace

_LOG_CLAMP = 1e-12


@dataclass
class LossValue:
    """A scalar loss plus its gradient with respect to the batch logits."""

    value: float
    dlogits: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise NumericError(f"loss value is not finite: {self.value}")
        if not np.isfinite(self.dlogits).all():
            raise NumericError("loss gradient contains non-finite values")


def _check_labels(labels: np.ndarray, n: int, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch size {n}")
    if labels.size and (np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= k):
        raise ValidationError(f"labels must lie in [0, {k})")
    return labels


def ce_loss(trace: ForwardTrace, labels: np.ndarray) -> LossValue:
    """Mean cross-entropy of the true labels under the softmax output.

    value = -(1/n) sum_i log p(y_i | x_i); dlogits = (probs - onehot) / n.
    """
    n, k = trace.logits.shape
    labels = _check_labels(labels, n, k)
    rows = np.arange(n)
    value = -float(trace.log_probs[rows, labels].mean())
    dlogits = trace.probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return LossValue(value, dlogits)


def pseudo_label_select(probs: np.ndarray, priors: Priors) -> np.ndarray:
    """The (n,) int64 class per sample, by prior-scaled, batch-normalized probability.

    score[j, k] = probs[j, k] * priors[k] / sum_l probs[l, k], the column sum
    running over the current batch (including j).  The label is the argmax
    over k; ties break to the lowest class index.  Scaling the prior keeps
    the selected marginal tracking the prior instead of the raw confidence.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise ShapeError(f"probs must be a nonempty n x K matrix, got {probs.shape}")
    if probs.shape[1] != priors.num_classes:
        raise ShapeError(
            f"probs have {probs.shape[1]} classes but priors have {priors.num_classes}"
        )
    col_sums = probs.sum(axis=0)
    if np.any(col_sums == 0.0):
        dead = int(np.flatnonzero(col_sums == 0.0)[0])
        raise NumericError(
            f"class column {dead} sums to zero; cannot normalize selection scores"
        )
    scores = probs * priors.probs / col_sums
    return np.argmax(scores, axis=1).astype(np.int64)


def contradistinguish_loss(
    trace: ForwardTrace, labels: np.ndarray, priors: Priors
) -> LossValue:
    """Unsupervised objective that separates each sample from the batch.

    With the pseudo-labels y_j = labels[j] held fixed,

        value = -(1/n) [ sum_j log p(y_j|x_j) + sum_j log prior[y_j]
                         - sum_j log sum_l p(y_j|x_l) ]

    The first term pulls sample j toward its selected class, the third
    pushes the same class away on every other sample, and the middle term
    is constant in the parameters: it contributes to the value but not to
    the gradient.  The third term's inner sum depends on j only through
    y_j, so it is one log-sum-exp per class, lse[c] = log sum_l p(c|x_l),
    and the loss costs O(n K) rather than O(n^2).
    """
    n, k = trace.logits.shape
    labels = _check_labels(labels, n, k)
    logp = trace.log_probs
    rows = np.arange(n)

    col_max = logp.max(axis=0)
    r = logp - col_max
    lse = col_max + np.log(np.exp(r, out=r).sum(axis=0))
    prior_term = np.log(np.maximum(priors.probs[labels], _LOG_CLAMP))
    value = -float((logp[rows, labels].sum() + prior_term.sum() - lse[labels].sum()) / n)

    # r[m, c] = (number of j with y_j = c) * p(c|x_m) / sum_l p(c|x_l): how
    # much the third term's softmax over the batch puts on sample m for c;
    # dlogits = (probs - onehot + r - r.sum(axis=1) * probs) / n, in that order
    np.exp(np.subtract(logp, lse, out=r), out=r)
    r *= np.bincount(labels, minlength=k)
    dlogits = trace.probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits += r
    dlogits -= np.multiply(trace.probs, r.sum(axis=1, keepdims=True), out=r)
    dlogits /= n
    return LossValue(value, dlogits)


def adv_multilabel_loss(trace_fake: ForwardTrace) -> LossValue:
    """Push fake samples toward membership in every class at once.

    value = -(1/n_f) sum_j sum_k log p(k | x_j).  The per-sample minimum is
    K ln K, attained exactly at the uniform softmax output.
    """
    n, k = trace_fake.logits.shape
    value = -float(trace_fake.log_probs.sum() / n)
    dlogits = trace_fake.probs * k
    dlogits -= 1.0
    dlogits /= n
    return LossValue(value, dlogits)


def _sq_dists(x: np.ndarray, sq_x: np.ndarray, y: np.ndarray, sq_y: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of x and y, from their Gram product.

    sq_x and sq_y are the rows' squared norms.  Pairs closer than 1e-12 of
    their summed squared norms, equal rows among them, are set to exactly 0
    rather than left as rounding noise.
    """
    norms = sq_x[:, None] + sq_y[None, :]
    d2 = x @ y.T
    d2 *= -2.0
    d2 += norms  # ||x_i||^2 + ||y_j||^2 - 2 x_i . y_j
    norms *= 1e-12
    np.putmask(d2, d2 <= norms, 0.0)
    return d2


def _median(values: np.ndarray) -> float:
    """np.median of a flat array from one partition pivot.

    Partitioning at h = size // 2 puts the upper middle value at p[h] and
    nothing larger before it, so for an even count the lower middle value
    is max(p[:h]), and the two are averaged as np.median averages them.
    The result equals np.median bit for bit, except that a zero median of
    values holding both 0.0 and -0.0 may differ in sign.  np.median
    partitions at two or three pivots, which took about six times as long
    on a 128 x 128 block.
    """
    h = values.size // 2
    p = np.partition(values, h)
    if values.size % 2:
        return float(p[h])
    return float((p[:h].max() + p[h]) / 2.0)


def kernel_mmd(emb_a: np.ndarray, emb_b: np.ndarray, gamma: float | str) -> tuple[float, np.ndarray]:
    """Squared MMD between two embedding sets under a Gaussian kernel, and
    its gradient with respect to emb_a: (value, d_emb_a).

    k(x, x') = exp(-gamma * ||x - x'||^2); the V-statistic keeps the i = j
    diagonal, so identical multisets give zero up to rounding.  The a-a,
    b-b and a-b squared-distance blocks are built separately, each from its
    own Gram product, and exponentiated in place; the value is their three
    means and the gradient comes from products with those blocks.  There
    is no (n, m, d) difference tensor and no stacked (n_a + n_b)^2 matrix:
    that matrix computed the a-b block twice, and paging in its 512 KB
    buffers (at 128 + 128 rows) took up to 224 minor faults per call.
    gamma is a positive bandwidth or "median-heuristic": 1 / (2 * median of
    the squared cross distances), the median taken from the a-b block with
    one partition pivot; it is fixed once per call and treated as a
    constant by the gradient.  Non-finite embeddings raise ValidationError.

    Only emb_a's gradient is computed; the trainer reads no other.  MMD^2
    and the median-heuristic gamma are symmetric in the two sets, so the
    gradient for emb_b is kernel_mmd(emb_b, emb_a, gamma)[1].
    """
    emb_a = np.asarray(emb_a, dtype=np.float64)
    emb_b = np.asarray(emb_b, dtype=np.float64)
    if emb_a.ndim != 2 or emb_b.ndim != 2 or emb_a.shape[0] < 1 or emb_b.shape[0] < 1:
        raise ShapeError("embedding sets must be nonempty 2-D matrices")
    if emb_a.shape[1] != emb_b.shape[1]:
        raise ShapeError(
            f"embedding widths differ: {emb_a.shape[1]} vs {emb_b.shape[1]}"
        )
    if not (np.isfinite(emb_a).all() and np.isfinite(emb_b).all()):
        raise ValidationError("embedding sets contain non-finite values")
    n_a, n_b = emb_a.shape[0], emb_b.shape[0]
    sq_a = np.einsum("ij,ij->i", emb_a, emb_a)
    sq_b = np.einsum("ij,ij->i", emb_b, emb_b)
    k_aa = _sq_dists(emb_a, sq_a, emb_a, sq_a)
    k_bb = _sq_dists(emb_b, sq_b, emb_b, sq_b)
    k_ab = _sq_dists(emb_a, sq_a, emb_b, sq_b)
    if gamma == "median-heuristic":
        med = _median(k_ab.ravel())
        if med <= 0.0:
            raise NumericError(
                "median squared cross-distance is zero; pass an explicit gamma"
            )
        gamma = 1.0 / (2.0 * med)
    else:
        gamma = float(gamma)
    for d2 in (k_aa, k_bb, k_ab):  # each block becomes its kernel in place
        d2 *= -gamma
        np.exp(d2, out=d2)
    value = float(k_aa.mean() + k_bb.mean() - 2.0 * k_ab.mean())

    # d k(x, y) / dx = -2 gamma (x - y) k(x, y); summed over each block with
    # the V-statistic's weights 1/n_a^2, 1/n_b^2 and -2/(n_a n_b)
    d_emb_a = (-4.0 * gamma / n_a) * (
        (k_aa.sum(axis=1) / n_a - k_ab.sum(axis=1) / n_b)[:, None] * emb_a
        - (k_aa @ emb_a) / n_a
        + (k_ab @ emb_b) / n_b
    )
    return value, d_emb_a


def multi_source_supervised(per_source_losses: Sequence[LossValue]) -> LossValue:
    """Total supervised loss over several source domains: element-wise sums.

    All gradients must share one shape (equal batch size and class count).
    train() does not call it: it backpropagates each source's ce_loss on its
    own.  It stays only because the benchmark's tracer wraps it by name.
    """
    if not per_source_losses:
        raise ValidationError("need at least one per-source loss")
    first = per_source_losses[0]
    value = first.value
    dlogits = first.dlogits.copy()
    for lv in per_source_losses[1:]:
        if lv.dlogits.shape != dlogits.shape:
            raise ShapeError(
                f"per-source gradient shapes differ: {lv.dlogits.shape} vs {dlogits.shape}"
            )
        value += lv.value
        dlogits += lv.dlogits
    return LossValue(value, dlogits)
