"""Shared test oracles: independent trace construction and finite differences."""

import numpy as np

from contradist.model import ForwardTrace


def trace_from_logits(logits) -> ForwardTrace:
    """Build a trace directly from raw logits (losses only read those fields)."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return ForwardTrace(
        inputs=np.zeros((z.shape[0], 1)),
        activations=[],
        logits=z,
        log_probs=logp,
        probs=np.exp(logp),
    )


def fd_gradient(fn, x, eps=1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = x.copy()
        plus[idx] += eps
        minus = x.copy()
        minus[idx] -= eps
        grad[idx] = (fn(plus) - fn(minus)) / (2.0 * eps)
        it.iternext()
    return grad


def max_rel_err(analytic, numeric) -> float:
    """Componentwise |a - f| / max(1, |a|, |f|), reduced with max."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
