"""Shared test oracles: independent trace construction, finite differences and
the n x n form of the contradistinguish loss."""

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


def contradistinguish_nxn(trace, labels, prior_probs):
    """The contradistinguish loss through n x n batch matrices: (value, dlogits).

    cols[l, j] = log p(y_j | x_l) and q[j, l] = p(y_j | x_l) / sum_l' p(y_j | x_l');
    dlogits = (probs - onehot + q.T @ onehot - q.sum(0)[:, None] * probs) / n.
    """
    n, k = trace.logits.shape
    logp = trace.log_probs
    rows = np.arange(n)
    cols = logp[:, labels]
    col_max = cols.max(axis=0)
    lse = col_max + np.log(np.exp(cols - col_max).sum(axis=0))
    prior_term = np.log(np.maximum(np.asarray(prior_probs)[labels], 1e-12))
    value = -float((logp[rows, labels].sum() + prior_term.sum() - lse.sum()) / n)
    q = np.exp(cols - lse).T
    onehot = np.zeros((n, k))
    onehot[rows, labels] = 1.0
    dlogits = (trace.probs - onehot + q.T @ onehot - q.sum(axis=0)[:, None] * trace.probs) / n
    return value, dlogits
