"""Shared test oracles: independent trace construction, finite differences,
the n x n form of the contradistinguish loss, and plain-expression forms of
the network passes, the Adam step and one batch's Gaussian fakes; and the
child-interpreter and tool-loading scaffolding the process-level tests share."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import contradist
from contradist.model import ForwardTrace, init_params
from contradist.rng import Rng
from contradist.trainer import Adam

ROOT = Path(__file__).resolve().parent.parent
# the directory the package under test is imported from
SRC = Path(contradist.__file__).parents[1]
HASH_GRID_GOLDEN = ROOT / "tests" / "hash_grid_golden.txt"


def load_tool(name: str):
    """tools/<name>.py as a module (hash_grid's build() names the NumPy/BLAS build)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_build() -> str:
    """The NumPy/BLAS build line that heads the hash-grid golden file."""
    with open(HASH_GRID_GOLDEN, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n").removeprefix("# ")


def run_python(args, cwd=None, stdout=subprocess.PIPE, check=False, **env):
    """`python args` in a fresh interpreter that imports the package under
    test, with the given variables set (a value of None unsets one)."""
    child_env = {**os.environ, **env, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env={k: v for k, v in child_env.items() if v is not None},
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120, check=check,
    )


def net_with_biases(dims, seed):
    """init_params with N(0, 0.25) biases, so that each bias add shows in the bits."""
    params = init_params(dims, seed)
    rng = Rng(seed + 1)
    for b in params.biases:
        b[:] = 0.5 * rng.normal(b.size)
    return params


def reference_forward(params, x) -> ForwardTrace:
    """model.forward as plain expressions, one new array per operation."""
    x = np.asarray(x, dtype=np.float64)
    a, acts = x, []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
        acts.append(a)
    logits = a @ params.weights[-1] + params.biases[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return ForwardTrace(x, acts, logits, log_probs, np.exp(log_probs))


def reference_backward(params, trace, dl_dlogits):
    """model.backward as plain expressions: (flat parameter gradient, input gradient)."""
    parts = []
    delta = np.asarray(dl_dlogits, dtype=np.float64)
    for l in range(len(params.weights) - 1, -1, -1):
        a_prev = trace.activations[l - 1] if l > 0 else trace.inputs
        parts[:0] = [(a_prev.T @ delta).ravel(), delta.sum(axis=0)]
        delta = delta @ params.weights[l].T
        if l > 0:
            delta = delta * (a_prev > 0.0)
    return np.concatenate(parts), delta


class ReferenceAdam:
    """Adam.step with one expression per moment update and one for the step."""

    def __init__(self, lr):
        self.lr, self.m, self.v, self.t = lr, None, None, 0

    def step(self, a, g):
        if self.m is None:
            self.m, self.v = np.zeros_like(a), np.zeros_like(a)
        self.t += 1
        c1 = 1.0 - Adam.BETA1**self.t
        c2 = 1.0 - Adam.BETA2**self.t
        self.m *= Adam.BETA1
        self.m += (1.0 - Adam.BETA1) * g
        self.v *= Adam.BETA2
        self.v += (1.0 - Adam.BETA2) * g * g
        a -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + Adam.EPS)


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


def fd_param_gradient(fn, params, eps=1e-5):
    """Central finite differences of fn() over params.flat, in backward's layout.

    Each evaluation writes a perturbed vector into params.flat; the original
    values are back in place when this returns.
    """
    saved = params.flat.copy()

    def at(flat):
        params.flat[:] = flat
        try:
            return fn()
        finally:
            params.flat[:] = saved

    return fd_gradient(at, saved, eps)


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


def per_step_fake_gaussian(features, seed):
    """One batch's Gaussian fakes as the trainer drew them once per step, one
    per row: the batch's column mean plus its column std times Rng(seed)'s normals."""
    features = np.asarray(features, dtype=np.float64)
    z = Rng(seed).normal(features.size).reshape(features.shape)
    return features.mean(axis=0) + features.std(axis=0) * z
