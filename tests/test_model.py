"""Forward/backward correctness against naive and finite-difference oracles."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contradist.errors import CheckpointError, ShapeError, ValidationError
from contradist.losses import ce_loss
from contradist.model import (
    ModelParams,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from helpers import (
    fd_gradient,
    max_rel_err,
    net_with_biases,
    reference_backward,
    reference_forward,
)


def small_net(seed=0, dims=(2, 5, 3)):
    return init_params(dims, seed)


class TestInit:
    def test_deterministic(self):
        a = init_params([2, 4, 2], 7)
        b = init_params([2, 4, 2], 7)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero(self):
        params = init_params([3, 8, 5, 2], 1)
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_weight_magnitudes_within_glorot_bound(self):
        params = init_params([7, 13, 4], 3)
        for w, (fan_in, fan_out) in zip(params.weights, [(7, 13), (13, 4)]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.max(np.abs(w)) <= bound

    def test_rejects_empty_or_bad_dims(self):
        for dims in ([], [4], [2, 0, 2], [2, -3, 2]):
            with pytest.raises(ValidationError):
                init_params(dims, 0)
            with pytest.raises(ValidationError):
                ModelParams(dims, [], [])


class TestFlatLayout:
    def test_weights_and_biases_are_views_of_flat(self):
        params = init_params([2, 3, 2], 0)
        before = [w.copy() for w in params.weights]
        params.flat += 1.0
        for w, old in zip(params.weights, before):
            assert np.array_equal(w, old + 1.0)
        for b in params.biases:
            assert np.all(b == 1.0)

    def test_flat_is_in_checkpoint_order(self):
        params = init_params([3, 4, 2], 1)
        parts = [params.weights[0], params.biases[0], params.weights[1], params.biases[1]]
        assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in parts]))

    def test_construction_and_copy_share_no_memory(self):
        w, b = np.ones((2, 2)), np.zeros(2)
        params = ModelParams((2, 2), [w], [b])
        w[0, 0] = 5.0
        assert params.weights[0][0, 0] == 1.0
        dup = params.copy()
        assert not np.shares_memory(dup.flat, params.flat)
        dup.flat[:] = 7.0
        assert np.all(params.weights[0] == 1.0)
        assert np.all(dup.weights[0] == 7.0)

    def test_gradients_flat_matches_its_views(self):
        params = init_params([2, 5, 4, 3], 2)
        trace = forward(params, np.random.default_rng(0).normal(size=(6, 2)))
        grads = backward(params, trace, np.random.default_rng(1).normal(size=(6, 3)))
        parts = [a.ravel() for wb in zip(grads.weights, grads.biases) for a in wb]
        assert np.array_equal(grads.flat, np.concatenate(parts))
        assert grads.flat.shape == params.flat.shape


class TestForward:
    def test_zero_network_gives_uniform_probs(self):
        params = small_net()
        for w in params.weights:
            w[:] = 0.0
        trace = forward(params, np.random.default_rng(0).normal(size=(6, 2)))
        assert np.allclose(trace.probs, 1.0 / 3.0)

    def test_extreme_logits_do_not_overflow(self):
        # one linear layer wired to emit logits (1000, 0)
        params = ModelParams(
            (2, 2), [np.array([[1000.0, 0.0], [0.0, 0.0]])], [np.zeros(2)]
        )
        trace = forward(params, np.array([[1.0, 0.0]]))
        assert np.all(np.isfinite(trace.log_probs))
        assert trace.probs[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert trace.probs[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_loop_oracle(self):
        params = small_net(seed=5)
        x = np.random.default_rng(1).normal(size=(3, 2))
        trace = forward(params, x)
        for i in range(3):
            hidden = [0.0] * 5
            for j in range(5):
                z = params.biases[0][j]
                for d in range(2):
                    z += x[i, d] * params.weights[0][d, j]
                hidden[j] = max(z, 0.0)
            logits = [0.0] * 3
            for k in range(3):
                z = params.biases[1][k]
                for j in range(5):
                    z += hidden[j] * params.weights[1][j, k]
                logits[k] = z
            total = sum(math.exp(v) for v in logits)
            for k in range(3):
                assert math.exp(logits[k]) / total == pytest.approx(
                    trace.probs[i, k], abs=1e-12
                )

    def test_width_mismatch_raises(self):
        with pytest.raises(ShapeError):
            forward(small_net(), np.zeros((4, 3)))

    def test_non_finite_input_raises(self):
        with pytest.raises(ValidationError):
            forward(small_net(), np.array([[np.nan, 0.0]]))

    def test_repeated_calls_identical(self):
        params = small_net(seed=2)
        x = np.random.default_rng(3).normal(size=(4, 2))
        assert np.array_equal(forward(params, x).probs, forward(params, x).probs)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 12))
    def test_probs_rows_normalized(self, seed, n):
        params = small_net(seed=seed)
        x = np.random.default_rng(seed).normal(size=(n, 2)) * 10
        trace = forward(params, x)
        assert np.max(np.abs(trace.probs.sum(axis=1) - 1.0)) <= 1e-6


class TestBackward:
    def test_zero_logit_gradient_gives_zero_grads(self):
        params = small_net()
        x = np.random.default_rng(0).normal(size=(4, 2))
        trace = forward(params, x)
        grads = backward(params, trace, np.zeros_like(trace.logits))
        for g in grads.weights + grads.biases + [grads.inputs]:
            assert np.all(g == 0.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        params = small_net(seed=9)
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 3, size=4)
        trace = forward(params, x)
        lv = ce_loss(trace, y)
        grads = backward(params, trace, lv.dlogits)

        for l in range(2):
            for arrays, analytic in (
                (params.weights, grads.weights),
                (params.biases, grads.biases),
            ):
                def loss_at(values, l=l, arrays=arrays):
                    saved = arrays[l].copy()
                    arrays[l][:] = values
                    out = ce_loss(forward(params, x), y).value
                    arrays[l][:] = saved
                    return out

                numeric = fd_gradient(loss_at, arrays[l])
                assert max_rel_err(analytic[l], numeric) <= 1e-4

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        params = small_net(seed=4)
        x = rng.normal(size=(3, 2))
        y = rng.integers(0, 3, size=3)
        trace = forward(params, x)
        grads = backward(params, trace, ce_loss(trace, y).dlogits)
        numeric = fd_gradient(lambda v: ce_loss(forward(params, v), y).value, x)
        assert max_rel_err(grads.inputs, numeric) <= 1e-4

    def test_half_batch_gradients_average_to_full_batch(self):
        rng = np.random.default_rng(8)
        params = small_net(seed=1)
        x = rng.normal(size=(6, 2))
        y = rng.integers(0, 3, size=6)

        def grad_of(xs, ys):
            trace = forward(params, xs)
            return backward(params, trace, ce_loss(trace, ys).dlogits)

        full = grad_of(x, y)
        h1 = grad_of(x[:3], y[:3])
        h2 = grad_of(x[3:], y[3:])
        for f, a, b in zip(full.weights, h1.weights, h2.weights):
            assert np.allclose(f, 0.5 * (a + b), atol=1e-12)

    def test_shape_mismatch_raises(self):
        params = small_net()
        trace = forward(params, np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            backward(params, trace, np.zeros((3, 3)))

    @pytest.mark.parametrize("loss_name", ["ce", "contradistinguish", "adversarial"])
    def test_every_loss_composed_with_backward_passes_fd(self, loss_name):
        from contradist.dataset import Priors
        from contradist.losses import adv_multilabel_loss, contradistinguish_loss, pseudo_label_select

        rng = np.random.default_rng(17)
        params = small_net(seed=6)
        for b in params.biases:
            b += rng.normal(scale=0.1, size=b.shape)  # keep off relu kinks
        x = rng.normal(size=(6, 2))
        labels = rng.integers(0, 3, size=6)
        prior = Priors(np.array([0.5, 0.3, 0.2]))
        pseudo = pseudo_label_select(forward(params, x).probs, prior)

        def loss_of(trace):
            if loss_name == "ce":
                return ce_loss(trace, labels)
            if loss_name == "contradistinguish":
                return contradistinguish_loss(trace, pseudo, prior)
            return adv_multilabel_loss(trace)

        trace = forward(params, x)
        lv = loss_of(trace)
        grads = backward(params, trace, lv.dlogits)
        for l in range(2):
            for arrays, analytic in (
                (params.weights, grads.weights),
                (params.biases, grads.biases),
            ):
                def value_at(values, l=l, arrays=arrays):
                    saved = arrays[l].copy()
                    arrays[l][:] = values
                    out = loss_of(forward(params, x)).value
                    arrays[l][:] = saved
                    return out

                numeric = fd_gradient(value_at, arrays[l])
                assert max_rel_err(analytic[l], numeric) <= 1e-4


# (layer dims, rows): no hidden layer, one row, a training batch and a
# contour chunk (evaluation.CHUNK_ROWS)
PASS_SHAPES = [((2, 3), 32), ((2, 64, 64, 2), 1), ((2, 64, 64, 2), 32), ((2, 64, 64, 3), 8192)]


@pytest.mark.parametrize("dims,rows", PASS_SHAPES, ids=["no-hidden", "1-row", "32-rows", "chunk"])
class TestPassesMatchPlainExpressions:
    """The in-place passes give the bits of the plain expressions they replace."""

    def test_forward(self, dims, rows):
        params = net_with_biases(dims, 3)
        x = 2.0 * np.random.default_rng(rows).normal(size=(rows, 2))
        got, want = forward(params, x), reference_forward(params, x)
        assert np.array_equal(got.inputs, want.inputs)
        assert len(got.activations) == len(want.activations) == len(dims) - 2
        for a, b in zip(got.activations, want.activations):
            assert np.array_equal(a, b)
        for name in ("logits", "log_probs", "probs"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_backward(self, dims, rows):
        params = net_with_biases(dims, 4)
        rng = np.random.default_rng(rows + 1)
        trace = forward(params, 2.0 * rng.normal(size=(rows, 2)))
        dl = rng.normal(size=trace.logits.shape)
        dl_before = dl.copy()
        grads = backward(params, trace, dl)
        want_flat, want_inputs = reference_backward(params, trace, dl)
        assert np.array_equal(grads.flat, want_flat)
        assert np.array_equal(grads.inputs, want_inputs)
        assert np.array_equal(dl, dl_before)  # the caller's gradient is never written


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = init_params([2, 64, 64, 2], 11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.layer_dims == params.layer_dims
        for a, b in zip(params.weights + params.biases, back.weights + back.biases):
            assert np.array_equal(a, b)

    def test_golden_bytes(self, tmp_path):
        params = init_params((2, 3, 2), 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        want = b"CDST" + struct.pack("<II", 1, 3) + struct.pack("<3I", 2, 3, 2)
        for w, b in zip(params.weights, params.biases):
            want += w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
        assert path.read_bytes() == want

    def test_loaded_params_are_writable_and_own_their_memory(self, tmp_path):
        params = init_params((2, 3, 2), 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.flat.flags.writeable and back.flat.flags.owndata
        assert not np.shares_memory(back.flat, params.flat)
        back.weights[0][0, 0] += 1.0
        assert back.flat[0] == params.flat[0] + 1.0

    def test_forward_identical_after_round_trip(self, tmp_path):
        params = init_params([2, 8, 3], 5)
        x = np.random.default_rng(0).normal(size=(10, 2))
        before = forward(params, x).probs
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, path)
        after = forward(load_checkpoint(path), x).probs
        assert np.array_equal(before, after)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params([2, 3, 2], 0), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params([2, 3, 2], 0), path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params([2, 3, 2], 0), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params([2, 3, 2], 0), path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
