"""Loss values against hand arithmetic, loop oracles, and finite differences."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contradist.dataset import Priors
from contradist.errors import NumericError, ShapeError, ValidationError
from contradist.losses import (
    LossValue,
    _median,
    _sq_dists,
    adv_multilabel_loss,
    ce_loss,
    contradistinguish_loss,
    kernel_mmd,
    multi_source_supervised,
    pseudo_label_select,
)
from helpers import contradistinguish_nxn, fd_gradient, max_rel_err, trace_from_logits

uniform2 = Priors(np.array([0.5, 0.5]))


def random_probs(rng, n, k):
    p = rng.uniform(0.05, 1.0, size=(n, k))
    return p / p.sum(axis=1, keepdims=True)


class TestCeLoss:
    def test_perfect_prediction_is_zero(self):
        trace = trace_from_logits([[60.0, 0.0], [0.0, 60.0]])
        lv = ce_loss(trace, np.array([0, 1]))
        assert lv.value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_probs_give_ln2(self):
        trace = trace_from_logits(np.zeros((5, 2)))
        lv = ce_loss(trace, np.array([0, 1, 0, 1, 0]))
        assert lv.value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_naive_per_sample_loop(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        trace = trace_from_logits(logits)
        total = 0.0
        for i in range(4):
            total -= math.log(trace.probs[i, labels[i]])
        assert ce_loss(trace, labels).value == pytest.approx(total / 4, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        lv = ce_loss(trace_from_logits(logits), labels)
        numeric = fd_gradient(lambda z: ce_loss(trace_from_logits(z), labels).value, logits)
        assert max_rel_err(lv.dlogits, numeric) <= 1e-4

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValidationError):
            ce_loss(trace_from_logits(np.zeros((2, 2))), np.array([0, 2]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(5, 3)) * 5
        labels = rng.integers(0, 3, size=5)
        assert ce_loss(trace_from_logits(logits), labels).value >= 0.0


def select_oracle(probs, priors):
    """Brute-force double loop over (sample, class)."""
    n, k = probs.shape
    labels = np.zeros(n, dtype=np.int64)
    for j in range(n):
        best = -1.0
        for c in range(k):
            denom = 0.0
            for l in range(n):
                denom += probs[l, c]
            score = probs[j, c] * priors.probs[c] / denom
            if score > best:
                best = score
                labels[j] = c
    return labels


class TestPseudoLabelSelect:
    def test_uniform_prior_example(self):
        probs = np.array([[0.8, 0.2], [0.4, 0.6]])
        assert pseudo_label_select(probs, uniform2).tolist() == [0, 1]

    def test_skewed_prior_flips_second_sample(self):
        probs = np.array([[0.8, 0.2], [0.4, 0.6]])
        assert pseudo_label_select(probs, Priors(np.array([0.9, 0.1]))).tolist() == [0, 0]

    def test_single_sample_ties_to_class_zero(self):
        out = pseudo_label_select(np.array([[0.25, 0.25, 0.5]]), Priors(np.array([1 / 3] * 3)))
        # scores collapse to the prior itself, so everything ties
        assert out.dtype == np.int64 and out.tolist() == [0]

    def test_matches_double_loop_oracle_on_50_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 17))
            k = int(rng.integers(2, 6))
            probs = random_probs(rng, n, k)
            prior = rng.uniform(0.1, 1.0, size=k)
            prior = Priors(prior / prior.sum())
            assert np.array_equal(pseudo_label_select(probs, prior), select_oracle(probs, prior))

    def test_zero_column_raises(self):
        with pytest.raises(NumericError):
            pseudo_label_select(np.array([[1.0, 0.0], [1.0, 0.0]]), uniform2)

    @pytest.mark.parametrize(
        "probs, message",
        [
            (np.zeros((0, 2)), "probs must be a nonempty n x K matrix, got (0, 2)"),
            (np.full(2, 0.5), "probs must be a nonempty n x K matrix, got (2,)"),
            (np.full((2, 3), 1 / 3), "probs have 3 classes but priors have 2"),
        ],
        ids=["no-rows", "1-d", "class-count"],
    )
    def test_bad_shapes_raise(self, probs, message):
        with pytest.raises(ShapeError, match=re.escape(message)):
            pseudo_label_select(probs, uniform2)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.01, 100.0))
    def test_column_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, 6, 3)
        scaled = probs.copy()
        scaled[:, 1] *= scale
        a = pseudo_label_select(probs, Priors(np.array([0.2, 0.5, 0.3])))
        b = pseudo_label_select(scaled, Priors(np.array([0.2, 0.5, 0.3])))
        assert np.array_equal(a, b)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 2), st.floats(1.0, 50.0))
    def test_prior_monotonicity(self, seed, boosted, factor):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, 8, 3)
        base = rng.uniform(0.1, 1.0, size=3)
        base /= base.sum()
        bumped = base.copy()
        bumped[boosted] *= factor
        bumped /= bumped.sum()
        before = pseudo_label_select(probs, Priors(base))
        after = pseudo_label_select(probs, Priors(bumped))
        for old, new in zip(before, after):
            if old == boosted:
                assert new == boosted
            else:
                assert new in (old, boosted)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, 7, 3)
        perm = rng.permutation(7)
        prior = Priors(np.array([0.3, 0.3, 0.4]))
        direct = pseudo_label_select(probs[perm], prior)
        permuted = pseudo_label_select(probs, prior)[perm]
        assert np.array_equal(direct, permuted)


def contradistinguish_oracle(probs, labels, priors):
    """Naive double-loop evaluation with clamped logs."""
    n = probs.shape[0]
    total = 0.0
    for j in range(n):
        y = labels[j]
        own = math.log(max(probs[j, y], 1e-12))
        prior = math.log(max(priors.probs[y], 1e-12))
        batch = 0.0
        for l in range(n):
            batch += probs[l, y]
        total += own + prior - math.log(batch)
    return -total / n


class TestContradistinguishLoss:
    def test_single_sample_reduces_to_prior_term(self):
        trace = trace_from_logits([[1.3, -0.4]])
        prior = Priors(np.array([0.7, 0.3]))
        pseudo = pseudo_label_select(trace.probs, prior)
        lv = contradistinguish_loss(trace, pseudo, prior)
        assert lv.value == pytest.approx(-math.log(prior.probs[pseudo[0]]), abs=1e-12)
        assert np.all(lv.dlogits == 0.0)

    def test_value_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            logits = rng.normal(size=(4, 2)) * 2
            trace = trace_from_logits(logits)
            pseudo = pseudo_label_select(trace.probs, uniform2)
            lv = contradistinguish_loss(trace, pseudo, uniform2)
            expected = contradistinguish_oracle(trace.probs, pseudo, uniform2)
            assert lv.value == pytest.approx(expected, abs=1e-10)

    def test_gradient_matches_finite_differences_with_frozen_pseudo(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(5, 3))
        trace = trace_from_logits(logits)
        prior = Priors(np.array([0.5, 0.2, 0.3]))
        pseudo = pseudo_label_select(trace.probs, prior)
        lv = contradistinguish_loss(trace, pseudo, prior)
        numeric = fd_gradient(
            lambda z: contradistinguish_loss(trace_from_logits(z), pseudo, prior).value,
            logits,
        )
        assert max_rel_err(lv.dlogits, numeric) <= 1e-4

    @pytest.mark.parametrize("absent", [False, True], ids=["drawn", "last-class-absent"])
    @pytest.mark.parametrize("n", [1, 2, 32, 128, 256])
    @pytest.mark.parametrize("k", [2, 4, 10, 31])
    def test_matches_the_n_by_n_form(self, k, n, absent):
        rng = np.random.default_rng(1000 * k + n)
        trace = trace_from_logits(rng.normal(size=(n, k)) * 3.0)
        prior = rng.uniform(0.2, 1.0, size=k)
        prior = Priors(prior / prior.sum())
        labels = rng.integers(0, k - 1 if absent else k, size=n)
        lv = contradistinguish_loss(trace, labels, prior)
        value, dlogits = contradistinguish_nxn(trace, labels, prior.probs)
        assert abs(lv.value - value) <= 1e-12 * abs(value)
        assert np.abs(lv.dlogits - dlogits).max() <= 1e-12 * np.abs(dlogits).max()

    def test_pseudo_length_mismatch_raises(self):
        trace = trace_from_logits(np.zeros((3, 2)))
        pseudo = pseudo_label_select(np.full((2, 2), 0.5), uniform2)
        with pytest.raises(ShapeError):
            contradistinguish_loss(trace, pseudo, uniform2)


class TestAdvMultilabelLoss:
    def test_uniform_two_class_value(self):
        lv = adv_multilabel_loss(trace_from_logits(np.zeros((4, 2))))
        assert lv.value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_per_sample_lower_bound(self, seed, k):
        rng = np.random.default_rng(seed)
        trace = trace_from_logits(rng.normal(size=(6, k)) * 4)
        per_sample = -trace.log_probs.sum(axis=1)
        assert np.all(per_sample >= k * math.log(k) - 1e-9)

    def test_bound_attained_only_at_uniform(self):
        k = 3
        uniform_value = adv_multilabel_loss(trace_from_logits(np.zeros((1, k)))).value
        assert uniform_value == pytest.approx(k * math.log(k), abs=1e-12)
        tilted = adv_multilabel_loss(trace_from_logits([[0.5, 0.0, -0.5]])).value
        assert tilted > uniform_value + 1e-3

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(3, 4))
        lv = adv_multilabel_loss(trace_from_logits(logits))
        numeric = fd_gradient(lambda z: adv_multilabel_loss(trace_from_logits(z)).value, logits)
        assert max_rel_err(lv.dlogits, numeric) <= 1e-4


def mmd_oracle(a, b, gamma):
    """Triple loop over all kernel pairs."""
    def k(x, y):
        return math.exp(-gamma * float(((x - y) ** 2).sum()))

    total = 0.0
    for i in range(len(a)):
        for j in range(len(a)):
            total += k(a[i], a[j]) / len(a) ** 2
    for i in range(len(b)):
        for j in range(len(b)):
            total += k(b[i], b[j]) / len(b) ** 2
    for i in range(len(a)):
        for j in range(len(b)):
            total -= 2.0 * k(a[i], b[j]) / (len(a) * len(b))
    return total


def heuristic_gamma(a, b):
    """kernel_mmd's median-heuristic gamma for (a, b), from its own helpers."""
    sq_a, sq_b = (np.einsum("ij,ij->i", m, m) for m in (a, b))
    return 1.0 / (2.0 * _median(_sq_dists(a, sq_a, b, sq_b).ravel()))


class TestKernelMmd:
    def test_identical_multisets_give_zero(self):
        rng = np.random.default_rng(0)
        for n, d in ((5, 3), (128, 64)):
            emb = rng.normal(size=(n, d))
            for other in (emb.copy(), emb[rng.permutation(n)]):
                for gamma in (0.7, "median-heuristic"):
                    value, _ = kernel_mmd(emb, other, gamma)
                    assert abs(value) <= 1e-9

    def test_inputs_are_left_unchanged(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(5, 4))
        a0, b0 = a.copy(), b.copy()
        kernel_mmd(a, b, "median-heuristic")
        assert np.array_equal(a, a0) and np.array_equal(b, b0)

    def test_singletons_closed_form(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[0.0, -1.0]])
        gamma = 0.3
        expected = 2.0 * (1.0 - math.exp(-gamma * 10.0))
        value, _ = kernel_mmd(a, b, gamma)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(4, 2))
        value, _ = kernel_mmd(a, b, 0.5)
        assert value == pytest.approx(mmd_oracle(a, b, 0.5), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(4, 2))
        _, d_emb_a = kernel_mmd(a, b, 0.8)
        num_a = fd_gradient(lambda v: kernel_mmd(v, b, 0.8)[0], a)
        num_b = fd_gradient(lambda v: kernel_mmd(a, v, 0.8)[0], b)
        assert max_rel_err(d_emb_a, num_a) <= 1e-4
        # MMD^2 is symmetric: the second set's gradient is the swapped call's first
        assert max_rel_err(kernel_mmd(b, a, 0.8)[1], num_b) <= 1e-4

    def test_median_heuristic_equals_explicit_gamma(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(5, 3))
        cross = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        gamma = 1.0 / (2.0 * np.median(cross))
        auto = kernel_mmd(a, b, "median-heuristic")
        # the heuristic's own gamma, so equality does not hang on rounding
        manual = kernel_mmd(a, b, heuristic_gamma(a, b))
        assert auto[0] == manual[0]
        assert np.array_equal(auto[1], manual[1])
        # the second set's gradient, from the swapped call and its own gamma
        swapped = kernel_mmd(b, a, "median-heuristic")
        manual_b = kernel_mmd(b, a, heuristic_gamma(b, a))
        assert np.array_equal(swapped[1], manual_b[1])
        assert heuristic_gamma(a, b) == pytest.approx(gamma)
        assert heuristic_gamma(b, a) == pytest.approx(gamma)

    def test_zero_median_distance_raises(self):
        a = np.array([[1.0, 1.0]])
        with pytest.raises(NumericError):
            kernel_mmd(a, a.copy(), "median-heuristic")

    def test_collapsed_rows_raise_under_median_heuristic(self):
        # Gram-form rounding must not leave equal rows a tiny distance apart
        for seed in range(50):
            row = np.random.default_rng(seed).normal(size=64)
            a = np.tile(row, (5, 1))
            with pytest.raises(NumericError):
                kernel_mmd(a, a.copy(), "median-heuristic")

    @pytest.mark.parametrize(
        "gamma, n_a, n_b",
        [
            pytest.param(0.01, 128, 96, id="0.01"),
            pytest.param("median-heuristic", 128, 96, id="median-heuristic"),
            # 63 cross distances: the median's odd-count branch
            pytest.param(0.01, 7, 9, id="0.01-7x9"),
            pytest.param("median-heuristic", 7, 9, id="median-heuristic-7x9"),
        ],
    )
    def test_matches_direct_difference_form(self, gamma, n_a, n_b):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(n_a, 64))
        b = rng.normal(loc=0.3, size=(n_b, 64))
        value, d_emb_a = kernel_mmd(a, b, gamma)

        # the (n, m, d) difference-tensor reference
        diff_aa = a[:, None, :] - a[None, :, :]
        diff_bb = b[:, None, :] - b[None, :, :]
        diff_ab = a[:, None, :] - b[None, :, :]
        d2_ab = (diff_ab**2).sum(-1)
        g = 1.0 / (2.0 * np.median(d2_ab)) if isinstance(gamma, str) else gamma
        k_aa = np.exp(-g * (diff_aa**2).sum(-1))
        k_bb = np.exp(-g * (diff_bb**2).sum(-1))
        k_ab = np.exp(-g * d2_ab)
        want = k_aa.mean() + k_bb.mean() - 2.0 * k_ab.mean()
        d_a = (-4 * g / n_a**2) * np.einsum("ij,ijd->id", k_aa, diff_aa)
        d_a += (4 * g / (n_a * n_b)) * np.einsum("ij,ijd->id", k_ab, diff_ab)
        d_b = (-4 * g / n_b**2) * np.einsum("ij,ijd->id", k_bb, diff_bb)
        d_b -= (4 * g / (n_a * n_b)) * np.einsum("ji,jid->id", k_ab, diff_ab)

        if isinstance(gamma, str):
            assert heuristic_gamma(a, b) == pytest.approx(g, rel=1e-10)
        assert value == pytest.approx(want, rel=1e-10)
        d_emb_b = kernel_mmd(b, a, gamma)[1]  # the second set's gradient
        for got, ref in ((d_emb_a, d_a), (d_emb_b, d_b)):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rng.integers(1, 6), 2))
        b = rng.normal(size=(rng.integers(1, 6), 2))
        assert kernel_mmd(a, b, 1.0)[0] >= -1e-12

    def test_width_mismatch_raises(self):
        with pytest.raises(ShapeError):
            kernel_mmd(np.zeros((2, 2)), np.zeros((2, 3)), 1.0)

    @pytest.mark.parametrize(
        "a, b",
        [(np.zeros(3), np.zeros((2, 3))), (np.zeros((2, 3)), np.zeros((0, 3)))],
        ids=["1-d", "no-rows"],
    )
    def test_non_matrix_or_empty_sets_raise(self, a, b):
        with pytest.raises(ShapeError, match="embedding sets must be nonempty 2-D matrices"):
            kernel_mmd(a, b, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("gamma", [1.0, "median-heuristic"])
    def test_non_finite_embeddings_raise(self, gamma, side, bad):
        rng = np.random.default_rng(12)
        emb = {"a": rng.normal(size=(6, 3)), "b": rng.normal(size=(5, 3))}
        emb[side][2, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            kernel_mmd(emb["a"], emb["b"], gamma)


# squared distances as kernel_mmd gives them: non-negative (a clamped zero is
# +0.0, never -0.0) and often tied (equal rows, clamped pairs)
distances = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e300)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(distances, min_size=1, max_size=300))
def test_one_pivot_median_is_np_median_bit_for_bit(values):
    values = np.array(values)
    assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()


class TestMultiSourceSupervised:
    def test_single_source_identity(self):
        lv = LossValue(1.5, np.ones((2, 2)))
        out = multi_source_supervised([lv])
        assert out.value == lv.value
        assert np.array_equal(out.dlogits, lv.dlogits)

    def test_two_equal_losses_double(self):
        lv = LossValue(0.7, np.full((3, 2), 0.25))
        out = multi_source_supervised([lv, lv])
        assert out.value == pytest.approx(1.4)
        assert np.allclose(out.dlogits, 0.5)

    def test_three_losses_match_reverse_accumulation(self):
        rng = np.random.default_rng(10)
        losses = [LossValue(float(rng.normal()), rng.normal(size=(2, 3))) for _ in range(3)]
        fwd = multi_source_supervised(losses)
        value = 0.0
        dlogits = np.zeros((2, 3))
        for lv in reversed(losses):
            value += lv.value
            dlogits += lv.dlogits
        assert fwd.value == pytest.approx(value, abs=1e-12)
        assert np.allclose(fwd.dlogits, dlogits, atol=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            multi_source_supervised([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            multi_source_supervised(
                [LossValue(0.0, np.zeros((2, 2))), LossValue(0.0, np.zeros((3, 2)))]
            )
