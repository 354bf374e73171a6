"""Prediction, metric tallies, and the contour grid export."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from contradist.errors import ShapeError, ValidationError
from contradist.evaluation import (
    CHUNK_ROWS,
    MAX_RESOLUTION,
    ContourGrid,
    compute_metrics,
    contour_grid,
    default_bounds,
    predict,
    save_contour_csv,
)
from contradist.model import MAX_BATCH_ENTRIES, forward, init_params
from helpers import golden_build, load_tool, net_with_biases

# SHA-256 of the contour.csv pinned below, recorded on the hash grid's golden build
PINNED_BUILD = golden_build()
PINNED_CSV_SHA256 = "983da5a3c4580e18b204a68b1737d6cf8cb8c81c775af6a2370f4402286d9f01"


def zero_net(k=3):
    params = init_params([2, 4, k], 0)
    for w in params.weights:
        w[:] = 0.0
    return params


class TestPredict:
    def test_zero_network_ties_to_class_zero(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        assert np.all(predict(zero_net(), x) == 0)

    def test_uniform_logit_shift_keeps_predictions(self):
        params = init_params([2, 6, 3], 4)
        x = np.random.default_rng(1).normal(size=(20, 2))
        before = predict(params, x)
        shifted = params.copy()
        shifted.biases[-1] += 7.5  # same constant for every class
        assert np.array_equal(predict(shifted, x), before)

    @pytest.mark.parametrize(
        "x, error",
        [
            (np.zeros((0, 3)), ShapeError),
            (np.zeros((4, 3)), ShapeError),
            (np.zeros(2), ShapeError),
            (np.float64(1.0), ShapeError),
            (np.zeros((2, 2, 2)), ShapeError),
            (np.full((3, 2), np.nan), ValidationError),
        ],
        ids=["no-rows-wrong-width", "wrong-width", "1-d", "0-d", "3-d", "non-finite"],
    )
    def test_refuses_what_forward_refuses(self, x, error):
        with pytest.raises(error):
            predict(zero_net(), x)

    def test_matches_argmax_loop_oracle(self):
        from contradist.model import forward

        params = init_params([2, 5, 4], 2)
        x = np.random.default_rng(3).normal(size=(12, 2))
        probs = forward(params, x).probs
        got = predict(params, x)
        for i in range(12):
            best = 0
            for k in range(1, 4):
                if probs[i, k] > probs[i, best]:
                    best = k
            assert got[i] == best


class TestComputeMetrics:
    def test_perfect_predictions(self):
        truth = np.array([0, 1, 2, 1, 0])
        m = compute_metrics(truth, truth, 3)
        assert m.accuracy == 1.0
        assert np.array_equal(m.confusion, np.diag([2, 2, 1]))
        assert m.per_class_precision == [1.0, 1.0, 1.0]

    def test_constant_predictor_on_balanced_truth(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.zeros(4, dtype=np.int64)
        m = compute_metrics(pred, truth, 2)
        assert m.accuracy == 0.5
        assert m.per_class_recall == [1.0, 0.0]
        assert m.per_class_precision[0] == 0.5
        assert m.per_class_precision[1] is None  # no predictions for class 1

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 4, size=100)
        pred = rng.integers(0, 4, size=100)
        m = compute_metrics(pred, truth, 4)
        confusion = [[0] * 4 for _ in range(4)]
        for p, t in zip(pred, truth):
            confusion[t][p] += 1
        assert m.confusion.tolist() == confusion
        hits = sum(confusion[c][c] for c in range(4))
        assert m.accuracy == hits / 100
        assert int(m.confusion.sum()) == 100

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics(np.array([0, 1]), np.array([0]), 2)

    def test_bad_ids_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics(np.array([0, 5]), np.array([0, 1]), 2)

    def test_json_uses_null_for_undefined(self):
        import json

        m = compute_metrics(np.array([0, 0]), np.array([0, 1]), 2)
        obj = json.loads(m.to_json())
        assert obj["per_class_precision"][1] is None


class TestContourGrid:
    def test_resolution_two_hits_exact_corners(self):
        grid = contour_grid(zero_net(), (-1.0, 2.0, 0.0, 4.0), 2)
        assert grid.points.shape == (4, 2)
        assert grid.points.tolist() == [[-1, 0], [2, 0], [-1, 4], [2, 4]]

    def test_rows_are_row_major_x_fastest(self):
        grid = contour_grid(zero_net(), (0.0, 1.0, 0.0, 1.0), 3)
        xs = grid.points[:, 0]
        assert np.allclose(xs[:3], [0.0, 0.5, 1.0])
        assert np.allclose(grid.points[:3, 1], 0.0)

    def test_grid_predictions_match_predict(self):
        params = init_params([2, 8, 3], 7)
        for resolution in (5, 100):  # 100**2 rows: more than CHUNK_ROWS
            grid = contour_grid(params, (-2.0, 2.0, -2.0, 2.0), resolution)
            assert np.array_equal(grid.preds, predict(params, grid.points))

    def test_probs_rows_sum_to_one(self):
        params = init_params([2, 8, 4], 8)
        grid = contour_grid(params, (-3.0, 3.0, -1.0, 1.0), 4)
        assert np.max(np.abs(grid.probs.sum(axis=1) - 1.0)) <= 1e-6

    def test_chunked_grid_matches_one_shot_forward(self):
        # 100**2 rows: one full CHUNK_ROWS chunk and a partial one
        params = init_params([2, 64, 64, 3], 11)
        grid = contour_grid(params, (-3.0, 3.0, -2.0, 2.0), 100)
        assert len(grid.points) > CHUNK_ROWS
        one_shot = forward(params, grid.points).probs
        assert np.max(np.abs(grid.probs - one_shot)) <= 1e-12
        assert np.array_equal(grid.preds, np.argmax(one_shot, axis=1))

    def test_row_count_is_resolution_squared(self):
        grid = contour_grid(zero_net(), (0.0, 1.0, 0.0, 1.0), 7)
        assert grid.points.shape[0] == 49

    def test_non_2d_model_rejected(self):
        with pytest.raises(ValidationError):
            contour_grid(init_params([3, 4, 2], 0), (0, 1, 0, 1), 2)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValidationError):
            contour_grid(zero_net(), (1.0, 0.0, 0.0, 1.0), 2)

    @pytest.mark.parametrize("resolution", [1, MAX_RESOLUTION + 1])
    def test_resolution_outside_cap_rejected(self, resolution):
        with pytest.raises(ValidationError, match="resolution must lie in"):
            contour_grid(zero_net(), (0.0, 1.0, 0.0, 1.0), resolution)

    def test_default_bounds_expand_bbox_by_margin(self):
        features = np.array([[0.0, -1.0], [10.0, 3.0]])
        assert default_bounds(features) == (-2.0, 12.0, -1.8, 3.8)

    def test_csv_round_trips_through_float_parser(self, tmp_path):
        params = init_params([2, 6, 2], 9)
        grid = contour_grid(params, (-1.3, 2.7, -0.9, 1.1), 4)
        path = tmp_path / "contour.csv"
        save_contour_csv(grid, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,p0,p1,pred"
        assert len(lines) == 17
        for i, line in enumerate(lines[1:]):
            parts = line.split(",")
            assert float(parts[0]) == grid.points[i, 0]
            assert float(parts[1]) == grid.points[i, 1]
            assert float(parts[2]) == grid.probs[i, 0]
            assert int(parts[4]) == grid.preds[i]

    def test_csv_bytes_do_not_depend_on_the_row_block(self, tmp_path, monkeypatch):
        from contradist import dataset

        grid = contour_grid(init_params([2, 6, 2], 9), (-1.3, 2.7, -0.9, 1.1), 4)
        save_contour_csv(grid, tmp_path / "whole.csv")
        monkeypatch.setattr(dataset, "_ROW_BLOCK", 3)
        save_contour_csv(grid, tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_csv_bytes_pinned(self, tmp_path):
        # 100**2 rows: one full CHUNK_ROWS chunk and a partial one
        running = load_tool("hash_grid").build()
        if running != PINNED_BUILD:
            pytest.skip(f"hash recorded on {PINNED_BUILD!r}; this build is {running!r}")
        grid = contour_grid(net_with_biases((2, 64, 64, 3), 11), (-3.0, 3.0, -2.0, 2.0), 100)
        save_contour_csv(grid, tmp_path / "contour.csv")
        got = hashlib.sha256((tmp_path / "contour.csv").read_bytes()).hexdigest()
        assert got == PINNED_CSV_SHA256

    def test_peak_memory_is_the_kept_arrays(self):
        """The grid's traced peak: its points and probabilities, one chunk's
        hidden activations and softmax arrays, and 1 MiB for the rest."""
        params, r = init_params([2, 64, 64, 2], 5), 300
        k, f64 = params.num_classes, 8
        hidden = sum(params.layer_dims[1:-1])
        bound = f64 * (CHUNK_ROWS * hidden + r * r * (2 + k) + 3 * CHUNK_ROWS * k) + 2**20
        tracemalloc.start()
        try:
            contour_grid(params, (-1.0, 1.0, -1.0, 1.0), r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_wide_layer_runs_in_fewer_rows_per_chunk(self):
        """An 8192-unit layer gets MAX_BATCH_ENTRIES // 8192 = 512 rows per
        chunk: predict is a forward's over 512-row slices, and the traced peak
        holds one such chunk's hidden activations, its softmax arrays, the
        probabilities and predictions of every row, and 1 MiB for the rest."""
        params, n, width = init_params([2, 8192, 2], 3), 1024, 8192
        rows, k, f64 = MAX_BATCH_ENTRIES // width, params.num_classes, 8
        assert rows == 512 and n > rows
        x = np.random.default_rng(4).normal(size=(n, 2))
        sliced = np.vstack([forward(params, x[i : i + rows]).probs for i in range(0, n, rows)])
        bound = f64 * (rows * width + 3 * rows * k + n * (k + 1)) + 2**20
        tracemalloc.start()
        try:
            preds = predict(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(preds, np.argmax(sliced, axis=1))
        assert peak < bound  # one chunk of all 1024 rows would hold twice the activations

    def test_csv_exact_bytes(self, tmp_path):
        points = np.array([[-1.0, 0.0], [0.5, 0.0], [-1.0, 2.0], [0.5, 2.0]])
        probs = np.array([[0.25, 0.75], [1 / 3, 2 / 3], [0.9999999999999999, 1e-16], [0.5, 0.5]])
        grid = ContourGrid(points, probs, np.array([1, 1, 0, 0]))
        path = tmp_path / "contour.csv"
        save_contour_csv(grid, path)
        assert path.read_bytes() == (
            b"x,y,p0,p1,pred\n"
            b"-1.0,0.0,0.25,0.75,1\n"
            b"0.5,0.0,0.3333333333333333,0.6666666666666666,1\n"
            b"-1.0,2.0,0.9999999999999999,1e-16,0\n"
            b"0.5,2.0,0.5,0.5,0\n"
        )
