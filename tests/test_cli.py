"""End-to-end command behavior, exit codes, and file outputs."""

import json
import os

import numpy as np
import pytest

from contradist.cli import main
from contradist.dataset import load_csv

FAST_TRAIN = [
    "--epochs", "4", "--batch-size", "32", "--seed", "1",
]


def gen(tmp_path, preset="aligned", seed=1, samples=80):
    data_dir = tmp_path / "data"
    code = main(
        [
            "gen-data",
            "--preset", preset,
            "--seed", str(seed),
            "--samples-per-class", str(samples),
            "--out", str(data_dir),
        ]
    )
    assert code == 0
    return data_dir


def fast_train(tmp_path, data_dir, out="run", extra=()):
    out_dir = tmp_path / out
    code = main(
        [
            "train",
            "--data-dir", str(data_dir),
            "--sources", "d0",
            "--target", "d1",
            "--out", str(out_dir),
            *FAST_TRAIN,
            *extra,
        ]
    )
    return code, out_dir


def assert_one_line_error(capsys, message):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err


def train_with_config(tmp_path, text):
    """Run train from a config file holding text; no data is needed to fail."""
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(text)
    return main(
        [
            "train", "--config", str(cfg_path),
            "--data-dir", str(tmp_path / "data"), "--sources", "d0", "--target", "d1",
            "--out", str(tmp_path / "run"),
        ]
    )


class TestGenData:
    def test_writes_four_csvs_with_expected_rows(self, tmp_path, capsys):
        data_dir = gen(tmp_path, samples=100)
        files = sorted(os.listdir(data_dir))
        assert files == [
            "d0_test.csv", "d0_train.csv", "d1_test.csv", "d1_train.csv",
            "gen_config.json",
        ]
        for name in files[:4]:
            ds = load_csv(data_dir / name)
            assert ds.n == 100
            assert np.array_equal(np.bincount(ds.labels), [50, 50])
        out = capsys.readouterr().out
        assert "class 0: 50" in out

    def test_default_scale_writes_2000_row_splits(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(
            ["gen-data", "--preset", "aligned", "--seed", "2", "--out", str(data_dir)]
        ) == 0
        for name in ("d0_train.csv", "d0_test.csv", "d1_train.csv", "d1_test.csv"):
            ds = load_csv(data_dir / name)
            assert ds.n == 2000
            assert np.array_equal(np.bincount(ds.labels), [1000, 1000])

    def test_invalid_preset_exits_1_and_lists_presets(self, tmp_path, capsys):
        code = main(["gen-data", "--preset", "bogus", "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "aligned" in err and "rotated" in err

    def test_same_seed_gives_identical_files(self, tmp_path):
        d1 = gen(tmp_path / "a", seed=5)
        d2 = gen(tmp_path / "b", seed=5)
        assert (d1 / "d0_train.csv").read_bytes() == (d2 / "d0_train.csv").read_bytes()

    def test_missing_output_dir_flag(self, tmp_path, capsys):
        assert main(["gen-data", "--preset", "aligned"]) == 1

    def test_explicit_domain_config(self, tmp_path):
        spec = {
            "classes": [{"center": [-1, 0], "std": 0.3}, {"center": [1, 0], "std": 0.3}],
            "samples_per_class": 10,
            "seed": 3,
        }
        cfg = {"schema_version": 1, "domains": {"a": spec, "b": spec, "c": spec}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert sorted(p for p in os.listdir(out) if p.endswith(".csv")) == [
            "a_test.csv", "a_train.csv", "b_test.csv", "b_train.csv",
            "c_test.csv", "c_train.csv",
        ]


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path):
        data_dir = gen(tmp_path)
        code, out_dir = fast_train(tmp_path, data_dir)
        assert code == 0
        for name in (
            "config.json", "model.ckpt", "history.jsonl",
            "metrics_source_test.json", "metrics_target_test.json",
        ):
            assert (out_dir / name).exists()
        history = [json.loads(l) for l in (out_dir / "history.jsonl").read_text().splitlines()]
        assert len(history) == 4
        config = json.loads((out_dir / "config.json").read_text())
        assert config["train"]["seed"] == 1

    def test_same_seed_identical_metrics(self, tmp_path):
        data_dir = gen(tmp_path)
        _, out1 = fast_train(tmp_path, data_dir, out="r1")
        _, out2 = fast_train(tmp_path, data_dir, out="r2")
        assert (out1 / "metrics_target_test.json").read_bytes() == (
            out2 / "metrics_target_test.json"
        ).read_bytes()

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        code, _ = fast_train(tmp_path, tmp_path / "nope")
        assert code == 1

    def test_invalid_terms_exit_1(self, tmp_path):
        data_dir = gen(tmp_path)
        code, _ = fast_train(tmp_path, data_dir, extra=("--terms", "tu"))
        assert code == 1

    def test_multi_source_runs(self, tmp_path):
        spec = {
            "classes": [{"center": [-2, 0], "std": 0.3}, {"center": [2, 0], "std": 0.3}],
            "samples_per_class": 40,
            "seed": 3,
        }
        cfg = {
            "schema_version": 1,
            "domains": {"d0": spec, "d1": {**spec, "seed": 4}, "d2": {**spec, "seed": 5}},
        }
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps(cfg))
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
        out_dir = tmp_path / "ms"
        code = main(
            [
                "train",
                "--data-dir", str(data_dir),
                "--sources", "d0,d1",
                "--target", "d2",
                "--out", str(out_dir),
                *FAST_TRAIN,
            ]
        )
        assert code == 0
        history = [json.loads(l) for l in (out_dir / "history.jsonl").read_text().splitlines()]
        assert all(np.isfinite(rec["losses"]["ss"]) for rec in history)

    def test_unsupervised_terms_beat_supervised_only_on_rotated(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(
            ["gen-data", "--preset", "rotated", "--seed", "1", "--out", str(data_dir)]
        ) == 0
        accs = {}
        for terms in ("ss", "ss,tu,ta"):
            out_dir = tmp_path / terms.replace(",", "_")
            code = main(
                [
                    "train",
                    "--data-dir", str(data_dir),
                    "--sources", "d0",
                    "--target", "d1",
                    "--terms", terms,
                    "--epochs", "60",
                    "--seed", "1",
                    "--out", str(out_dir),
                ]
            )
            assert code == 0
            metrics = json.loads((out_dir / "metrics_target_test.json").read_text())
            accs[terms] = metrics["accuracy"]
        assert accs["ss,tu,ta"] > accs["ss"]

    def test_config_file_with_flag_overrides(self, tmp_path):
        data_dir = gen(tmp_path)
        cfg = {
            "schema_version": 1,
            "data_dir": str(data_dir),
            "sources": ["d0"],
            "target": "d1",
            "out_dir": str(tmp_path / "from_file"),
            "train": {"epochs": 2, "batch_size": 32, "seed": 9},
        }
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        echoed = json.loads((tmp_path / "from_file" / "config.json").read_text())
        assert echoed["train"]["epochs"] == 2
        # flags beat file fields
        assert main(["train", "--config", str(cfg_path), "--epochs", "1",
                     "--out", str(tmp_path / "flagged")]) == 0
        echoed = json.loads((tmp_path / "flagged" / "config.json").read_text())
        assert echoed["train"]["epochs"] == 1


    def test_sa_with_generator_sampler_exits_1(self, tmp_path, capsys):
        code, out_dir = fast_train(
            tmp_path, tmp_path / "data", extra=("--terms", "ss,sa", "--fake-sampler", "generator")
        )
        assert code == 1
        assert_one_line_error(capsys, "sa needs the Gaussian fake sampler")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "train_section, message",
        [
            ({"epoch": 1}, "unknown train config key 'epoch'"),
            ({"fake_sampler": {"noise": 2}}, "unknown fake_sampler key 'noise'"),
            ({"epochs": "two"}, "bad train config value for 'epochs'"),
            ({"fake_sampler": {"lr": None}}, "bad fake_sampler value for 'lr'"),
        ],
        ids=["unknown-key", "unknown-sampler-key", "bad-value", "bad-sampler-value"],
    )
    def test_bad_train_config_exits_1(self, tmp_path, capsys, train_section, message):
        text = json.dumps({"schema_version": 1, "train": train_section})
        assert train_with_config(tmp_path, text) == 1
        assert_one_line_error(capsys, message)

    def test_malformed_config_json_exits_1(self, tmp_path, capsys):
        assert train_with_config(tmp_path, '{"train": {"epochs": 2') == 1
        assert_one_line_error(capsys, "malformed JSON")

    def test_unconvertible_weight_flag_exits_1(self, tmp_path, capsys):
        code, _ = fast_train(tmp_path, tmp_path / "data", extra=("--weights", "ss=abc"))
        assert code == 1
        assert_one_line_error(capsys, "could not convert string to float: 'abc'")


class TestEval:
    def test_eval_prints_and_writes_metrics(self, tmp_path, capsys):
        data_dir = gen(tmp_path)
        _, out_dir = fast_train(tmp_path, data_dir)
        metrics_path = tmp_path / "m.json"
        capsys.readouterr()  # drop gen/train output
        code = main(
            [
                "eval",
                "--checkpoint", str(out_dir / "model.ckpt"),
                "--data", str(data_dir / "d1_test.csv"),
                "--out", str(metrics_path),
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(metrics_path.read_text())
        assert printed == on_disk
        assert 0.0 <= printed["accuracy"] <= 1.0

    def test_unlabeled_dataset_exits_1(self, tmp_path, capsys):
        data_dir = gen(tmp_path)
        _, out_dir = fast_train(tmp_path, data_dir)
        unlabeled = load_csv(data_dir / "d1_test.csv").without_labels()
        from contradist.dataset import save_csv

        save_csv(unlabeled, tmp_path / "u.csv")
        code = main(
            [
                "eval",
                "--checkpoint", str(out_dir / "model.ckpt"),
                "--data", str(tmp_path / "u.csv"),
            ]
        )
        assert code == 1


class TestContour:
    def test_full_resolution_row_count(self, tmp_path):
        data_dir = gen(tmp_path)
        _, out_dir = fast_train(tmp_path, data_dir)
        contour_path = tmp_path / "contour.csv"
        code = main(
            [
                "contour",
                "--checkpoint", str(out_dir / "model.ckpt"),
                "--bounds=-4,4,-4,4",
                "--resolution", "200",
                "--out", str(contour_path),
            ]
        )
        assert code == 0
        assert len(contour_path.read_text().strip().split("\n")) == 40_001

    def test_default_bounds_from_data_bbox(self, tmp_path):
        data_dir = gen(tmp_path)
        _, out_dir = fast_train(tmp_path, data_dir)
        contour_path = tmp_path / "contour.csv"
        code = main(
            [
                "contour",
                "--checkpoint", str(out_dir / "model.ckpt"),
                "--data", str(data_dir / "d1_train.csv"),
                "--resolution", "3",
                "--out", str(contour_path),
            ]
        )
        assert code == 0
        features = load_csv(data_dir / "d1_train.csv").features
        lines = contour_path.read_text().strip().split("\n")[1:]
        xs = [float(l.split(",")[0]) for l in lines]
        ys = [float(l.split(",")[1]) for l in lines]
        x_min, x_max = features[:, 0].min(), features[:, 0].max()
        margin = 0.2 * (x_max - x_min)
        assert min(xs) == pytest.approx(x_min - margin)
        assert max(xs) == pytest.approx(x_max + margin)
        y_min, y_max = features[:, 1].min(), features[:, 1].max()
        margin = 0.2 * (y_max - y_min)
        assert min(ys) == pytest.approx(y_min - margin)
        assert max(ys) == pytest.approx(y_max + margin)

    def test_rerun_is_identical(self, tmp_path):
        data_dir = gen(tmp_path)
        _, out_dir = fast_train(tmp_path, data_dir)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(
                [
                    "contour",
                    "--checkpoint", str(out_dir / "model.ckpt"),
                    "--bounds=-2,2,-2,2",
                    "--resolution", "20",
                    "--out", str(path),
                ]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_2d_model_exits_1(self, tmp_path):
        # train on 3-wide features via explicit domain config
        spec = {
            "classes": [{"center": [-1, 0], "std": 0.3}, {"center": [1, 0], "std": 0.3}],
            "samples_per_class": 30,
            "seed": 3,
        }
        cfg = {"schema_version": 1, "domains": {"d0": spec, "d1": {**spec, "seed": 4}}}
        (tmp_path / "gen.json").write_text(json.dumps(cfg))
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(tmp_path / "gen.json"), "--out", str(data_dir)]) == 0
        # widen the CSVs to 3 columns by rewriting them
        for name in os.listdir(data_dir):
            if not name.endswith(".csv"):
                continue
            ds = load_csv(data_dir / name)
            from contradist.dataset import DomainDataset, save_csv

            wide = DomainDataset(
                np.column_stack([ds.features, ds.features[:, :1]]), ds.labels
            )
            save_csv(wide, data_dir / name)
        code, out_dir = fast_train(tmp_path, data_dir)
        assert code == 0
        code = main(
            [
                "contour",
                "--checkpoint", str(out_dir / "model.ckpt"),
                "--bounds=-1,1,-1,1",
                "--resolution", "4",
                "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 1


class TestSweep:
    def test_single_direction_matrix_row_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONTRADIST_THREADS", "2")
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--presets", "aligned,rotated",
                "--term-sets", "ss|ss,tu",
                "--seeds", "1,2",
                "--directions", "d0->d1",
                "--samples-per-class", "60",
                "--epochs", "2",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "preset,direction,terms,seed,source_acc,target_acc"
        assert len(lines) == 9  # 2 presets x 2 term sets x 2 seeds
        assert (out_dir / "sweep_config.json").exists()

    def test_both_directions_and_metrics_cross_check(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONTRADIST_THREADS", "1")
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--presets", "aligned",
                "--term-sets", "ss",
                "--seeds", "3",
                "--samples-per-class", "60",
                "--epochs", "2",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")[1:]
        directions = {line.split(",")[1] for line in lines}
        assert directions == {"d0->d1", "d1->d0"}
        for line in lines:
            preset, direction, terms, seed, source_acc, target_acc = line.split(",")
            cell = f"{preset}_{direction.replace('->', '_to_')}_{terms}_s{seed}"
            metrics = json.loads(
                (out_dir / "cells" / cell / "metrics_target_test.json").read_text()
            )
            assert metrics["accuracy"] == float(target_acc)

    def test_failed_cell_recorded_and_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CONTRADIST_THREADS", "1")
        out_dir = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--presets", "aligned",
                "--term-sets", "ss|ss,bogus",
                "--seeds", "1",
                "--directions", "d0->d1",
                "--samples-per-class", "60",
                "--epochs", "1",
                "--out", str(out_dir),
            ]
        )
        assert code == 2
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header + the cell that succeeded
        failures = json.loads((out_dir / "failures.json").read_text())
        assert len(failures) == 1
        assert "bogus" in failures[0]["error"]


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "gen-data" in capsys.readouterr().out

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["gen-data", "--bogus"]) == 1
