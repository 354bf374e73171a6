"""End-to-end command behavior, exit codes, and file outputs."""

import argparse
import errno
import json
import os
import re
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from contradist.cli import build_parser, main
from contradist.dataset import load_csv
from contradist.trainer import TrainConfig
from helpers import run_python

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


# every key of the train section: a generator sampler, a given prior, a
# numeric gamma, and values that need converting
FULL_TRAIN = {
    "batch_size": 16, "epochs": 2, "lr": "0.004", "optimizer": "sgd",
    "terms": ["ss", "tu", "ta"], "term_weights": {"tu": 1, "ta": "0.5"},
    "prior": [0.4, "0.6"], "fake_sampler": {"noise_dim": "3", "hidden_dims": [8], "lr": 0.002},
    "mmd_gamma": 0.5, "hidden_dims": [8, "8"], "warmup_epochs": 0, "ramp_epochs": 1, "seed": 4,
}

FULL_CONFIG_JSON = """\
{
  "schema_version": 1,
  "data_dir": "data",
  "sources": [
    "d0"
  ],
  "target": "d1",
  "out_dir": "run",
  "train": {
    "batch_size": 16,
    "epochs": 2,
    "lr": 0.004,
    "optimizer": "sgd",
    "terms": [
      "ss",
      "tu",
      "ta"
    ],
    "term_weights": {
      "tu": 1.0,
      "ta": 0.5
    },
    "prior": [
      0.4,
      0.6
    ],
    "fake_sampler": {
      "noise_dim": 3,
      "hidden_dims": [
        8
      ],
      "lr": 0.002
    },
    "mmd_gamma": 0.5,
    "hidden_dims": [
      8,
      8
    ],
    "warmup_epochs": 0,
    "ramp_epochs": 1,
    "seed": 4
  }
}
"""


def write_full_train_config(tmp_path):
    """Data under tmp_path/data and a train.json with FULL_TRAIN, paths relative."""
    assert main(
        ["gen-data", "--preset", "aligned", "--seed", "1", "--samples-per-class", "40",
         "--out", str(tmp_path / "data")]
    ) == 0
    cfg = {"schema_version": 1, "data_dir": "data", "sources": ["d0"], "target": "d1",
           "out_dir": "run", "train": FULL_TRAIN}
    (tmp_path / "train.json").write_text(json.dumps(cfg))


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

    @pytest.mark.parametrize(
        "change",
        [{"classes": [{"center": "12", "std": 0.3}] * 2}, {"offset": "05"}],
        ids=["center", "offset"],
    )
    def test_string_coordinates_exit_1_with_one_error_line(self, tmp_path, capsys, change):
        spec = {
            "classes": [{"center": [-1, 0], "std": 0.3}, {"center": [1, 0], "std": 0.3}],
            "samples_per_class": 10,
            **change,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"domains": {"a": spec, "b": spec}}))
        out = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "must be a list" in err[0]
        assert not out.exists()


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


    def test_config_json_golden_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_full_train_config(tmp_path)
        assert main(["train", "--config", "train.json"]) == 0
        assert (tmp_path / "run" / "config.json").read_text() == FULL_CONFIG_JSON

    def test_every_train_flag_sets_its_config_key(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_full_train_config(tmp_path)
        # FULL_TRAIN as flags; the file gives only the keys no flag sets
        rest = {
            "warmup_epochs": 0, "ramp_epochs": 1, "mmd_gamma": 0.5,
            "fake_sampler": {"noise_dim": 3, "hidden_dims": [8], "lr": 0.002},
        }
        (tmp_path / "train.json").write_text(json.dumps({"schema_version": 1, "train": rest}))
        argv = [
            "train", "--config", "train.json", "--data-dir", "data", "--sources", "d0",
            "--target", "d1", "--out", "run", "--terms", "ss,tu,ta", "--epochs", "2",
            "--batch-size", "16", "--lr", "0.004", "--optimizer", "sgd", "--seed", "4",
            "--hidden-dims", "8,8", "--prior", "0.4,0.6", "--fake-sampler", "generator",
            "--weights", "tu=1,ta=0.5",
        ]
        assert None not in vars(build_parser().parse_args(argv)).values()  # every flag given
        assert main(argv) == 0
        assert (tmp_path / "run" / "config.json").read_text() == FULL_CONFIG_JSON

    def test_echoed_config_reproduces_the_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_full_train_config(tmp_path)
        assert main(["train", "--config", "train.json"]) == 0
        assert main(["train", "--config", "run/config.json", "--out", "again"]) == 0
        run, again = tmp_path / "run", tmp_path / "again"
        for name in ("model.ckpt", "history.jsonl"):
            assert (again / name).read_bytes() == (run / name).read_bytes(), name

    @pytest.mark.parametrize(
        "rewrite, extra, message",
        [
            ({}, ("--prior", "0.2,0.3,0.5"), "given prior has 3 classes, sources have 2"),
            ({"d1_train": "widen", "d1_test": "widen"}, (),
             "all domains must share the feature width"),
            ({"d0_test": "unlabel"}, (), "source test set 'd0' has no labels to score"),
            ({"d1_test": "unlabel"}, (), "target test set 'd1' has no labels to score"),
            ({"d0_test": "add-class"}, (),
             "source test set 'd0' has label 2, but the sources have 2 classes"),
            ({"d1_train": "add-class", "d1_test": "add-class"}, (),
             "target test set 'd1' has label 2, but the sources have 2 classes"),
            ({}, ("--hidden-dims", "200000"),
             "batch_size 32 by width 200000 gives 6400000 entries per array, "
             "more than MAX_BATCH_ENTRIES = 4194304"),
            ({}, ("--batch-size", "4096", "--fake-sampler", "generator"),
             "batch_size 4096 by width 4096 gives 16777216 entries per array"),
        ],
        ids=[
            "prior-classes", "feature-width", "unlabeled-source-test", "unlabeled-target-test",
            "source-test-class-not-in-sources", "target-test-class-not-in-sources",
            "batch-activations-too-large", "generator-mmd-blocks-too-large",
        ],
    )
    def test_data_contradicting_the_config_exits_1_before_writing(
        self, tmp_path, capsys, rewrite, extra, message
    ):
        from contradist.dataset import DomainDataset, save_csv

        data_dir = gen(tmp_path)
        for name, how in rewrite.items():
            ds = load_csv(data_dir / f"{name}.csv")
            wide = DomainDataset(np.column_stack([ds.features, ds.features[:, :1]]), ds.labels)
            third = DomainDataset(ds.features, np.where(ds.labels == 1, 2, ds.labels))
            rewritten = {"widen": wide, "unlabel": ds.without_labels(), "add-class": third}
            save_csv(rewritten[how], data_dir / f"{name}.csv")
        capsys.readouterr()
        code, out_dir = fast_train(tmp_path, data_dir, extra=extra)
        assert code == 1
        assert_one_line_error(capsys, message)
        assert not out_dir.exists()

    def test_gaussian_flag_replaces_a_generator_sampler_from_the_config(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"train": {"terms": ["ss", "tu", "ta"], "fake_sampler": {}}}))
        code, out_dir = fast_train(
            tmp_path, gen(tmp_path), extra=("--config", str(cfg), "--fake-sampler", "gaussian")
        )
        assert code == 0
        config = json.loads((out_dir / "config.json").read_text())
        assert config["train"]["fake_sampler"] == "gaussian_input"
        history = [json.loads(l) for l in (out_dir / "history.jsonl").read_text().splitlines()]
        assert all("gen" not in record["losses"] for record in history)

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

    @pytest.mark.parametrize(
        "artifact",
        ["model.ckpt", "history.jsonl", "metrics_source_test.json", "metrics_target_test.json"],
    )
    def test_write_failing_midway_leaves_no_partial_artifact(
        self, tmp_path, capsys, monkeypatch, artifact
    ):
        from contradist import files

        class HalfWrite:
            """Takes half of the first chunk, then fails like a full disk."""

            def __init__(self, path):
                self._fh = open(path, "wb")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, data):
                self._fh.write(data[: len(data) // 2])
                self._fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def fake_open(path, mode):
            if os.path.basename(path).startswith(artifact):
                return HalfWrite(path)
            return open(path, mode)

        data_dir = gen(tmp_path)
        monkeypatch.setattr(files, "open", fake_open, raising=False)
        code, out_dir = fast_train(tmp_path, data_dir)
        assert code == 2
        assert_one_line_error(capsys, "No space left on device")
        names = os.listdir(out_dir)
        assert artifact not in names and not any(n.endswith(".tmp") for n in names)


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

    def test_out_in_a_missing_directory_exits_1_naming_it_and_prints_nothing(
        self, tmp_path, capsys
    ):
        from contradist.model import init_params, save_checkpoint

        data_dir = gen(tmp_path)
        save_checkpoint(init_params([2, 4, 2], 0), tmp_path / "model.ckpt")
        out = tmp_path / "nodir" / "m.json"
        capsys.readouterr()
        argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"),
                "--data", str(data_dir / "d1_test.csv"), "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert captured.out == ""
        assert not out.parent.exists()

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


def exit_at_once(cell):
    """A sweep cell whose worker process dies, as one killed for memory does."""
    os._exit(1)


class TestSweep:
    @staticmethod
    def sweep(out_dir, **flags):
        """Run sweep on small defaults (2 cells: aligned d0->d1, ss and ss+tu,
        seed 1, 60 per class, 1 epoch); flags override them by option name."""
        opts = {"presets": "aligned", "term_sets": "ss|ss,tu", "seeds": "1",
                "directions": "d0->d1", "samples_per_class": "60", "epochs": "1", **flags}
        argv = [arg for key, value in opts.items() for arg in ("--" + key.replace("_", "-"), value)]
        return main(["sweep", *argv, "--out", str(out_dir)])

    def test_single_direction_matrix_row_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONTRADIST_THREADS", "2")
        out_dir = tmp_path / "sweep"
        assert self.sweep(out_dir, presets="aligned,rotated", seeds="1,2", epochs="2") == 0
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "preset,direction,terms,seed,source_acc,target_acc,seconds"
        assert len(lines) == 9  # 2 presets x 2 term sets x 2 seeds
        assert (out_dir / "sweep_config.json").exists()

    def test_pooled_cells_equal_serial_cells(self, tmp_path, monkeypatch):
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("CONTRADIST_THREADS", threads)
            out_dir = tmp_path / f"threads{threads}"
            assert self.sweep(out_dir, presets="aligned,rotated", epochs="2") == 0
            summary = (out_dir / "summary.csv").read_text().splitlines()
            cells = {p.relative_to(out_dir): p.read_bytes() for p in out_dir.glob("cells/*/*")}
            runs[threads] = [line.rsplit(",", 1)[0] for line in summary], cells  # drop seconds
        assert len(runs["1"][0]) == 5 and len(runs["1"][1]) == 4 * 4  # ckpt, history, 2 metrics
        assert runs["1"] == runs["2"]

    def test_both_directions_and_metrics_cross_check(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONTRADIST_THREADS", "1")
        out_dir = tmp_path / "sweep"
        assert self.sweep(out_dir, term_sets="ss", seeds="3", directions="both", epochs="2") == 0
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")[1:]
        directions = {line.split(",")[1] for line in lines}
        assert directions == {"d0->d1", "d1->d0"}
        for line in lines:
            preset, direction, terms, seed, source_acc, target_acc, _ = line.split(",")
            cell = f"{preset}_{direction.replace('->', '_to_')}_{terms}_s{seed}"
            metrics = json.loads(
                (out_dir / "cells" / cell / "metrics_target_test.json").read_text()
            )
            assert metrics["accuracy"] == float(target_acc)

    def test_non_integer_threads_env_is_a_one_line_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CONTRADIST_THREADS", "abc")
        out_dir = tmp_path / "sweep"
        assert self.sweep(out_dir) == 1
        assert_one_line_error(capsys, "CONTRADIST_THREADS must be an integer, got 'abc'")
        assert not (out_dir / "sweep_config.json").exists()
        assert not out_dir.exists()

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_non_positive_threads_env_is_a_one_line_error(
        self, tmp_path, monkeypatch, capsys, threads
    ):
        monkeypatch.setenv("CONTRADIST_THREADS", threads)
        out_dir = tmp_path / "sweep"
        assert self.sweep(out_dir) == 1
        assert_one_line_error(capsys, f"CONTRADIST_THREADS must be at least 1, got '{threads}'")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag, value, cell",
        [
            ("seeds", "3,3", "aligned_d0_to_d1_ss_s3"),
            ("presets", "aligned, aligned", "aligned_d0_to_d1_ss_s3"),
            ("term_sets", "ss|ss", "aligned_d0_to_d1_ss_s3"),
        ],
        ids=["seed", "preset", "term-set"],
    )
    def test_repeated_cell_is_a_one_line_error(
        self, tmp_path, monkeypatch, capsys, flag, value, cell
    ):
        monkeypatch.setenv("CONTRADIST_THREADS", "1")
        out_dir = tmp_path / "sweep"
        flags = {"term_sets": "ss", "seeds": "3", "samples_per_class": "30", flag: value}
        assert self.sweep(out_dir, **flags) == 1
        assert_one_line_error(capsys, f"repeated sweep cell {cell}")
        assert not out_dir.exists()

    def test_cells_whose_model_overflows_fail_with_one_line_each(
        self, tmp_path, monkeypatch, capsys
    ):
        # two workers fork for the two cells: a NumPy warning there would
        # turn into the cell's error, as the suite makes warnings errors
        monkeypatch.setenv("CONTRADIST_THREADS", "2")
        out_dir = tmp_path / "sweep"
        assert self.sweep(out_dir, lr="1e308") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for line in err:
            assert line.startswith("cell failed: "), line
            assert "NumericError: class probabilities are not finite" in line, line
        assert not (out_dir / "cells").exists()
        assert (out_dir / "summary.csv").read_text().count("\n") == 1  # the header alone

    def test_failed_cell_recorded_and_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CONTRADIST_THREADS", "1")
        out_dir = tmp_path / "sweep"
        # a file where one cell's directory belongs makes that cell fail at run time
        (out_dir / "cells").mkdir(parents=True)
        (out_dir / "cells" / "aligned_d0_to_d1_ss+tu_s1").write_text("bogus")
        assert self.sweep(out_dir) == 2
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header + the cell that succeeded
        failures = json.loads((out_dir / "failures.json").read_text())
        assert len(failures) == 1
        assert "aligned_d0_to_d1_ss+tu_s1" in failures[0]["error"]

    def test_any_cell_exception_becomes_a_failed_cell(self, tmp_path, monkeypatch, capsys):
        import contradist.cli as cli

        monkeypatch.setenv("CONTRADIST_THREADS", "1")
        real = cli._train_and_score

        def flaky(cfg, sources, target, out_dir):
            if "tu" in cfg.terms:
                raise ZeroDivisionError("injected")
            return real(cfg, sources, target, out_dir)

        monkeypatch.setattr(cli, "_train_and_score", flaky)
        out_dir = tmp_path / "sweep"
        assert self.sweep(out_dir) == 2
        lines = (out_dir / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        failures = json.loads((out_dir / "failures.json").read_text())
        assert [f["error"] for f in failures] == ["ZeroDivisionError: injected"]
        assert "in flaky" in failures[0]["traceback"]
        assert "cell failed:" in capsys.readouterr().err

    def test_a_worker_that_dies_is_a_one_line_error_exit_2(self, tmp_path, monkeypatch, capfd):
        import contradist.cli as cli

        # forked workers inherit the patch; pickle finds it at module level
        monkeypatch.setattr(cli, "_run_sweep_cell", exit_at_once)
        monkeypatch.setenv("CONTRADIST_THREADS", "2")
        out_dir = tmp_path / "sweep"
        assert self.sweep(out_dir) == 2
        assert_one_line_error(capfd, "a sweep worker died: A process in the process pool")
        assert os.listdir(out_dir) == ["sweep_config.json"]

    def test_run_cells_builds_its_pool_from_the_module_global(self, tmp_path, monkeypatch):
        # perfbench's tracer swaps cli.ProcessPoolExecutor; run_cells must read it
        from concurrent.futures import ProcessPoolExecutor

        import contradist.cli as cli

        built = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        cells = [
            cli.build_cell("aligned", ("d0", "d1"), seed, 10, {"epochs": 1, "terms": ["ss"]},
                           str(tmp_path / f"s{seed}"))
            for seed in (1, 2)
        ]
        results = cli.run_cells(cells, 2)
        assert built == [{"max_workers": 2}]
        assert [res["ok"] for res in results] == [True, True]

    def test_pool_gets_the_longest_cells_first_and_results_keep_cell_order(
        self, tmp_path, monkeypatch
    ):
        import contradist.cli as cli

        handed = []

        class RecordingPool:
            """Runs the cells in this process, in the order the pool is handed them."""

            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                cells = list(cells)
                handed.extend(os.path.basename(cell.out_dir) for cell in cells)
                return [fn(cell) for cell in cells]

        def cell_id(cell):  # a row that names its cell: term count and seed
            row = {"source_acc": len(cell.cfg.terms), "target_acc": cell.cfg.seed, "seconds": 0.0}
            return {"ok": True, "row": row}

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_run_sweep_cell", cell_id)
        monkeypatch.setenv("CONTRADIST_THREADS", "2")
        out_dir = tmp_path / "sweep"
        assert self.sweep(out_dir, term_sets="ss|ss,tu,ta|ss,tu|ss,ta", seeds="1,2") == 0
        # more terms first; cells with as many terms keep their cell order
        assert handed == [
            f"aligned_d0_to_d1_{terms}_s{seed}"
            for terms in ("ss+tu+ta", "ss+tu", "ss+ta", "ss") for seed in (1, 2)
        ]
        rows = [line.split(",") for line in (out_dir / "summary.csv").read_text().splitlines()[1:]]
        assert [(terms, seed) for _, _, terms, seed, *_ in rows] == [
            (terms, seed)
            for terms in ("ss", "ss+tu+ta", "ss+tu", "ss+ta") for seed in ("1", "2")
        ]
        for _, _, terms, seed, n_terms, row_seed, _ in rows:
            assert (int(n_terms), row_seed) == (len(terms.split("+")), seed)


# a train run whose first Adam step takes the weights to about 1e308
OVERFLOW_TRAIN = ["train", "--data-dir", "{data}", "--sources", "d0", "--target", "d1",
                  "--out", "{out}", "--lr", "1e308"]


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "gen-data" in capsys.readouterr().out

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["gen-data", "--bogus"]) == 1

    @pytest.mark.parametrize(
        "step, argv",  # step: the function that runs out, where the command looks it up
        [
            ("contradist.cli.make_blobs", ["gen-data", "--preset", "aligned", "--out", "{out}"]),
            ("contradist.trainer.train",
             ["train", "--data-dir", "{data}", "--sources", "d0", "--target", "d1",
              "--out", "{out}"]),
            ("contradist.evaluation.predict",
             ["eval", "--checkpoint", "{ckpt}", "--data", "{data}/d0_test.csv"]),
            ("contradist.evaluation.contour_grid",
             ["contour", "--checkpoint", "{ckpt}", "--bounds=-1,1,-1,1",
              "--out", "{out}/contour.csv"]),
            ("contradist.cli.preset_domains",
             ["sweep", "--presets", "aligned", "--term-sets", "ss", "--seeds", "1",
              "--out", "{out}"]),
        ],
        ids=["gen-data", "train", "eval", "contour", "sweep"],
    )
    def test_out_of_memory_is_a_one_line_error_exit_2(
        self, tmp_path, monkeypatch, capsys, step, argv
    ):
        from contradist.model import init_params, save_checkpoint

        data_dir = gen(tmp_path, samples=10)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(init_params([2, 4, 2], 0), ckpt)
        capsys.readouterr()

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 65.5 TiB for an array")

        monkeypatch.setattr(step, out_of_memory)
        paths = {"out": str(tmp_path / "out"), "data": str(data_dir), "ckpt": str(ckpt)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert_one_line_error(capsys, "out of memory: Unable to allocate 65.5 TiB")

    @pytest.mark.parametrize(
        "argv, message, written",
        [
            ([*OVERFLOW_TRAIN, "--epochs", "1"], "class probabilities are not finite",
             ["config.json"]),
            ([*OVERFLOW_TRAIN, "--epochs", "3"], "loss value is not finite: nan", ["config.json"]),
            (["eval", "--checkpoint", "{ckpt}", "--data", "{data}/d1_test.csv",
              "--out", "{out}/metrics.json"], "class probabilities are not finite", []),
            (["contour", "--checkpoint", "{ckpt}", "--data", "{data}/d1_test.csv",
              "--out", "{out}/contour.csv"], "class probabilities are not finite", []),
            (["eval", "--checkpoint", "{truncated}", "--data", "{data}/d1_test.csv",
              "--out", "{out}/metrics.json"], "truncated header", []),
            (["eval", "--checkpoint", "{nan}", "--data", "{data}/d1_test.csv",
              "--out", "{out}/metrics.json"], "invalid parameters: non-finite parameters", []),
        ],
        ids=["train-scores-overflow", "train-loss-overflows", "eval", "contour",
             "eval-truncated-header", "eval-nan-parameter"],
    )
    def test_a_model_that_overflows_is_a_one_line_error_exit_2(
        self, tmp_path, capsys, argv, message, written
    ):
        from contradist.model import ModelParams, save_checkpoint

        data_dir = gen(tmp_path, preset="rotated", samples=50)
        # finite weights whose forward overflows to NaN on most rows
        ckpt = tmp_path / "model.ckpt"
        # W0 (2x4), b0 (4), W1 (4x2), b1 (2)
        flat = np.concatenate([np.full(8, 1e308), np.zeros(4), np.full(8, 1e308), np.zeros(2)])
        save_checkpoint(ModelParams((2, 4, 2), flat), ckpt)
        # a header that names three layer dims and holds one; a NaN last bias
        truncated, nan = tmp_path / "truncated.ckpt", tmp_path / "nan.ckpt"
        truncated.write_bytes(b"CDST" + struct.pack("<III", 1, 3, 2))
        nan.write_bytes(ckpt.read_bytes()[:-8] + struct.pack("<d", float("nan")))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        paths = {"out": str(out), "data": str(data_dir), "ckpt": str(ckpt),
                 "truncated": str(truncated), "nan": str(nan)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        assert_one_line_error(capsys, message)
        assert sorted(os.listdir(out)) == written

    def test_readme_train_flag_table_lists_every_train_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = re.findall(r"^\| `(--[a-z-]+)` \| `([a-z_.]+)` \|", readme, re.M)
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            action.option_strings[0]: action.dest
            for action in sub.choices["train"]._actions
            if action.option_strings and action.dest not in ("help", "config")
        }
        train_keys = {f.name for f in fields(TrainConfig)}
        expected = [
            (flag, f"train.{dest}" if dest in train_keys else dest) for flag, dest in flags.items()
        ]
        assert sorted(table) == sorted(expected)

    def test_out_of_memory_without_detail(self, tmp_path, monkeypatch, capsys):
        import contradist.cli as cli

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "make_blobs", out_of_memory)
        assert main(["gen-data", "--preset", "aligned", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"


# What each command must not load: gen-data runs no network, eval and
# contour run no training, and only sweep starts a process pool.
NOT_LOADED_AFTER = {
    "gen-data": {
        "contradist.model", "contradist.evaluation", "contradist.blas", "contradist.trainer",
        "contradist.losses", "concurrent.futures.process", "multiprocessing", "traceback",
    },
    "eval": {"contradist.trainer", "contradist.losses", "concurrent.futures.process",
             "multiprocessing"},
    "contour": {"contradist.trainer", "contradist.losses", "concurrent.futures.process",
                "multiprocessing"},
    "train": {"concurrent.futures.process", "multiprocessing"},
}

IMPORT_PROBE = """
import contextlib, io, json, sys
from contradist.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([argv[0], code, sorted(sys.modules)]))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    from contradist.model import init_params, save_checkpoint

    data_dir = gen(tmp_path, samples=10)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params([2, 4, 2], 0), ckpt)
    runs = [
        ["gen-data", "--preset", "aligned", "--samples-per-class", "10",
         "--out", str(tmp_path / "gen")],
        ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir / "d0_test.csv")],
        ["contour", "--checkpoint", str(ckpt), "--data", str(data_dir / "d1_train.csv"),
         "--resolution", "10", "--out", str(tmp_path / "contour.csv")],
        ["train", "--data-dir", str(data_dir), "--sources", "d0", "--target", "d1",
         "--epochs", "1", "--out", str(tmp_path / "run")],
    ]
    proc = run_python(["-c", IMPORT_PROBE, json.dumps(runs)], check=True)
    seen = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [command for command, _, _ in seen] == list(NOT_LOADED_AFTER)
    for command, code, modules in seen:
        assert code == 0, command
        assert not NOT_LOADED_AFTER[command] & set(modules), command


BLOB = {"classes": [{"center": [-1, 0], "std": 0.3}, {"center": [1, 0], "std": 0.3}],
        "samples_per_class": 10}
GEN = ["gen-data", "--config", "{cfg}", "--out", "{out}"]
CONTOUR = ["contour", "--checkpoint", "{ckpt}", "--out", "{out}"]
SWEEP = ["sweep", "--presets", "aligned", "--term-sets", "ss", "--out", "{out}"]
TRAIN = ["train", "--config", "{cfg}", "--out", "{out}"]
TRAIN_PATHS = {"data_dir": "data", "sources": ["d0"], "target": "d1"}
NO_SUCH_FILE = "No such file or directory"


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({"trian": {"epochs": 2}}, ["train", "--config", "{cfg}"],
         "unknown train config file key 'trian'"),
        ({"data_dir": 5}, ["train", "--config", "{cfg}"],
         "'data_dir' must be of type str, got 5"),
        ({"preset": "aligned", "samples_per_clas": 5}, GEN,
         "unknown gen-data config file key 'samples_per_clas'"),
        ({"domains": {"a": {**BLOB, "rotation": 30}}}, GEN, "unknown blob spec key 'rotation'"),
        ({"domains": [BLOB]}, GEN, "'domains' must be of type dict"),
        ({"preset": "aligned", "seed": "one"}, GEN, "'seed' must be of type int, got 'one'"),
        ({"preset": "aligned", "train_fraction": "half"}, GEN,
         "'train_fraction' must be of type float, got 'half'"),
        (None, [*CONTOUR, "--bounds", "a,b,c,d"],
         "--bounds: could not convert string to float: 'a'"),
        (None, [*CONTOUR, "--bounds=-1,1,-1,1", "--resolution", "100000"],
         "resolution must lie in [2, 1000], got 100000"),
        (None, [*CONTOUR, "--bounds=-inf,inf,0,1"], "bounds and their spans"),
        (None, [*CONTOUR, "--bounds=0,1,-1e308,1e308"], "bounds and their spans"),
        (None, [*CONTOUR, "--data", "{wide}"], "bounds and their spans"),
        (None, [*SWEEP, "--seeds", "a"], "--seeds: invalid literal for int()"),
        ({**TRAIN_PATHS, "train": {"epochs": 2.7}}, TRAIN,
         "bad train config value for 'epochs': expected an integer, got 2.7"),
        ({**TRAIN_PATHS, "train": {"seed": True}}, TRAIN,
         "bad train config value for 'seed': expected an integer, got True"),
        ({**TRAIN_PATHS, "train": {"batch_size": 64.9}}, TRAIN,
         "bad train config value for 'batch_size': expected an integer, got 64.9"),
        ({**TRAIN_PATHS, "train": {"fake_sampler": {"noise_dim": 2.5}}}, TRAIN,
         "bad fake_sampler value for 'noise_dim': expected an integer, got 2.5"),
        ({"domains": {"a": {**BLOB, "samples_per_class": 10.9}}}, GEN,
         "malformed blob spec: expected an integer, got 10.9"),
        ({"domains": {"a": {**BLOB, "seed": 3.5}}}, GEN,
         "malformed blob spec: expected an integer, got 3.5"),
        ({"domains": {"a": {**BLOB, "seed": True}}}, GEN,
         "malformed blob spec: expected an integer, got True"),
        (None, [*SWEEP, "--seeds", "1", "--samples-per-class", "0"],
         "samples_per_class must be >= 1"),
        (None, [*SWEEP, "--seeds", "1", "--lr", "-1"], "lr must be a finite non-negative real"),
        (None, [*SWEEP, "--seeds", "1", "--epochs", "-1"], "epochs must be >= 0"),
        (None, [*SWEEP, "--seeds", "1", "--term-sets", "ss|ss,bogus"],
         "unknown loss term 'bogus'"),
        ({**TRAIN_PATHS, "train": {"lr": True}}, TRAIN,
         "bad train config value for 'lr': expected a number, got True"),
        ({**TRAIN_PATHS, "train": {"term_weights": {"tu": False}}}, TRAIN,
         "bad train config value for 'term_weights': expected a number, got False"),
        ({**TRAIN_PATHS, "train": {"mmd_gamma": True}}, TRAIN,
         "bad train config value for 'mmd_gamma': expected a number, got True"),
        ({**TRAIN_PATHS, "train": {"fake_sampler": {"lr": True}}}, TRAIN,
         "bad fake_sampler value for 'lr': expected a number, got True"),
        ({"domains": {"a": {**BLOB, "rotation_deg": True}}}, GEN,
         "malformed blob spec: expected a number, got True"),
        ({"domains": {"a": {**BLOB, "offset": [0, False]}}}, GEN,
         "malformed blob spec: expected a number, got False"),
        ({"domains": {"a": {**BLOB, "classes": [{"center": [True, 0], "std": 0.3}] * 2}}}, GEN,
         "malformed blob spec: expected a number, got True"),
        ({"domains": {"a": {**BLOB, "classes": [{"center": [0, 0], "std": True}] * 2}}}, GEN,
         "malformed blob spec: expected a number, got True"),
        (None, ["gen-data", "--preset", "rotated", "--samples-per-class", "1", "--out", "{out}"],
         "cannot stratify a class with 1 sample(s) into two splits"),
        (None, [*SWEEP, "--presets", "rotated", "--seeds", "1", "--samples-per-class", "1"],
         "cannot stratify a class with 1 sample(s) into two splits"),
        (TRAIN_PATHS, [*TRAIN, "--fake-sampler", "gaussain"],
         "argument --fake-sampler: invalid choice: 'gaussain'"),
        (None, [*SWEEP, "--seeds", "1", "--directions", "d1->d2"],
         "argument --directions: invalid choice: 'd1->d2'"),
        (TRAIN_PATHS, [*TRAIN, "--noise-dim", "4"], "unrecognized arguments: --noise-dim 4"),
        (TRAIN_PATHS, [*TRAIN, "--gen-lr", "0.01"], "unrecognized arguments: --gen-lr 0.01"),
        (TRAIN_PATHS, [*TRAIN, "--mmd-gamma", "0.5"], "unrecognized arguments: --mmd-gamma 0.5"),
        ({"preset": "aligned", "domains": {"a": BLOB}}, GEN,
         "give a preset or explicit domains, not both"),
        ({"domains": {"a": BLOB}}, [*GEN, "--preset", "aligned"],
         "give a preset or explicit domains, not both"),
        ({"domains": {"a": BLOB}}, [*GEN, "--seed", "7"],
         "--seed and --samples-per-class apply to a preset"),
        ({"domains": {"a": BLOB}}, [*GEN, "--samples-per-class", "7"],
         "--seed and --samples-per-class apply to a preset"),
        ({**TRAIN_PATHS, "sources": ["d0", "d1"]}, TRAIN,
         "domain 'd1' is given twice: sources and target must differ"),
        (TRAIN_PATHS, [*TRAIN, "--sources", "d0,d0"],
         "domain 'd0' is given twice: sources and target must differ"),
        (None, ["train", "--config", "{out}/train.json"], NO_SUCH_FILE),
        (None, ["gen-data", "--config", "{out}/gen.json", "--out", "{out}"], NO_SUCH_FILE),
        (None, ["eval", "--checkpoint", "{out}/model.ckpt", "--data", "{cfg}"], NO_SUCH_FILE),
        (None, ["eval", "--checkpoint", "{ckpt}", "--data", "{out}/d1_test.csv"], NO_SUCH_FILE),
        (None, ["contour", "--checkpoint", "{out}/model.ckpt", "--bounds=-1,1,-1,1",
                "--out", "{out}"], NO_SUCH_FILE),
        (None, [*CONTOUR, "--data", "{out}/d1_train.csv"], NO_SUCH_FILE),
        (None, [*CONTOUR, "--bounds=-1,1,-1,1", "--data", "{cfg}"],
         "argument --data: not allowed with argument --bounds"),
        (None, CONTOUR, "one of the arguments --bounds --data is required"),
        ({**TRAIN_PATHS, "train": {"hidden_dims": [], "fake_sampler": {}}}, TRAIN,
         "classifier needs a hidden layer to expose an embedding"),
        ({**TRAIN_PATHS, "train": {"mmd_gamma": 0.5}}, TRAIN,
         "a numeric mmd_gamma needs the generator sampler"),
        ({**TRAIN_PATHS, "train": {"terms": ["ss", "tu"], "fake_sampler": {}}}, TRAIN,
         "the generator fake_sampler needs the ta term"),
        (TRAIN_PATHS, [*TRAIN, "--fake-sampler", "generator", "--terms", "ss,tu"],
         "the generator fake_sampler needs the ta term"),
        (TRAIN_PATHS, [*TRAIN, "--terms", "ss,tu", "--weights", "sa=0.5"],
         "term weight 'sa' is for a term this run does not train"),
        (TRAIN_PATHS, [*TRAIN, "--weights", "gen=2"], "unknown term weight 'gen'"),
        (TRAIN_PATHS, [*TRAIN, "--hidden-dims", "100000000"],
         "classifier hidden_dims give at least 300000001 parameters, "
         "more than MAX_PARAMS = 10000000"),
        ({**TRAIN_PATHS, "train": {"hidden_dims": [4000, 4000]}}, TRAIN,
         "classifier hidden_dims give at least 16016001 parameters"),
        ({**TRAIN_PATHS, "train": {"fake_sampler": {"noise_dim": 10000000}}}, TRAIN,
         "generator noise_dim and hidden_dims give at least 640004289 parameters, "
         "more than MAX_PARAMS = 10000000"),
        (TRAIN_PATHS, [*TRAIN, "--prior", "0.5,0.6"], "priors must sum to 1, got 1.1"),
        (TRAIN_PATHS, [*TRAIN, "--terms", "ss,ta", "--batch-size", "1"],
         "ta needs batch_size >= 2"),
        (TRAIN_PATHS, [*TRAIN, "--terms", "ss,sa", "--batch-size", "1"],
         "sa needs batch_size >= 2"),
        ({**TRAIN_PATHS, "train": {"batch_size": 10**9}}, TRAIN,
         "batch_size 1000000000 is more than MAX_BATCH_SIZE = 65536"),
        (None, ["gen-data", "--preset", "aligned", "--samples-per-class", "100001",
                "--out", "{out}"],
         "samples_per_class 100001 is more than MAX_SAMPLES_PER_CLASS = 100000"),
        (None, [*SWEEP, "--seeds", "1", "--samples-per-class", "1000000000"],
         "samples_per_class 1000000000 is more than MAX_SAMPLES_PER_CLASS = 100000"),
        ({"domains": {"a": {**BLOB, "samples_per_class": 100001}}}, GEN,
         "samples_per_class 100001 is more than MAX_SAMPLES_PER_CLASS"),
        ({**TRAIN_PATHS, "train": {"hidden_dims": "64"}}, [*TRAIN, "--data-dir", "{data}"],
         "bad train config value for 'hidden_dims': expected a list, got '64'"),
        ({**TRAIN_PATHS, "train": {"fake_sampler": {"hidden_dims": "32"}}},
         [*TRAIN, "--data-dir", "{data}"],
         "bad fake_sampler value for 'hidden_dims': expected a list, got '32'"),
        ({**TRAIN_PATHS, "train": {"terms": "ss,tu"}}, [*TRAIN, "--data-dir", "{data}"],
         "bad train config value for 'terms': expected a list, got 'ss,tu'"),
        (None, ["train", "--config", "{dir}"], "Is a directory: '{dir}'"),
        (None, ["eval", "--checkpoint", "{dir}", "--data", "{data}/d0_test.csv"],
         "Is a directory: '{dir}'"),
        (TRAIN_PATHS, [*TRAIN, "--data-dir", "{file}"],
         "Not a directory: '{file}/d0_train.csv'"),
        (TRAIN_PATHS, ["train", "--config", "{cfg}", "--data-dir", "{data}", "--out", "{file}"],
         "File exists: '{file}'"),
        (None, ["gen-data", "--preset", "aligned", "--samples-per-class", "10", "--out", "{file}"],
         "File exists: '{file}'"),
        (None, ["sweep", "--presets", "aligned", "--term-sets", "ss", "--seeds", "1",
                "--samples-per-class", "10", "--out", "{file}"],
         "File exists: '{file}'"),
        (None, ["eval", "--checkpoint", "{ckpt}", "--data", "{data}/d0_test.csv",
                "--out", "{dir}"],
         "Is a directory: '{dir}'"),
        (None, ["contour", "--checkpoint", "{ckpt}", "--bounds=-1,1,-1,1", "--resolution", "2",
                "--out", "{dir}"],
         "Is a directory: '{dir}'"),
        (TRAIN_PATHS, [*TRAIN, "--fake-sampler", "generator", "--weights", "gen=2"],
         "unknown term weight 'gen'"),
        ({**TRAIN_PATHS, "train": {"fake_sampler": {}, "term_weights": {"gen": 2}}}, TRAIN,
         "unknown term weight 'gen'"),
        *[({**TRAIN_PATHS, "train": {"fake_sampler": {}, "mmd_gamma": gamma}}, TRAIN,
           f"mmd_gamma must be positive and finite, got {shown}")
          for gamma, shown in ((0, "0.0"), (-1, "-1.0"), (float("nan"), "nan"),
                               (float("inf"), "inf"))],
        ({**TRAIN_PATHS, "train": {"fake_sampler": {}, "mmd_gamma": "median"}}, TRAIN,
         "bad train config value for 'mmd_gamma': could not convert string to float: 'median'"),
        (TRAIN_PATHS, [*TRAIN, "--prior", "1e308,1e308"],
         "prior entries must be finite and lie in [0, 1]"),
        ({"domains": {"a": {**BLOB, "classes": [{"center": [0, 0], "std": 1e308}] * 2}}}, GEN,
         "features contain non-finite values"),
        ({"domains": {}}, GEN, "need --preset or a config with domains"),
        (TRAIN_PATHS, [*TRAIN, "--terms", "ss,ss"], "duplicate loss term 'ss'"),
        ({**TRAIN_PATHS, "train": {"prior": "uniform"}}, TRAIN, "unknown prior mode 'uniform'"),
        ({**TRAIN_PATHS, "train": {"fake_sampler": "gauss"}}, TRAIN,
         "unknown fake sampler 'gauss'"),
        (TRAIN_PATHS, [*TRAIN, "--hidden-dims", "0"], "classifier hidden_dims must be positive"),
        ({**TRAIN_PATHS, "train": {"warmup_epochs": -1}}, TRAIN, "warmup_epochs must be >= 0"),
        ({**TRAIN_PATHS, "train": {"ramp_epochs": -1}}, TRAIN, "ramp_epochs must be >= 0"),
        ({**TRAIN_PATHS, "train": {"fake_sampler": {"noise_dim": 0}}}, TRAIN,
         "generator noise_dim and hidden_dims must be positive"),
        ({**TRAIN_PATHS, "train": {"fake_sampler": {"lr": -1}}}, TRAIN,
         "generator lr must be a finite non-negative real"),
        (TRAIN_PATHS, [*TRAIN, "--data-dir", "{data}", "--sources", "d0,wide3"],
         "all domains must share the feature width"),
        (TRAIN_PATHS, [*TRAIN, "--data-dir", "{data}", "--sources", "oneclass"],
         "need at least 2 classes across the sources"),
        (TRAIN_PATHS, [*TRAIN, "--data-dir", "{data}", "--sources", "headeronly"],
         "headeronly_train.csv: no data rows"),
        (TRAIN_PATHS, [*TRAIN, "--data-dir", "{data}", "--sources", "textfeature"],
         "textfeature_train.csv: row 1: could not convert string to float: 'abc'"),
        (TRAIN_PATHS, [*TRAIN, "--data-dir", "{data}", "--sources", "labelx"],
         "labelx_train.csv: row 1: bad label 'x'"),
        (TRAIN_PATHS, [*TRAIN, "--data-dir", "{data}", "--sources", "labelneg"],
         "labelneg_train.csv: row 1: bad label -2"),
        (None, [*CONTOUR, "--data", "{data}/wide3_train.csv"], "default bounds need 2-D features"),
        (None, ["train", "--config", "{list}"], "config must be a JSON object"),
        ({**TRAIN_PATHS, "schema_version": 2}, TRAIN, "unsupported config schema version 2"),
        (TRAIN_PATHS, ["train", "--config", "{cfg}"], "--out is required (flag or config)"),
        (None, [*CONTOUR, "--bounds", "0,1,2"], "--bounds needs x_min,x_max,y_min,y_max"),
        (TRAIN_PATHS, [*TRAIN, "--terms", ","], "argument --terms: empty list argument ','"),
        (TRAIN_PATHS, [*TRAIN, "--weights", "tu"],
         "argument --weights: bad --weights item 'tu', expected term=value"),
        (None, ["gen-data", "--out", "{out}"], "need --preset or a config with domains"),
    ],
    ids=[
        "train-section-typo", "train-data-dir-int", "gen-data-key-typo", "blob-spec-key-typo",
        "domains-list", "gen-data-seed-str", "gen-data-fraction-str", "contour-bounds-str",
        "contour-resolution-cap", "contour-bounds-infinite", "contour-span-overflow",
        "contour-data-span-overflow",
        "sweep-seeds-str", "train-epochs-fraction", "train-seed-bool",
        "train-batch-size-fraction", "generator-noise-dim-fraction",
        "blob-samples-per-class-fraction", "blob-seed-fraction", "blob-seed-bool",
        "sweep-samples-per-class-0", "sweep-lr-negative", "sweep-epochs-negative",
        "sweep-unknown-term", "train-lr-bool", "train-weight-bool", "train-mmd-gamma-bool",
        "generator-lr-bool", "blob-rotation-bool", "blob-offset-bool", "blob-center-bool",
        "blob-std-bool", "gen-data-unsplittable", "sweep-unsplittable", "train-fake-sampler-typo",
        "sweep-direction-typo", "noise-dim-flag-removed", "gen-lr-flag-removed",
        "mmd-gamma-flag-removed",
        "gen-data-preset-and-domains", "gen-data-preset-flag-and-domains",
        "gen-data-seed-flag-and-domains", "gen-data-samples-flag-and-domains",
        "train-target-is-source", "train-repeated-source", "train-config-missing",
        "gen-data-config-missing", "eval-checkpoint-missing", "eval-data-missing",
        "contour-checkpoint-missing", "contour-data-missing", "contour-bounds-and-data",
        "contour-no-frame", "generator-no-hidden-layer", "mmd-gamma-gaussian-sampler",
        "generator-without-ta", "generator-flag-without-ta", "weight-flag-for-absent-term",
        "gen-weight-flag-gaussian-sampler",
        "train-network-too-large", "train-hidden-layers-too-large", "generator-too-large",
        "train-prior-sum", "ta-gaussian-batch-of-one", "sa-batch-of-one",
        "train-batch-size-too-large", "gen-data-samples-per-class-too-large",
        "sweep-samples-per-class-too-large", "blob-samples-per-class-too-large",
        "train-hidden-dims-str", "generator-hidden-dims-str", "train-terms-str",
        "train-config-is-dir", "eval-checkpoint-is-dir", "train-data-dir-is-file",
        "train-out-is-file", "gen-data-out-is-file", "sweep-out-is-file", "eval-out-is-dir",
        "contour-out-is-dir", "gen-weight-flag-generator", "gen-weight-in-config",
        "mmd-gamma-zero", "mmd-gamma-negative", "mmd-gamma-nan", "mmd-gamma-inf",
        "mmd-gamma-unknown-mode", "train-prior-entry-overflow", "blob-std-overflow",
        "gen-data-no-domains", "train-duplicate-term", "train-prior-unknown-mode",
        "train-fake-sampler-unknown", "train-hidden-dim-zero", "train-warmup-negative",
        "train-ramp-negative", "generator-noise-dim-zero", "generator-lr-negative",
        "train-source-widths-differ", "train-source-one-class", "csv-header-only",
        "csv-feature-not-a-number", "csv-label-not-an-integer", "csv-label-below-minus-1",
        "contour-data-not-2-d", "config-is-a-list", "config-schema-version-2",
        "train-out-missing", "contour-bounds-count", "train-terms-empty", "train-weights-no-value",
        "gen-data-no-preset",
    ],
)
def test_bad_input_exits_1_with_one_line_error(tmp_path, capsys, config, argv, message):
    from contradist.model import init_params, save_checkpoint

    cfg, ckpt, out = tmp_path / "cfg.json", tmp_path / "model.ckpt", tmp_path / "out"
    cfg.write_text(json.dumps({"schema_version": 1, **(config or {})}))
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    save_checkpoint(init_params([2, 4, 2], 0), ckpt)
    wide = tmp_path / "wide.csv"  # finite rows whose f1 span overflows a float64
    wide.write_text("f0,f1,label\n0.5,1.0,0\n0.7,1e308,1\n0.1,-1e308,0\n")
    # paths of the wrong kind, and a data directory whose d0 and d1 splits
    # load; each other domain's splits fail as the domain's name says
    adir, afile, data = tmp_path / "adir", tmp_path / "afile", tmp_path / "data"
    adir.mkdir()
    afile.write_text("kept\n")
    data.mkdir()
    domains = {
        "d0": "f0,f1,label\n0,0,0\n1,1,1\n0,1,0\n1,0,1\n",
        "wide3": "f0,f1,f2,label\n0,0,0,0\n1,1,1,1\n",
        "oneclass": "f0,f1,label\n0,0,0\n1,1,0\n",
        "headeronly": "f0,f1,label\n",
        "textfeature": "f0,f1,label\n0,abc,0\n",
        "labelx": "f0,f1,label\n0,0,x\n",
        "labelneg": "f0,f1,label\n0,0,-2\n",
    }
    domains["d1"] = domains["d0"]
    for name, text in domains.items():
        for part in ("train", "test"):
            (data / f"{name}_{part}.csv").write_text(text)
    paths = {"cfg": str(cfg), "ckpt": str(ckpt), "out": str(out), "wide": str(wide),
             "dir": str(adir), "file": str(afile), "data": str(data), "list": str(listed)}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert_one_line_error(capsys, message.format(**paths))
    assert not out.exists()
    assert list(adir.iterdir()) == [] and afile.read_text() == "kept\n"
    assert not list(tmp_path.rglob("*.tmp"))
