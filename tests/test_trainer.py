"""Training loop contracts: determinism, term handling, fakes, generator."""

import pickle
import re
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contradist import evaluation, model, trainer
from contradist.dataset import BlobSpec, DomainDataset, make_blobs, split
from contradist.errors import ValidationError
from contradist.evaluation import predict
from contradist.losses import kernel_mmd
from contradist.model import (
    ModelParams,
    backward,
    forward,
    hidden_pass,
    init_params,
    param_count,
)
from contradist.rng import Rng, derive_seed
from contradist.trainer import (
    Adam,
    GeneratorSettings,
    TrainConfig,
    estimate_target_prior,
    generator_loss,
    generator_step,
    sample_fake_gaussian,
    train,
    train_config_from_dict,
    validate_inputs,
)
from helpers import (
    ReferenceAdam,
    fd_param_gradient,
    max_rel_err,
    per_step_fake_gaussian,
    reference_backward,
)


def toy_domains(seed=0, samples=150, rotation=0.0):
    d0 = BlobSpec(
        classes=(((-2.0, 0.0), 0.4), ((2.0, 0.0), 0.4)),
        samples_per_class=samples,
        seed=seed,
    )
    d1 = BlobSpec(
        classes=(((-2.0, 0.0), 0.4), ((2.0, 0.0), 0.4)),
        samples_per_class=samples,
        rotation_deg=rotation,
        seed=seed + 1,
    )
    return make_blobs(d0, "d0"), make_blobs(d1, "d1")


def quick_cfg(**overrides):
    base = dict(
        batch_size=32,
        epochs=6,
        terms=("ss", "tu", "ta"),
        warmup_epochs=1,
        ramp_epochs=1,
        hidden_dims=(16,),
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def params_equal(a, b):
    return np.array_equal(a.flat, b.flat)


class TestConfigValidation:
    def test_ss_must_stay_enabled(self):
        with pytest.raises(ValidationError):
            TrainConfig(terms=("tu",))

    def test_unknown_term_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(terms=("ss", "xx"))

    def test_tu_needs_batch_of_two(self):
        with pytest.raises(ValidationError):
            TrainConfig(terms=("ss", "tu"), batch_size=1)

    @pytest.mark.parametrize("term", ["ta", "sa"])
    def test_gaussian_fakes_need_batch_of_two(self, term):
        with pytest.raises(ValidationError, match=f"{term} needs batch_size >= 2"):
            TrainConfig(terms=("ss", term), batch_size=1)
        # the generator draws its fakes from noise, so ta runs on one row
        TrainConfig(terms=("ss", "ta"), batch_size=1, fake_sampler=GeneratorSettings())

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(term_weights={"tu": -1.0})

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValidationError):
            TrainConfig(optimizer="lbfgs")

    def test_sa_rejects_generator_sampler(self):
        with pytest.raises(ValidationError, match="sa needs the Gaussian"):
            TrainConfig(terms=("ss", "sa"), fake_sampler=GeneratorSettings())

    @pytest.mark.parametrize(
        "terms", [["ss"], ["ss", "tu"], ["ss", "tu", "su"]], ids=["ss", "ss,tu", "ss,tu,su"]
    )
    def test_generator_sampler_needs_ta(self, terms):
        message = "the generator fake_sampler needs the ta term"
        with pytest.raises(ValidationError, match=message):
            TrainConfig(terms=terms, fake_sampler=GeneratorSettings())
        with pytest.raises(ValidationError, match=message):
            train_config_from_dict({"terms": terms, "fake_sampler": {}})
        TrainConfig(terms=[*terms, "ta"], fake_sampler=GeneratorSettings())  # accepted with ta

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"terms": ["ss", "tu"], "term_weights": {"sa": 0.5}},
             "term weight 'sa' is for a term this run does not train"),
            ({"terms": ["ss", "tu"], "term_weights": {"tu": 1, "ta": 0}},
             "term weight 'ta' is for a term this run does not train"),
            # gen is no term: the generator's own lr alone sets its step
            ({"term_weights": {"gen": 2}}, "unknown term weight 'gen'"),
            ({"term_weights": {"gen": 2}, "fake_sampler": {}}, "unknown term weight 'gen'"),
        ],
        ids=["sa-not-in-terms", "zero-weight-not-in-terms", "gen-without-generator",
             "gen-with-generator"],
    )
    def test_term_weights_name_only_trained_terms(self, section, message):
        with pytest.raises(ValidationError, match=message):
            train_config_from_dict(section)
        with pytest.raises(ValidationError, match=message):
            TrainConfig(**section)

    @pytest.mark.parametrize(
        "gamma, message",
        [
            (0, "mmd_gamma must be positive and finite, got 0.0"),
            (-1, "mmd_gamma must be positive and finite, got -1.0"),
            (float("nan"), "mmd_gamma must be positive and finite, got nan"),
            (float("inf"), "mmd_gamma must be positive and finite, got inf"),
            ("median", "bad train config value for 'mmd_gamma': could not convert string"),
        ],
        ids=["zero", "negative", "nan", "inf", "unknown-mode"],
    )
    def test_mmd_gamma_is_positive_and_finite_or_median_heuristic(self, gamma, message):
        section = {"mmd_gamma": gamma, "fake_sampler": {}}
        with pytest.raises(ValidationError, match=re.escape(message)):
            train_config_from_dict(section)
        with pytest.raises(ValidationError, match=re.escape(message)):
            TrainConfig(**section)

    def test_network_size_cap_counts_what_the_config_fixes(self):
        # hidden (h,) with one input and one output width: 3h + 1 parameters;
        # building a config allocates no network, so the boundary is cheap
        edge = (trainer.MAX_PARAMS - 1) // 3
        assert TrainConfig(hidden_dims=(edge,)).hidden_dims == (edge,)
        with pytest.raises(ValidationError, match="classifier hidden_dims give at least"):
            TrainConfig(hidden_dims=(edge + 1,))
        with pytest.raises(ValidationError, match="MAX_PARAMS = 10000000"):
            TrainConfig(hidden_dims=(4000, 4000))
        with pytest.raises(ValidationError, match="generator noise_dim and hidden_dims"):
            GeneratorSettings(noise_dim=10**7, hidden_dims=(1,))
        with pytest.raises(ValidationError, match="generator noise_dim and hidden_dims"):
            GeneratorSettings(hidden_dims=(4000, 4000))

    def test_batch_caps_count_what_a_step_allocates(self):
        # validate_inputs checks the arrays a step would build and allocates none
        src = DomainDataset(np.zeros((2, 2)), np.array([0, 1]))
        tgt = DomainDataset(np.zeros((2, 2)))
        assert TrainConfig(batch_size=trainer.MAX_BATCH_SIZE).batch_size == 2**16
        with pytest.raises(ValidationError, match="more than MAX_BATCH_SIZE = 65536"):
            TrainConfig(batch_size=trainer.MAX_BATCH_SIZE + 1)
        # 2**16 rows by the default 64-wide layers fill the cap exactly
        assert validate_inputs(TrainConfig(batch_size=2**16), [src], tgt) == 2
        with pytest.raises(ValidationError, match="by width 65 gives 4259840 entries"):
            validate_inputs(TrainConfig(batch_size=2**16, hidden_dims=(65,)), [src], tgt)
        # with the generator, its MMD blocks are batch_size squared
        gen = dict(fake_sampler=GeneratorSettings(), terms=("ss", "ta"))
        assert validate_inputs(TrainConfig(batch_size=2**11, **gen), [src], tgt) == 2
        with pytest.raises(ValidationError, match="by width 2049 gives"):
            validate_inputs(TrainConfig(batch_size=2**11 + 1, **gen), [src], tgt)

    def test_train_without_sources_is_refused(self):
        tgt = DomainDataset(np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="need at least one source domain"):
            train(TrainConfig(), [], tgt)

    def test_network_size_cap_counts_the_data_widths(self):
        # 200000 features (6.4 MB of data) pass every batch cap at batch 4; the
        # config alone counts (1, 64, 1), but the data make it (200000, 64, 2)
        d = 200_000
        src = DomainDataset(np.zeros((2, d)), np.array([0, 1]))
        tgt = DomainDataset(np.zeros((2, d)))
        with pytest.raises(ValidationError, match="widths give at least 12800194 parameters"):
            validate_inputs(TrainConfig(batch_size=4, hidden_dims=(64,)), [src], tgt)
        # the generator's output width is the feature count
        gen = GeneratorSettings(noise_dim=4, hidden_dims=(64,))
        cfg = TrainConfig(batch_size=4, hidden_dims=(8,), terms=("ss", "ta"), fake_sampler=gen)
        with pytest.raises(ValidationError, match="width give at least 13000320 parameters"):
            validate_inputs(cfg, [src], tgt)

    def test_dict_round_trip(self):
        cfg = quick_cfg(fake_sampler=GeneratorSettings(noise_dim=3), term_weights={"tu": 0.5})
        assert train_config_from_dict(asdict(cfg)) == cfg

    def test_config_is_frozen_and_replace_validates(self):
        cfg = quick_cfg()
        with pytest.raises(FrozenInstanceError):
            cfg.batch_size = 0
        with pytest.raises(ValidationError, match="batch_size must be >= 1"):
            replace(cfg, batch_size=0)

    def test_term_weights_cannot_be_edited_in_place(self):
        cfg = quick_cfg(term_weights={"tu": 0.5})
        for edit in (
            lambda w: w.__setitem__("tu", -1.0), lambda w: w.update(tu=-1.0),
            lambda w: w.setdefault("ta", -1.0), lambda w: w.pop("tu"), lambda w: w.clear(),
        ):
            with pytest.raises(TypeError, match="read-only"):
                edit(cfg.term_weights)
        assert cfg.weight("tu") == 0.5
        assert asdict(cfg)["term_weights"] == {"tu": 0.5}
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert replace(cfg, term_weights={"tu": 2}).weight("tu") == 2.0

    def test_integer_fields_accept_ints_and_integer_strings(self):
        cfg = train_config_from_dict(
            {"epochs": "3", "seed": 5, "hidden_dims": ["16", 8], "fake_sampler": {"noise_dim": "2"}}
        )
        assert (cfg.epochs, cfg.seed, cfg.hidden_dims) == (3, 5, (16, 8))
        assert cfg.fake_sampler.noise_dim == 2

    @pytest.mark.parametrize(
        "obj",
        [
            {"epochs": 2.7},
            {"epochs": 3.0},
            {"seed": True},
            {"batch_size": 64.9},
            {"warmup_epochs": "1.5"},
            {"hidden_dims": [16, 8.5]},
            {"fake_sampler": {"noise_dim": False}},
        ],
    )
    def test_integer_fields_reject_bools_and_fractions(self, obj):
        with pytest.raises(ValidationError, match="expected an integer|invalid literal"):
            train_config_from_dict(obj)

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"hidden_dims": "64"}, "hidden_dims"),
            ({"fake_sampler": {"hidden_dims": "32"}}, "hidden_dims"),
            ({"terms": "ss,tu"}, "terms"),
        ],
    )
    def test_list_fields_reject_a_string(self, obj, key):
        # a string would split into its characters: "64" into hidden layers (6, 4)
        with pytest.raises(ValidationError, match=f"value for '{key}': expected a list, got '"):
            train_config_from_dict(obj)

    def test_float_fields_accept_numbers_and_numeric_strings(self):
        cfg = train_config_from_dict(
            {"lr": "0.01", "term_weights": {"tu": 2, "ta": "0.5"}, "mmd_gamma": 3,
             "fake_sampler": {"lr": np.float32(0.5)}}
        )
        assert (cfg.lr, cfg.term_weights, cfg.mmd_gamma) == (0.01, {"tu": 2.0, "ta": 0.5}, 3.0)
        assert cfg.fake_sampler.lr == 0.5

    @pytest.mark.parametrize(
        "obj",
        [
            {"lr": True},
            {"term_weights": {"tu": False}},
            {"mmd_gamma": True},
            {"fake_sampler": {"lr": True}},
            {"lr": [0.1]},
        ],
    )
    def test_float_fields_reject_bools(self, obj):
        with pytest.raises(ValidationError, match="expected a number"):
            train_config_from_dict(obj)


class TestSampleFakeGaussian:
    def test_constant_column_stays_constant(self):
        features = np.column_stack([np.full(50, 3.0), np.linspace(0, 1, 50)])
        fakes = sample_fake_gaussian(features, seed=1)
        assert np.all(fakes[:, 0] == 3.0)

    def test_deterministic(self):
        features = np.random.default_rng(0).normal(size=(40, 3))
        assert np.array_equal(
            sample_fake_gaussian(features, seed=9),
            sample_fake_gaussian(features, seed=9),
        )

    def test_matches_input_moments(self):
        rng = np.random.default_rng(1)
        features = rng.normal(loc=2.0, scale=1.5, size=(10_000, 2))
        fakes = sample_fake_gaussian(features, seed=5)
        assert fakes.shape == features.shape
        tol = 5.0 * features.std(axis=0) / np.sqrt(len(fakes))
        assert np.all(np.abs(fakes.mean(axis=0) - features.mean(axis=0)) < tol)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValidationError):
            sample_fake_gaussian(np.zeros((1, 2)), seed=0)

    def test_one_seed_per_batch_required(self):
        with pytest.raises(ValidationError, match="one seed per batch"):
            sample_fake_gaussian(np.zeros((3, 4, 2)), seed=np.arange(2, dtype=np.uint64))
        with pytest.raises(ValidationError, match="one seed per batch"):
            sample_fake_gaussian(np.zeros((4, 2)), seed=np.arange(2, dtype=np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 3), max_size=2),
        st.integers(2, 40),
        st.integers(1, 4),
        st.integers(0, 2**32),
    )
    @example([2], 200, 1, 0)  # a pairwise-summed column
    @example([], 5, 3, 1)  # the one-batch call
    def test_stack_equals_the_per_step_expression(self, stack, batch, d, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(3.0, 2.0, size=(*stack, batch, d))
        seeds = rng.integers(0, 2**64 - 1, size=stack, dtype=np.uint64, endpoint=True)
        got = sample_fake_gaussian(features, seeds)
        assert got.shape == features.shape
        for idx in np.ndindex(*stack):
            want = per_step_fake_gaussian(features[idx], int(seeds[idx]))
            assert got[idx].tobytes() == want.tobytes()


class TestBatchStream:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 40), st.integers(1, 50), st.integers(1, 12), st.integers(0, 3),
        st.integers(0, 2**64 - 1),
    )
    @example(5, 8, 3, 0, 1)  # fewer rows than a batch
    @example(10, 4, 5, 1, 2)  # passes end mid-batch
    def test_k_batches_equal_k_one_batch_draws(self, n, batch, k, before, seed):
        many = trainer._BatchStream(n, batch, Rng(seed))
        one = trainer._BatchStream(n, batch, Rng(seed))
        for stream in (many, one):  # start part way into a pass
            for _ in range(before):
                stream.next(1)
        got = many.next(k)
        want = np.stack([one.next(1)[0] for _ in range(k)])
        assert got.shape == (k, batch)
        assert got.tobytes() == want.tobytes()
        assert many.next(1).tobytes() == one.next(1).tobytes()  # the streams stay in step
        # every batch row comes from back-to-back shuffles of range(n)
        ref = Rng(seed)
        order = np.concatenate([ref.permutation(n) for _ in range(-(-(before + k) * batch // n))])
        assert got.ravel().tobytes() == order[before * batch : (before + k) * batch].tobytes()


class TestEstimateTargetPrior:
    def test_given_prior_passthrough(self):
        cfg = TrainConfig(prior=(0.9, 0.1))
        assert np.array_equal(estimate_target_prior(cfg, []).probs, [0.9, 0.1])

    def test_balanced_sources_give_uniform(self):
        d0, _ = toy_domains(samples=50)
        cfg = TrainConfig()
        assert np.allclose(estimate_target_prior(cfg, [d0]).probs, 0.5)

    def test_opposite_skews_pool_to_uniform(self):
        features = np.zeros((8, 2)) + np.arange(8)[:, None]
        a = DomainDataset(features, np.array([0, 0, 0, 0, 0, 0, 1, 1]))
        b = DomainDataset(features, np.array([1, 1, 1, 1, 1, 1, 0, 0]))
        pooled = estimate_target_prior(TrainConfig(), [a, b])
        counts = np.bincount(np.concatenate([a.labels, b.labels]))
        assert np.allclose(pooled.probs, counts / counts.sum())
        assert np.allclose(pooled.probs, [0.5, 0.5])


@pytest.mark.parametrize("size", [7, 4610])
def test_adam_matches_the_one_expression_step_for_50_steps(size):
    rng = np.random.default_rng(size)
    a, ref_a = np.zeros(size), np.zeros(size)
    opt, ref = Adam(lr=3e-3), ReferenceAdam(lr=3e-3)
    for _ in range(50):
        g = rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=size)
        g_before = g.copy()
        opt.step(a, g)
        ref.step(ref_a, g)
        assert np.array_equal(a, ref_a)
        assert np.array_equal(g, g_before)


class TestTrain:
    def test_supervised_only_learns_separable_blobs(self):
        src, tgt = toy_domains()
        cfg = quick_cfg(terms=("ss",), epochs=25)
        params, history = train(cfg, [src], tgt.without_labels())
        assert history.records[-1].source_train_accuracy >= 0.99

    @pytest.mark.parametrize("n_sources", [1, 2])
    def test_source_accuracy_counts_the_epochs_batches(self, n_sources):
        # 32 rows per source at batch 16: each source row is drawn once per
        # epoch, and with lr 0 every step sees the initial model
        src, tgt = toy_domains(samples=16, rotation=30.0)
        sources = [src, DomainDataset(src.features + 1.0, src.labels.copy(), "d2")][:n_sources]
        params, history = train(quick_cfg(lr=0.0, epochs=3), sources, tgt.without_labels())
        x = np.vstack([s.features for s in sources])
        y = np.concatenate([s.labels for s in sources])
        want = (predict(params, x) == y).mean()
        assert 0.0 < want < 1.0
        assert [rec.source_train_accuracy for rec in history.records] == [want] * 3

    def test_training_runs_no_evaluation_pass(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train ran a pass through evaluation")

        monkeypatch.setattr(evaluation, "forward", refuse)
        src, tgt = toy_domains()
        _, history = train(quick_cfg(epochs=2), [src], tgt.without_labels())
        assert len(history.records) == 2

    def test_zero_lr_never_changes_params(self):
        src, tgt = toy_domains()
        frozen, _ = train(quick_cfg(lr=0.0, epochs=4), [src], tgt.without_labels())
        init, _ = train(quick_cfg(epochs=0), [src], tgt.without_labels())
        assert params_equal(frozen, init)

    def test_deterministic_history_and_params(self):
        src, tgt = toy_domains()
        p1, h1 = train(quick_cfg(), [src], tgt.without_labels())
        p2, h2 = train(quick_cfg(), [src], tgt.without_labels())
        assert params_equal(p1, p2)
        assert h1 == h2

    def test_zero_weight_equals_removed_term(self):
        src, tgt = toy_domains()
        src2 = DomainDataset(src.features + 0.5, src.labels.copy(), "d2")
        # su and sa run once per source, so check them with two sources
        for term, sources in (("ta", [src]), ("su", [src, src2]), ("sa", [src, src2])):
            zeroed, _ = train(
                quick_cfg(terms=("ss", "tu", term), term_weights={term: 0.0}),
                sources,
                tgt.without_labels(),
            )
            removed, _ = train(
                quick_cfg(terms=("ss", "tu")), sources, tgt.without_labels()
            )
            assert params_equal(zeroed, removed), term

    def test_zero_tu_weight_equals_removed_tu(self):
        src, tgt = toy_domains()
        zeroed, _ = train(
            quick_cfg(terms=("ss", "tu", "ta"), term_weights={"tu": 0.0}),
            [src],
            tgt.without_labels(),
        )
        removed, _ = train(
            quick_cfg(terms=("ss", "ta")), [src], tgt.without_labels()
        )
        assert params_equal(zeroed, removed)

    def test_two_sources_run_and_log_summed_ss(self):
        src, tgt = toy_domains()
        src2 = DomainDataset(src.features + 0.5, src.labels.copy(), "d2")
        params, history = train(quick_cfg(epochs=3), [src, src2], tgt.without_labels())
        single, hist1 = train(quick_cfg(epochs=3), [src], tgt.without_labels())
        # summed supervised loss over two sources starts near twice one source
        assert history.records[0].losses["ss"] > 1.5 * hist1.records[0].losses["ss"]

    def test_labeled_target_rejected(self):
        src, tgt = toy_domains()
        with pytest.raises(ValidationError):
            train(quick_cfg(), [src], tgt)

    def test_unlabeled_source_rejected(self):
        src, tgt = toy_domains()
        with pytest.raises(ValidationError):
            train(quick_cfg(), [src.without_labels()], tgt.without_labels())

    def test_prior_class_count_mismatch_rejected(self):
        src, tgt = toy_domains()
        cfg = quick_cfg(prior=(0.5, 0.3, 0.2))
        with pytest.raises(ValidationError):
            train(cfg, [src], tgt.without_labels())

    def test_history_shape_and_finiteness(self):
        src, tgt = toy_domains()
        cfg = quick_cfg(terms=("ss", "su", "tu", "sa", "ta"), epochs=5)
        _, history = train(cfg, [src], tgt.without_labels())
        assert len(history.records) == cfg.epochs
        for rec in history.records:
            assert sorted(rec.losses) == ["sa", "ss", "su", "ta", "tu"]
            assert all(np.isfinite(v) for v in rec.losses.values())
            assert np.isfinite(rec.total)

    def test_history_jsonl_round_trip(self, tmp_path):
        import json

        src, tgt = toy_domains()
        _, history = train(quick_cfg(epochs=2), [src], tgt.without_labels())
        path = tmp_path / "history.jsonl"
        history.save_jsonl(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["epoch"] == 1
        assert sorted(rec) == ["epoch", "losses", "source_train_accuracy", "total"]

    def test_generator_mode_trains_and_logs_gen_loss(self):
        src, tgt = toy_domains()
        cfg = quick_cfg(
            epochs=3,
            fake_sampler=GeneratorSettings(noise_dim=4, hidden_dims=(16,), lr=1e-3),
        )
        _, history = train(cfg, [src], tgt.without_labels())
        assert "gen" in history.records[-1].losses
        assert np.isfinite(history.records[-1].losses["gen"])

    @pytest.mark.parametrize(
        "fake_sampler, nets",
        [("gaussian_input", 1), (GeneratorSettings(noise_dim=4, hidden_dims=(16,)), 2)],
        ids=["gaussian", "generator"],
    )
    def test_generator_is_built_exactly_when_configured(self, monkeypatch, fake_sampler, nets):
        src, tgt = toy_domains()
        built = []

        def counting(layer_dims, seed):
            built.append(tuple(layer_dims))
            return init_params(layer_dims, seed)

        monkeypatch.setattr(trainer, "init_params", counting)
        cfg = quick_cfg(epochs=1, fake_sampler=fake_sampler)
        _, history = train(cfg, [src], tgt.without_labels())
        assert built == [(2, 16, 2), (4, 16, 2)][:nets]
        assert ("gen" in history.records[0].losses) == (nets == 2)

    def test_sa_seeds_are_drawn_step_major_across_sources(self, monkeypatch):
        src, tgt = toy_domains()
        sources = [src, DomainDataset(src.features + 1.0, src.labels.copy(), "d2")]
        cfg = quick_cfg(epochs=2, terms=("ss", "sa"))
        calls = []
        real = trainer.sample_fake_gaussian

        def recording(features, seed):
            calls.append((np.array(features), np.array(seed)))
            return real(features, seed)

        monkeypatch.setattr(trainer, "sample_fake_gaussian", recording)
        train(cfg, sources, tgt.without_labels())
        stream = Rng(derive_seed(cfg.seed, "fake/sa"))
        rows = [{r.tobytes() for r in s.features} for s in sources]
        steps = 0
        for features, seeds in calls:
            k = seeds.shape[0]
            steps += k
            assert seeds.shape == (k, 2)
            assert features.shape == (k, 2, cfg.batch_size, 2)
            # step j's source r takes the stream's draw j * 2 + r
            assert [int(z) for z in seeds.ravel()] == [stream.next_u64() for _ in range(2 * k)]
            for r in (0, 1):
                assert all(x.tobytes() in rows[r] for x in features[:, r].reshape(-1, 2))
        assert steps == cfg.epochs * -(-src.n // cfg.batch_size)

    def test_blocked_draws_give_the_same_parameters(self, monkeypatch):
        src, tgt = toy_domains()
        sources = [src, DomainDataset(src.features + 1.0, src.labels.copy(), "d2")]
        cfg = quick_cfg(
            batch_size=8, hidden_dims=(4,), epochs=3, terms=("ss", "tu", "su", "ta", "sa")
        )
        real = trainer.sample_fake_gaussian

        def run():
            blocks = []  # steps per block, from the ta draws

            def recording(features, seed):
                if np.ndim(seed) == 1:
                    blocks.append(len(seed))
                return real(features, seed)

            monkeypatch.setattr(trainer, "sample_fake_gaussian", recording)
            return train(cfg, sources, tgt.without_labels()), blocks

        (whole, h_whole), blocks = run()
        n_batch = -(-src.n // cfg.batch_size)
        assert blocks == [n_batch] * cfg.epochs
        # a step's sa draw: 2 sources x (8 x 2 + 1) = 34 entries; its widest
        # network array 8 x 4 = 32 entries, under the lowered bound
        monkeypatch.setattr(trainer, "MAX_BATCH_ENTRIES", 3 * 34)
        (blocked, h_blocked), blocks = run()
        assert blocks == ([3] * (n_batch // 3) + [n_batch % 3]) * cfg.epochs
        assert n_batch % 3 != 0
        assert params_equal(whole, blocked)
        assert whole.flat.tobytes() == blocked.flat.tobytes()
        assert h_whole == h_blocked

    @pytest.mark.parametrize("terms", [("ss", "tu", "ta"), ("ss", "ta"), ("ss", "tu")])
    def test_one_classifier_pass_per_target_batch_per_step(self, monkeypatch, terms):
        # tu and the generator step share one hidden pass over the target batch
        src, tgt = toy_domains()
        gs = GeneratorSettings(noise_dim=4, hidden_dims=(16,), lr=1e-3)
        cfg = quick_cfg(epochs=2, terms=terms, fake_sampler=gs if "ta" in terms else "gaussian_input")
        target_rows = {row.tobytes() for row in tgt.features}
        passes = []
        original = model.hidden_pass

        def counting(params, x):
            if all(row.tobytes() in target_rows for row in np.asarray(x)):
                passes.append(params.layer_dims)
            return original(params, x)

        monkeypatch.setattr(model, "hidden_pass", counting)
        monkeypatch.setattr(trainer, "hidden_pass", counting)
        train(cfg, [src], tgt.without_labels())
        steps = cfg.epochs * -(-max(src.n, tgt.n) // cfg.batch_size)
        assert passes == [(2, 16, 2)] * steps


class TestGeneratorStep:
    def setup_method(self):
        self.gen = init_params((2, 4, 2), 0)
        self.clf = init_params((2, 5, 3), 1)
        # fresh nets have all-zero biases, so a dead generator sample emits
        # the exact zero vector and parks the classifier on the relu kink,
        # where finite differences are not a valid oracle; jitter the biases
        rng = np.random.default_rng(11)
        for params in (self.gen, self.clf):
            for b in params.biases:
                b += rng.normal(scale=0.1, size=b.shape)
        batch = np.random.default_rng(2).normal(size=(8, 2))
        self.real_emb = hidden_pass(self.clf, batch)[1][-1]
        self.cfg = TrainConfig(
            fake_sampler=GeneratorSettings(noise_dim=2, hidden_dims=(4,), lr=1e-2),
            mmd_gamma=0.5,
        )

    def test_zero_lr_leaves_generator_unchanged(self):
        before = self.gen.copy()
        generator_step(self.gen, self.clf, self.real_emb, self.cfg, Adam(lr=0.0), Rng(3))
        assert params_equal(self.gen, before)

    def test_loss_decreases_over_200_steps(self):
        opt = Adam(lr=1e-2)
        rng = Rng(4)
        first = None
        last = None
        for _ in range(200):
            value = generator_step(self.gen, self.clf, self.real_emb, self.cfg, opt, rng)
            if first is None:
                first = value
            last = value
        assert last < first

    def test_matches_two_pass_reference_bit_for_bit(self):
        for seed in range(5):
            gen = init_params((3, 8, 4), 10 + seed)
            clf = init_params((4, 6, 5, 3), 20 + seed)
            rng = np.random.default_rng(seed)
            for params in (gen, clf):
                for b in params.biases:
                    b += rng.normal(scale=0.1, size=b.shape)
            noise = rng.normal(size=(9, 3))
            batch = rng.normal(size=(7, 4))
            gamma = "median-heuristic"
            value, grads = generator_loss(gen, clf, noise, hidden_pass(clf, batch)[1][-1], gamma)

            # full forwards, then an encoder network whose output layer is
            # the last hidden layer's affine map, backpropagated explicitly
            gen_trace = forward(gen, noise)
            fakes = gen_trace.logits
            mmd_value, d_emb = kernel_mmd(
                forward(clf, fakes).activations[-1],
                forward(clf, batch).activations[-1],
                gamma,
            )
            enc_dims = clf.layer_dims[:-1]
            enc = ModelParams(enc_dims, clf.flat[: param_count(enc_dims)])
            enc_trace = forward(enc, fakes)
            d_pre = d_emb * (enc_trace.logits > 0.0)
            d_fakes = reference_backward(enc, enc_trace, d_pre)[1]
            want = backward(gen, gen_trace, d_fakes)

            assert value == mmd_value
            assert np.array_equal(grads, want)

    def test_classifier_without_hidden_layer_rejected(self):
        clf = init_params((2, 3), 1)
        noise = np.zeros((4, 2))
        with pytest.raises(ValidationError, match="needs a hidden layer"):
            generator_loss(self.gen, clf, noise, self.real_emb, 0.5)

    def test_gradient_matches_finite_differences(self):
        noise = np.random.default_rng(5).normal(size=(6, 2))
        value, grads = generator_loss(self.gen, self.clf, noise, self.real_emb, 0.5)
        numeric = fd_param_gradient(
            lambda: generator_loss(
                self.gen, self.clf, noise, self.real_emb, 0.5
            )[0],
            self.gen,
        )
        assert max_rel_err(grads, numeric) <= 1e-3
