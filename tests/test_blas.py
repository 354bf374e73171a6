"""The one-thread BLAS cap: covers every network pass, restores the count,
changes no result."""

import numpy as np
import pytest

from contradist import blas, evaluation, trainer
from contradist.cli import main
from contradist.dataset import BlobSpec, make_blobs, save_csv
from contradist.errors import NumericError, ValidationError
from contradist.losses import MmdConfig
from contradist.model import backward, forward, hidden_pass, init_params, save_checkpoint
from contradist.trainer import GeneratorSettings, TrainConfig, generator_loss


def controls_or_skip():
    controls = blas._controls()
    if controls is None:
        pytest.skip("no OpenBLAS with a thread-count setter is loaded")
    return controls[:2]  # (get, set)


@pytest.fixture
def threads():
    """OpenBLAS at two threads for the test; yields the thread-count getter."""
    get, set_ = controls_or_skip()
    before = get()
    set_(2)
    yield get
    set_(before)


def record_threads(monkeypatch, threads, module, name):
    """Wrap module.name to note the thread count of each call; returns the set."""
    seen = set()
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        seen.add(threads())
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return seen


def tiny_run():
    """A two-epoch generator-sampler run: every step kind and two predicts."""
    spec = BlobSpec(classes=(((-2.0, 0.0), 0.4), ((2.0, 0.0), 0.4)), samples_per_class=40)
    source = make_blobs(spec, "d0")
    cfg = TrainConfig(
        batch_size=16, epochs=2, warmup_epochs=0, ramp_epochs=0, hidden_dims=(8,), seed=1,
        fake_sampler=GeneratorSettings(noise_dim=2, hidden_dims=(4,)),
    )
    return cfg, [source], source.without_labels()


def test_cap_holds_inside_the_block_and_restores_the_count():
    get, set_ = controls_or_skip()
    before = get()
    try:
        set_(2)
        with blas.one_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(RuntimeError):
            with blas.one_thread():
                raise RuntimeError
        assert get() == 2
    finally:
        set_(before)


def test_nested_caps_leave_the_outer_count():
    get, _ = controls_or_skip()
    before = get()
    with blas.one_thread():
        with blas.one_thread():
            assert get() == 1
        assert get() == 1
    assert get() == before


def test_generator_loss_is_bit_equal_with_and_without_the_cap():
    # 128 fakes and 128 real rows, 64 wide: past OpenBLAS's threading
    # threshold, so without the cap the products may run on several threads
    gen = init_params((8, 64, 64, 2), 3)
    clf = init_params((2, 64, 64, 3), 4)
    rng = np.random.default_rng(5)
    noise = rng.normal(size=(128, 8))
    batch = rng.normal(size=(128, 2))
    with blas.one_thread():
        v1, g1 = generator_loss(gen, clf, noise, hidden_pass(clf, batch)[1][-1], MmdConfig())
    v2, g2 = generator_loss(gen, clf, noise, hidden_pass(clf, batch)[1][-1], MmdConfig())
    assert v1 == v2
    for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
        assert np.array_equal(a, b)


def test_train_runs_every_step_on_one_thread_and_restores_the_count(threads, monkeypatch):
    seen = {
        name: record_threads(monkeypatch, threads, trainer, name)
        for name in ("backward", "generator_loss", "predict")
    }
    trainer.train(*tiny_run())
    assert seen == {"backward": {1}, "generator_loss": {1}, "predict": {1}}
    assert threads() == 2


@pytest.mark.parametrize("error", [NumericError, ValidationError])
def test_train_restores_the_count_when_it_raises(threads, monkeypatch, error):
    def failing_backward(*args, **kwargs):
        assert threads() == 1
        raise error("inside the loop")

    monkeypatch.setattr(trainer, "backward", failing_backward)
    with pytest.raises(error, match="inside the loop"):
        trainer.train(*tiny_run())
    assert threads() == 2


@pytest.mark.parametrize("batch", [128, 384])
def test_classifier_step_is_bit_equal_on_one_and_two_threads(batch):
    _, set_ = controls_or_skip()
    params = init_params((2, 64, 64, 3), 6)
    rng = np.random.default_rng(batch)
    x = rng.normal(size=(batch, 2))
    dlogits = rng.normal(size=(batch, 3))
    results = []
    with blas.one_thread():  # restores the count after the two settings
        for count in (1, 2):
            set_(count)
            trace = forward(params, x)
            grads = backward(params, trace, dlogits)
            results.append([trace.probs, *grads.weights, *grads.biases])
    for a, b in zip(*results):
        assert np.array_equal(a, b)


def test_predict_runs_forward_on_one_thread_and_restores_the_count(threads, monkeypatch):
    seen = record_threads(monkeypatch, threads, evaluation, "forward")
    params = init_params((2, 8, 2), 1)
    evaluation.predict(params, np.zeros((5, 2)))
    assert seen == {1}
    assert threads() == 2


def test_contour_grid_runs_forward_on_one_thread_and_restores_the_count(threads, monkeypatch):
    seen = record_threads(monkeypatch, threads, evaluation, "forward")
    params = init_params((2, 8, 2), 1)
    evaluation.contour_grid(params, (-1.0, 1.0, -1.0, 1.0), 100)  # two chunks
    assert seen == {1}
    assert threads() == 2
    with pytest.raises(ValidationError, match="resolution"):
        evaluation.contour_grid(params, (-1.0, 1.0, -1.0, 1.0), 1)
    assert threads() == 2


def test_cli_network_passes_all_run_on_one_thread(threads, monkeypatch, tmp_path):
    monkeypatch.setenv("CONTRADIST_THREADS", "1")
    seen = {
        module.__name__: record_threads(monkeypatch, threads, module, "forward")
        for module in (evaluation, trainer)
    }
    spec = BlobSpec(classes=(((-2.0, 0.0), 0.4), ((2.0, 0.0), 0.4)), samples_per_class=20)
    data, ckpt = tmp_path / "d.csv", tmp_path / "model.ckpt"
    save_csv(make_blobs(spec, "d0"), data)
    save_checkpoint(init_params((2, 8, 2), 1), ckpt)
    runs = [
        ["eval", "--checkpoint", str(ckpt), "--data", str(data)],
        ["contour", "--checkpoint", str(ckpt), "--data", str(data), "--resolution", "20",
         "--out", str(tmp_path / "contour.csv")],
        ["sweep", "--presets", "aligned", "--term-sets", "ss,tu", "--seeds", "1",
         "--directions", "d0->d1", "--samples-per-class", "30", "--epochs", "1",
         "--out", str(tmp_path / "sweep")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
        assert threads() == 2
    assert seen == {"contradist.evaluation": {1}, "contradist.trainer": {1}}


# OpenBLAS kernels on which the two-thread 8,100-row forward below was
# measured bit-equal to the one-thread one (scipy-openblas 0.3.31, x86_64).
# On Haswell it differs in 2 rows by 5.6e-17.
CONTOUR_BIT_EQUAL_KERNELS = ("SkylakeX", "Sandybridge")


def test_capped_contour_grid_is_bit_equal_to_a_two_thread_forward(threads):
    # 64-wide hidden layers over 8100 grid points: past OpenBLAS's threading
    # threshold, so the uncapped forward may split its products over two
    # threads.  The grid is one chunk: the last bit of an OpenBLAS product
    # can depend on its row count, so a chunked pass may differ from a
    # one-shot pass.
    kernel = blas.core_name()
    if kernel not in CONTOUR_BIT_EQUAL_KERNELS:
        pytest.skip(
            f"bit equality was measured on {', '.join(CONTOUR_BIT_EQUAL_KERNELS)}; "
            f"this OpenBLAS kernel is {kernel}"
        )
    params = init_params((2, 64, 64, 3), 7)
    grid = evaluation.contour_grid(params, (-3.0, 3.0, -2.0, 2.0), 90)
    assert threads() == 2
    probs = forward(params, grid.points).probs
    assert np.array_equal(grid.probs, probs)
    assert np.array_equal(grid.preds, np.argmax(probs, axis=1))
