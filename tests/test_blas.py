"""The one-thread BLAS cap: restores the count and changes no result."""

import numpy as np
import pytest

from contradist import blas
from contradist.losses import MmdConfig
from contradist.model import init_params
from contradist.trainer import generator_loss


def test_cap_holds_inside_the_block_and_restores_the_count():
    controls = blas._controls()
    if controls is None:
        pytest.skip("no OpenBLAS with a thread-count setter is loaded")
    get, set_ = controls
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
    controls = blas._controls()
    if controls is None:
        pytest.skip("no OpenBLAS with a thread-count setter is loaded")
    get, _ = controls
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
        v1, g1 = generator_loss(gen, clf, noise, batch, MmdConfig())
    v2, g2 = generator_loss(gen, clf, noise, batch, MmdConfig())
    assert v1 == v2
    for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
        assert np.array_equal(a, b)
