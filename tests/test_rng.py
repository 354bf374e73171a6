"""The portable generator must match a scalar reference implementation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contradist.rng import Rng, derive_seed, seeded_normals

MASK = (1 << 64) - 1


def reference_splitmix64(seed, n):
    """Straight scalar SplitMix64, independent of the vectorized code."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1])
def test_matches_scalar_reference(seed):
    rng = Rng(seed)
    got = [rng.next_u64() for _ in range(50)]
    assert got == reference_splitmix64(seed, 50)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("counter", [0, 2**32 + 5, 2**40 + 3])
def test_next_u64_matches_the_vectorized_draw(seed, counter):
    a, b = Rng(seed), Rng(seed)
    a._counter = b._counter = counter
    assert [a.next_u64() for _ in range(2)] == [int(b._raw(1)[0]) for _ in range(2)]
    assert np.array_equal(a.uniform(3), b.uniform(3))


def test_streams_are_deterministic():
    a, b = Rng(7), Rng(7)
    assert np.array_equal(a.uniform(100), b.uniform(100))
    assert np.array_equal(a.normal(101), b.normal(101))
    assert np.array_equal(a.permutation(50), b.permutation(50))


def test_uniform_range_and_count():
    u = Rng(3).uniform(10_000)
    assert u.shape == (10_000,)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_normal_moments():
    z = Rng(11).normal(50_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    assert np.all(np.isfinite(z))


def test_normal_odd_length():
    assert Rng(5).normal(7).shape == (7,)


def two_block_box_muller(rng, n):
    """Box-Muller from two separate uniform draws: u1 first, then u2."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.uniform(m)
    u2 = rng.uniform(m)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 1024, 1025])
def test_normal_equals_two_block_box_muller_bit_for_bit(n):
    got, want = Rng(21), Rng(21)
    for rng in (got, want):  # other draws first, so the stream is mid-way
        rng.uniform(3)
        rng.permutation(5)
        rng.next_u64()
    assert got.normal(n).tobytes() == two_block_box_muller(want, n).tobytes()
    assert got.normal(n).tobytes() == two_block_box_muller(want, n).tobytes()
    assert got.next_u64() == want.next_u64()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    st.integers(0, 40),
    st.booleans(),
)
@example([0, 2**64 - 1], 0, True)  # n = 1
@example([7], 1, False)  # n = 2
def test_seeded_normals_rows_equal_one_stream_per_seed(seeds, half, odd):
    n = 2 * half + 1 if odd else max(2 * half, 2)
    got = seeded_normals(np.array(seeds, dtype=np.uint64), n)
    assert got.shape == (len(seeds), n)
    for row, seed in zip(got, seeds):
        assert row.tobytes() == Rng(seed).normal(n).tobytes()


def test_seeded_normals_keep_the_seeds_shape():
    seeds = np.arange(6, dtype=np.uint64).reshape(2, 3)
    got = seeded_normals(seeds, 5)
    assert got.shape == (2, 3, 5)
    assert got[1, 2].tobytes() == Rng(5).normal(5).tobytes()


def test_raw_block_equals_successive_next_u64():
    a, b = Rng(77), Rng(77)
    a.next_u64()
    b.next_u64()
    assert [int(z) for z in a._raw(9)] == [b.next_u64() for _ in range(9)]
    assert a.next_u64() == b.next_u64()


def test_permutation_is_permutation():
    p = Rng(9).permutation(500)
    assert np.array_equal(np.sort(p), np.arange(500))


def test_derive_seed_separates_tags_and_seeds():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert 0 <= derive_seed(123, "anything") <= MASK


def reference_derive_seed(seed, tag):
    """Scalar FNV-1a of the tag, XORed into the seed, then one SplitMix64 step."""
    h = 0xCBF29CE484222325
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK
    return reference_splitmix64(seed ^ h, 1)[0]


@pytest.mark.parametrize(
    "seed", [0, 1, 7, -1, -(2**63), -(2**70) + 3, 2**63, 2**64 - 1, 2**64, 2**64 + 9, 2**80]
)
def test_derive_seed_matches_scalar_reference(seed):
    for tag in ("", "split", "init", "shuffle/d0", "rotated/d1", "\u00e9"):
        assert derive_seed(seed, tag) == reference_derive_seed(seed, tag), tag
