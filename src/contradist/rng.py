"""Deterministic counter-based random number generation.

Every sampling operation in this package draws from the SplitMix64 stream
implemented here instead of the platform RNG, so a (seed, call sequence)
pair reproduces the same values on any machine.  Output i of a stream is
``mix64(seed + (i + 1) * GOLDEN)`` where ``mix64`` is the standard
SplitMix64 finalizer; all arithmetic is modulo 2**64.  Gaussian variates
come from the Box-Muller transform applied to the uniform stream, and a
child seed from ``derive_seed`` is output 0 of the stream seeded with the
parent seed XOR the FNV-1a hash of a tag.

``_splitmix64`` and ``_box_muller`` hold that arithmetic once: ``Rng`` runs
it on one stream, and ``seeded_normals`` on many streams at once, one row
per seed, equal to ``Rng(seed).normal(n)`` for each.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# 53-bit mantissa step for mapping integers onto [0, 1)
_U53_SCALE = 2.0 ** -53


def derive_seed(seed: int, tag: str) -> int:
    """Derive an independent child seed from a parent seed and a label.

    The tag is hashed with FNV-1a and XORed into the seed; the child seed is
    the first draw of the stream seeded with the result, so distinct purposes
    ("init", "shuffle/d0", ...) get decorrelated streams.
    """
    h = _FNV_OFFSET
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return Rng(seed ^ h).next_u64()


def _splitmix64(seed, first: int, n: int) -> np.ndarray:
    """Outputs first .. first + n - 1 of the stream seeded by seed, along a
    new last axis: seed is a uint64 scalar or array, one stream per entry."""
    counters = np.arange(first + 1, first + n + 1, dtype=np.uint64)
    counters *= np.uint64(_GOLDEN)
    z = np.add(np.expand_dims(seed, -1), counters)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _uniform(raw: np.ndarray) -> np.ndarray:
    """Raw draws as doubles in [0, 1) with 53-bit resolution."""
    return (raw >> np.uint64(11)).astype(np.float64) * _U53_SCALE


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """n standard normals from each 2m uniforms along u's last axis,
    m = ceil(n / 2): the first m are u1, the next m are u2."""
    m = (n + 1) // 2
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., :m]))  # 1 - u1 in (0, 1]: a finite log
    theta = 2.0 * np.pi * u[..., m:]
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return z[..., :n]


def seeded_normals(seeds: np.ndarray, n: int) -> np.ndarray:
    """n standard normals per seed, shape seeds.shape + (n,): the row of
    seed s is Rng(s).normal(n), all drawn at once."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _box_muller(_uniform(_splitmix64(seeds, 0, 2 * ((n + 1) // 2))), n)


class Rng:
    """Streaming SplitMix64 generator with vectorized draws.

    Every draw advances one counter, so a block of n draws gives the values
    of n one-at-a-time draws.  The arithmetic lives in the module functions
    that seeded_normals also runs, so Rng(s).normal(n) and the row of seed s
    in seeded_normals agree bit for bit.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK64)
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        """The next n raw 64-bit draws; the same values as n next_u64 calls."""
        z = _splitmix64(self._seed, self._counter, n)
        self._counter += n
        return z

    def next_u64(self) -> int:
        """One raw 64-bit draw as a Python int, e.g. to seed a child stream."""
        return int(self._raw(1)[0])

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) with 53-bit resolution."""
        return _uniform(self._raw(n))

    def normal(self, n: int) -> np.ndarray:
        """n standard normal draws via Box-Muller (_box_muller) from the
        next 2 * ceil(n / 2) uniforms."""
        return _box_muller(self.uniform(2 * ((n + 1) // 2)), n)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        return np.argsort(self._raw(n), kind="stable")
