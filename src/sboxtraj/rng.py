"""Reproducible random streams addressed by a master seed and a derivation path.

Every randomized operation in this package draws from an :class:`RngStream`.
A stream is identified by ``(master_seed, path)`` where the path is a tuple of
integer indices (run, climb, sample, ...).  Identical coordinates always give
identical value sequences, which makes whole experiments replayable from a
single seed regardless of execution order.
"""

import functools
import random

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Identifier of the seed-mixing scheme, echoed into experiment metadata so
# result files are self-describing.
SEED_MIXER_ID = "splitmix64-path-v1"


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: a bijective 64-bit avalanche mix of each entry
    of a numpy uint64 array, whose products wrap mod 2^64.  Arrays only: on
    a numpy scalar the same products warn of overflow."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def derive_seed(master_seed: int, path: tuple[int, ...]) -> int:
    """Mix a master seed and a derivation path into a single 64-bit child seed.

    The mixer is ``s = mix64(master)`` followed, for each path index ``e``, by
    ``s = mix64(s + GOLDEN * (e + 1))`` with GOLDEN = 0x9E3779B97F4A7C15,
    all mod 2^64.  This scheme is frozen (see SEED_MIXER_ID); changing it
    would silently change every seeded result, so treat it as part of the
    file-format contract.  It is the one-stream case of `_seeds`.
    """
    return _seeds([(int(master_seed), tuple(map(int, path)))])[0]


def _seeds(coordinates: list[tuple[int, tuple[int, ...]]]) -> list[int]:
    """derive_seed of each (master_seed, path) of Python ints, mixed for
    all paths of one length at once in numpy uint64."""
    seeds = [0] * len(coordinates)
    by_length = {}
    for k, (_, path) in enumerate(coordinates):
        by_length.setdefault(len(path), []).append(k)
    for ks in by_length.values():
        s = _mix64(np.array([coordinates[k][0] & _MASK64 for k in ks], dtype=np.uint64))
        for entries in zip(*(coordinates[k][1] for k in ks)):
            step = np.array([(e + 1) & _MASK64 for e in entries], dtype=np.uint64)
            s = _mix64(s + step * _GOLDEN)
        for k, seed in zip(ks, s.tolist()):
            seeds[k] = seed
    return seeds


class RngStream:
    """A seeded random stream with cheap hierarchical derivation.

    Wraps a ``random.Random`` seeded with ``derive_seed(master_seed, path)``
    at the stream's first draw, so a stream used only to derive children
    never seeds one.  Streams at distinct paths are statistically
    independent.  A stream holds mutable generator state, so concurrent tasks
    must not share one instance; each task derives its own child instead.
    """

    def __init__(self, master_seed: int, path: tuple[int, ...] = ()):
        self.master_seed = int(master_seed)
        self.path = tuple(map(int, path))

    @functools.cached_property
    def _rng(self) -> random.Random:
        return random.Random(derive_seed(self.master_seed, self.path))

    def child(self, *indices: int) -> "RngStream":
        """The stream addressed by this stream's path extended with `indices`."""
        return RngStream(self.master_seed, self.path + indices)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)


def first_words(streams: list[RngStream], count: int) -> np.ndarray:
    """The first `count` 32-bit Mersenne Twister outputs of each stream, in
    draw order: a (len(streams), count) uint32 array.

    A row comes from one getrandbits(32 * count) of a generator seeded as
    the stream's, which packs the outputs least-significant first; each is
    the word a draw of at most 32 bits would shift down, so draws can be
    replayed from them.  One generator is re-seeded for every stream, so the
    streams themselves are neither seeded nor advanced.
    """
    gen = random.Random()
    size = 4 * count
    words = bytearray(size * len(streams))
    for k, seed in enumerate(_seeds([(s.master_seed, s.path) for s in streams])):
        gen.seed(seed)
        words[k * size : (k + 1) * size] = gen.getrandbits(32 * count).to_bytes(size, "little")
    return np.frombuffer(words, dtype="<u4").reshape(len(streams), count)
