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


def _mix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche mix."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, path: tuple[int, ...]) -> int:
    """Mix a master seed and a derivation path into a single 64-bit child seed.

    The mixer is ``s = mix64(master)`` followed, for each path index ``e``, by
    ``s = mix64(s + GOLDEN * (e + 1))`` with GOLDEN = 0x9E3779B97F4A7C15.  This
    scheme is frozen (see SEED_MIXER_ID); changing it would silently change
    every seeded result, so treat it as part of the file-format contract.
    """
    s = _mix64(int(master_seed) & _MASK64)
    for e in path:
        s = _mix64((s + _GOLDEN * (int(e) + 1)) & _MASK64)
    return s


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
        self.path = tuple(int(p) for p in path)

    @functools.cached_property
    def _rng(self) -> random.Random:
        return random.Random(derive_seed(self.master_seed, self.path))

    def child(self, *indices: int) -> "RngStream":
        """The stream addressed by this stream's path extended with `indices`."""
        return RngStream(self.master_seed, self.path + indices)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def words(self, count: int) -> np.ndarray:
        """The next `count` 32-bit Mersenne Twister outputs, in draw order.

        They come from one getrandbits(32 * count), which packs the outputs
        least-significant first; each is the word a draw of at most 32 bits
        would shift down, so draws can be replayed from them.
        """
        bits = self._rng.getrandbits(32 * count)
        return np.frombuffer(bits.to_bytes(4 * count, "little"), dtype="<u4")
