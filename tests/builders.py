"""S-box builders shared by the tests.

Unlike `oracles.py`, which imports nothing from the package, these build
package objects.
"""

import random

from sboxtraj import SBox
from sboxtraj.rng import derive_seed


def identity_sbox(n: int) -> SBox:
    """The n-bit identity permutation."""
    return SBox(n, n, tuple(range(1 << n)))


def constant_sbox(n: int, m: int, value: int = 0) -> SBox:
    """The S-box mapping every input to `value`."""
    return SBox(n, m, (value,) * (1 << n))


def bijection_and_draws(n: int, master_seed: int, path: tuple[int, ...] = ()):
    """`random_bijective_sbox(n, RngStream(master_seed, path))` and the
    `random.Random` that stream goes on drawing from, for tests that draw
    positions after the S-box."""
    rnd = random.Random(derive_seed(master_seed, path))
    table = list(range(1 << n))
    rnd.shuffle(table)
    return SBox(n, n, tuple(table)), rnd
