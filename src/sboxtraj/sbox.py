"""S-box representation, validation, text format, and seeded generators.

An S-box is a lookup table for a vectorial boolean function from n input bits
to m output bits.  Everything else in the package (metrics, search,
experiments) consumes the :class:`SBox` type defined here.
"""

import operator
import re
from dataclasses import dataclass

from .rng import RngStream

# Largest input and output width an SBox accepts.
MAX_WIDTH = 16

# Entries per line written by serialize_sbox.
_PER_LINE = 16


class SBoxError(ValueError):
    """Base class for S-box validation and parsing failures."""


class WrongLengthError(SBoxError):
    """Table length is not 2^n."""


class ValueOutOfRangeError(SBoxError):
    """A table entry does not fit in m bits."""


class MalformedTokenError(SBoxError):
    """A token is neither a decimal nor a 0x-prefixed hex integer."""


class IndexOutOfRangeError(SBoxError):
    """A position argument is outside the S-box domain."""


@dataclass(frozen=True)
class SBox:
    """An n-to-m-bit substitution box held as a flat table of 2^n outputs.

    Immutable after construction; all operations return new instances.
    Component i of the output is bit i (least-significant bit first).
    """

    n: int
    m: int
    table: tuple[int, ...]

    def __post_init__(self):
        if not 2 <= self.n <= MAX_WIDTH:
            raise SBoxError(f"input width n={self.n} outside supported range 2..{MAX_WIDTH}")
        if not 1 <= self.m <= MAX_WIDTH:
            raise SBoxError(f"output width m={self.m} outside supported range 1..{MAX_WIDTH}")
        # operator.index accepts Python and numpy integers and rejects
        # floats and strings instead of truncating or parsing them.
        try:
            table = tuple(map(operator.index, self.table))
        except TypeError as exc:
            raise SBoxError(f"table entries must be integers: {exc}") from None
        object.__setattr__(self, "table", table)
        size = 1 << self.n
        if len(self.table) != size:
            raise WrongLengthError(
                f"expected {size} entries for n={self.n}, got {len(self.table)}"
            )
        limit = 1 << self.m
        for x, v in enumerate(self.table):
            if not 0 <= v < limit:
                raise ValueOutOfRangeError(
                    f"entry {v} at position {x} does not fit in m={self.m} bits"
                )

    @property
    def size(self) -> int:
        return 1 << self.n


_TOKEN_SPLIT = re.compile(r"[\s,]+")
# ASCII digits only: int() would also take signs, underscores and non-ASCII
# digits.
_TOKEN = re.compile(r"[0-9]+|0[xX][0-9a-fA-F]+")


def parse_sbox(text: str, n: int, m: int) -> SBox:
    """Parse an S-box from whitespace/comma separated integers.

    Tokens may be decimal or 0x-prefixed hexadecimal, row-major.  The widths
    n and m are supplied externally (they are not encoded in the file);
    `SBox` checks them before the number of entries.
    """
    values = []
    for token in _TOKEN_SPLIT.split(text.strip()):
        if not token:
            continue
        if not _TOKEN.fullmatch(token):
            raise MalformedTokenError(f"cannot parse token {token!r}")
        try:
            values.append(int(token, 16) if token[:2] in ("0x", "0X") else int(token))
        except ValueError:  # more decimal digits than int() converts
            raise MalformedTokenError(f"token of {len(token)} digits is too long") from None
    return SBox(n, m, tuple(values))


def serialize_sbox(sbox: SBox) -> str:
    """Render an S-box in the text format accepted by parse_sbox (decimal)."""
    lines = []
    for start in range(0, sbox.size, _PER_LINE):
        lines.append(" ".join(str(v) for v in sbox.table[start : start + _PER_LINE]))
    return "\n".join(lines) + "\n"


def random_bijective_sbox(n: int, rng: RngStream) -> SBox:
    """A uniformly random n-bit permutation (unbiased Fisher-Yates)."""
    if not 2 <= n <= MAX_WIDTH:
        raise SBoxError(f"input width n={n} outside supported range 2..{MAX_WIDTH}")
    table = list(range(1 << n))
    rng.shuffle(table)
    return SBox(n, n, tuple(table))


def swap_outputs(sbox: SBox, i: int, j: int) -> SBox:
    """A copy of `sbox` with the outputs at positions i and j exchanged."""
    size = sbox.size
    if not (0 <= i < size and 0 <= j < size):
        raise IndexOutOfRangeError(f"positions ({i}, {j}) outside [0, {size})")
    if i == j:
        raise IndexOutOfRangeError("swap positions must differ")
    table = list(sbox.table)
    table[i], table[j] = table[j], table[i]
    return SBox(sbox.n, sbox.m, tuple(table))


def hw_class_shuffle(sbox: SBox, rng: RngStream) -> SBox:
    """Re-permute outputs uniformly within each Hamming-weight class.

    The result F' satisfies HW(F'(x)) = HW(F(x)) for every x, so its
    confusion-coefficient profile (and CCV) is exactly that of `sbox`.
    Bijectivity is preserved.  The draws are one rng.shuffle of the outputs
    of each non-empty class, in ascending weight and, within a class, in
    ascending position; the result may coincide with the input table.
    """
    classes: list[list[int]] = [[] for _ in range(sbox.m + 1)]
    for x, v in enumerate(sbox.table):
        classes[v.bit_count()].append(x)
    table = list(sbox.table)
    for positions in filter(None, classes):
        values = [table[x] for x in positions]
        rng.shuffle(values)
        for x, v in zip(positions, values):
            table[x] = v
    return SBox(sbox.n, sbox.m, tuple(table))
