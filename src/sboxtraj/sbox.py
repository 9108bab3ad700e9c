"""S-box representation, validation, text format, and seeded generators.

An S-box is a lookup table for a vectorial boolean function from n input bits
to m output bits.  Everything else in the package (metrics, search,
experiments) consumes the :class:`SBox` type defined here.
"""

import functools
import numbers
import platform
import re
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .rng import RngStream

# Largest input and output width an SBox accepts.
MAX_WIDTH = 16

# Entries per line written by serialize_sbox.
_PER_LINE = 16

# hw_class_shuffle: the words of each lane that one vectorised draw step
# looks at, and the words drawn per lane and remaining step when a block is
# drawn.  A draw below b takes 2^k / b words on average (k = b.bit_length()),
# about 2 ln 2 = 1.39 over a class, so a second block is rare.
_WINDOW = 8
_WORDS_PER_STEP = 1.5


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


@dataclass(frozen=True, eq=False)
class SBox:
    """An n-to-m-bit substitution box held as a flat table of 2^n outputs.

    `table` is a read-only np.uint16 array; S-boxes with equal widths and
    tables are equal.  Immutable: all operations return new instances.
    Component i of the output is bit i (least-significant bit first).
    """

    n: int
    m: int
    table: np.ndarray

    def __post_init__(self):
        if not 2 <= self.n <= MAX_WIDTH:
            raise SBoxError(f"input width n={self.n} outside supported range 2..{MAX_WIDTH}")
        if not 1 <= self.m <= MAX_WIDTH:
            raise SBoxError(f"output width m={self.m} outside supported range 1..{MAX_WIDTH}")
        table = np.asarray(self.table)
        if table.size and table.dtype.kind not in "biu":
            # numpy holds Python integers past int64 as float64 or objects.
            table = np.asarray(self.table, dtype=object)
            try:
                integral = all(isinstance(v, numbers.Integral) for v in (table.min(), table.max()))
            except TypeError:  # entries that do not compare, such as None
                integral = False
            if not integral:
                raise SBoxError("table entries must be integers")
        if table.shape != (self.size,):
            raise WrongLengthError(f"n={self.n} takes {self.size} entries, got {table.shape}")
        limit = 1 << self.m
        if table.min() < 0 or table.max() >= limit:
            x = int(np.argmax((table < 0) | (table >= limit)))
            raise ValueOutOfRangeError(f"table[{x}] = {table[x]} does not fit in m={self.m} bits")
        if table.dtype == object:  # floats between integers, or mixed numpy integers
            raise SBoxError("table entries must be integers")
        table = table.astype(np.uint16)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __eq__(self, other):
        same_widths = isinstance(other, SBox) and (self.n, self.m) == (other.n, other.m)
        return same_widths and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.n, self.m, self.table.tobytes()))

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
    return SBox(n, m, values)


def serialize_sbox(sbox: SBox) -> str:
    """Render an S-box in the text format accepted by parse_sbox (decimal)."""
    rows = sbox.table.reshape(-1, min(_PER_LINE, sbox.size)).tolist()
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def random_bijective_sbox(n: int, rng: RngStream) -> SBox:
    """A uniformly random n-bit permutation (unbiased Fisher-Yates)."""
    if not 2 <= n <= MAX_WIDTH:
        raise SBoxError(f"input width n={n} outside supported range 2..{MAX_WIDTH}")
    table = list(range(1 << n))
    rng.shuffle(table)
    return SBox(n, n, table)


def swap_outputs(sbox: SBox, i: int, j: int) -> SBox:
    """A copy of `sbox` with the outputs at positions i and j exchanged."""
    size = sbox.size
    if not (0 <= i < size and 0 <= j < size):
        raise IndexOutOfRangeError(f"positions ({i}, {j}) outside [0, {size})")
    if i == j:
        raise IndexOutOfRangeError("swap positions must differ")
    table = sbox.table.copy()
    table[[i, j]] = table[[j, i]]
    return SBox(sbox.n, sbox.m, table)


@functools.cache
def _check_shuffle_replay() -> None:
    """Raise RuntimeError unless a fixed four-lane class shuffle equals, lane
    by lane, random.shuffle on the same streams.

    The sampler replays CPython's _randbelow and getrandbits packing, which
    no interpreter promises to keep; a version that changes them would give
    different samples without this check, which hw_class_shuffle runs once
    per process.
    """
    sbox = SBox(5, 5, np.arange(32))
    replayed = _shuffle_classes([sbox] * 4, [RngStream(0, (lane,)) for lane in range(4)])
    weights = np.bitwise_count(sbox.table)
    for lane, out in enumerate(replayed):
        rng = RngStream(0, (lane,))
        expected = sbox.table.copy()
        for w in range(sbox.m + 1):
            positions = np.flatnonzero(weights == w)
            values = expected[positions].tolist()
            rng.shuffle(values)
            expected[positions] = values
        if not np.array_equal(out.table, expected):
            raise RuntimeError(
                f"hw_class_shuffle's replay of random.shuffle does not hold on "
                f"Python {platform.python_version()}"
            )


def hw_class_shuffle(sboxes: list[SBox], rngs: list[RngStream]) -> list[SBox]:
    """Re-permute each S-box's outputs uniformly within its Hamming-weight classes.

    Result k satisfies HW(F'(x)) = HW(F(x)) for every x, F = sboxes[k], so
    its confusion-coefficient profile (and CCV) is exactly that of F, and
    bijectivity is preserved.  It is the table that one rngs[k].shuffle of
    the outputs of each non-empty class of F would give, in ascending weight
    and, within a class, in ascending position; it may coincide with F.

    Every lane (S-box and its stream) is shuffled at once, so all S-boxes
    must have the same class sizes, as every bijection of one width has;
    otherwise ValueError.  Step i = size-1 .. 1 of a class shuffle swaps
    position i with _randbelow(i + 1), the first unused word w of the stream
    with w >> (32 - k) < i + 1, k = (i + 1).bit_length(): the draws of
    random.shuffle, replayed from RngStream.words.  The streams are drawn
    in blocks, so each is left advanced past the words its shuffles used.
    The first call in a process checks the replay against random.shuffle
    and raises RuntimeError if this interpreter draws differently.
    """
    _check_shuffle_replay()
    return _shuffle_classes(sboxes, rngs)


def _shuffle_classes(sboxes: list[SBox], rngs: list[RngStream]) -> list[SBox]:
    """hw_class_shuffle without the one-time check of its replay."""
    if len(sboxes) != len(rngs):
        raise ValueError(f"{len(sboxes)} S-boxes but {len(rngs)} streams")
    if not sboxes:
        return []
    if len({sbox.n for sbox in sboxes}) > 1:
        raise ValueError("the S-boxes must have the same class sizes")
    tables = np.stack([sbox.table for sbox in sboxes])
    # Positions by weight, ascending within a weight: every class is one run
    # of columns of the sorted table.
    weights = np.bitwise_count(tables)
    order = np.argsort(weights, axis=1, kind="stable")
    breaks = np.diff(np.take_along_axis(weights, order, axis=1), axis=1) != 0
    if (breaks != breaks[0]).any():
        raise ValueError("the S-boxes must have the same class sizes")
    bounds = [0, *(np.flatnonzero(breaks[0]) + 1).tolist(), tables.shape[1]]
    # Every Fisher-Yates step in draw order: (column, class start, bound).
    steps = [
        (a + i, a, i + 1) for a, e in zip(bounds, bounds[1:]) for i in range(e - a - 1, 0, -1)
    ]

    # Row t holds column t of each lane's sorted table; column j of lane l is
    # at flat index j * L + l.
    values = np.take_along_axis(tables, order, axis=1).T.copy()
    flat = values.ravel()
    lanes = np.arange(len(sboxes))

    def more_words(words, done):
        block = int((len(steps) - done) * _WORDS_PER_STEP) + _WINDOW
        drawn = words.shape[1]
        grown = np.empty((len(rngs), drawn + block), dtype=np.uint32)
        grown[:, :drawn] = words
        for lane, rng in enumerate(rngs):
            grown[lane, drawn:] = rng.words(block)
        return grown, sliding_window_view(grown, _WINDOW, axis=1)

    words, windows = more_words(np.empty((len(sboxes), 0), dtype=np.uint32), 0)
    ptr = np.zeros(len(sboxes), dtype=np.int64)  # each lane's next unused word
    for done, (t, a, b) in enumerate(steps):
        try:
            window = windows[lanes, ptr]
        except IndexError:  # a look-ahead runs past the words drawn
            words, windows = more_words(words, done)
            window = windows[lanes, ptr]
        # w >> shift < b, the test of _randbelow(b), is w < b << shift.
        shift = 32 - b.bit_length()
        limit = b << shift
        first = (window < limit).argmax(axis=1)
        w = window[lanes, first]
        ptr += first
        ptr += 1
        if w.max() >= limit:
            for lane in np.flatnonzero(w >= limit):
                # No word of the look-ahead was accepted: scan on past it.
                p = int(ptr[lane]) + _WINDOW - 1
                while True:
                    if p == words.shape[1]:
                        words, windows = more_words(words, done)
                    if words[lane, p] < limit:
                        break
                    p += 1
                w[lane], ptr[lane] = words[lane, p], p + 1
        j = ((w >> shift) + a) * len(lanes) + lanes
        held = values[t].copy()
        values[t] = flat[j]
        flat[j] = held

    # Each lane's outputs back at their positions, over its input table.
    np.put_along_axis(tables, order, values.T, axis=1)
    return [SBox(sbox.n, sbox.m, table) for sbox, table in zip(sboxes, tables)]
