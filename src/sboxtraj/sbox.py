"""S-box representation, validation, text format, and seeded generators.

An S-box is a lookup table for a vectorial boolean function from n input bits
to m output bits.  Everything else in the package (metrics, search,
experiments) consumes the :class:`SBox` type defined here.
"""

import functools
import itertools
import math
import numbers
import platform
import re
from dataclasses import dataclass

import numpy as np

from .rng import RngStream, first_words

# Largest input and output width an SBox accepts.
MAX_WIDTH = 16

# Entries per line written by serialize_sbox.
_PER_LINE = 16

# hw_class_shuffle: the words drawn per lane beyond the mean its draws take,
# in standard deviations.  A draw below b takes 2^k / b words on average (k
# = b.bit_length()), with variance (2^k - b) 2^k / b^2; a lane that runs
# short is drawn again, longer.
_HEADROOM = 6
# The words whose accepted ones one np.compress call picks out, which bounds
# the index array it makes.
_PICK_WORDS = 1 << 14
# The bytes that shuffle_lanes sizes a hw_class_shuffle call to, and the
# bytes a lane of an n-bit S-box takes at most: _LANE_BYTES[0] per output
# (tracemalloc peaks of a call: 13 for lanes that share an S-box five by
# five, 17 for distinct ones, at n = 8 and 12) plus _LANE_BYTES[1] for the
# lane's stream and result.  3 MiB is 512 lanes at n = 8, and keeps an
# experiment's peak RSS at what 256-lane calls gave.
_CALL_BYTES = 3 << 20
_LANE_BYTES = (20, 1024)


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

    @classmethod
    def _valid(cls, n: int, m: int, table: np.ndarray) -> "SBox":
        """An SBox of a read-only uint16 table known to be valid for (n, m),
        without checking it again."""
        sbox = object.__new__(cls)
        sbox.__dict__.update(n=n, m=m, table=table)
        return sbox

    def __eq__(self, other):
        same_widths = isinstance(other, SBox) and (self.n, self.m) == (other.n, other.m)
        return same_widths and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash((self.n, self.m, self.table.tobytes()))

    @property
    def size(self) -> int:
        return 1 << self.n


# ASCII digits only: int() would also take signs, underscores and non-ASCII
# digits.
_TOKEN = re.compile(r"[0-9]+|0[xX][0-9a-fA-F]+")
# A whole text of such tokens, separated by whitespace and commas.
_TEXT = re.compile(rf"[\s,]*(?:(?:{_TOKEN.pattern})(?:[\s,]+|\Z))*")


def parse_sbox(text: str, n: int, m: int) -> SBox:
    """Parse an S-box from whitespace/comma separated integers.

    Tokens may be decimal or 0x-prefixed hexadecimal, row-major.  The widths
    n and m are supplied externally (they are not encoded in the file);
    `SBox` checks them before the number of entries.  The text is checked
    in one match; only a text that fails it, or a token that int(token, 0)
    does not read (a decimal with leading zeros, or too many digits), is
    read token by token, which names the first bad token.
    """
    tokens = text.replace(",", " ").split()
    try:
        if not _TEXT.fullmatch(text):
            raise ValueError
        values = list(map(int, tokens, itertools.repeat(0)))
    except ValueError:
        values = list(map(_parse_token, tokens))
    return SBox(n, m, values)


def _parse_token(token: str) -> int:
    if not _TOKEN.fullmatch(token):
        raise MalformedTokenError(f"cannot parse token {token!r}")
    try:
        return int(token, 16) if token[:2] in ("0x", "0X") else int(token)
    except ValueError:  # more decimal digits than int() converts
        raise MalformedTokenError(f"token of {len(token)} digits is too long") from None


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
    bijectivity is preserved.  It is the table that one shuffle of the
    outputs of each non-empty class of F, in ascending weight and, within a
    class, in ascending position, would give on a fresh stream at rngs[k]'s
    path; it may coincide with F.  The streams are neither seeded nor
    advanced: a lane draws from the start of its stream, whatever the
    stream drew before.

    Every lane (S-box and its stream) is shuffled at once, so all S-boxes
    must have the same class sizes, as every bijection of one width has;
    otherwise ValueError.  Step i = size-1 .. 1 of a class shuffle swaps
    position i with _randbelow(i + 1), the first unused word w of the stream
    with w >> (32 - k) < i + 1, k = (i + 1).bit_length(): the draws of
    random.shuffle, replayed from rng.first_words.  A draw phase scans the
    words of all lanes one word at a time and records every lane's draws; a
    swap phase then makes step i of every class at once, as classes cover
    disjoint positions.  A call holds about _LANE_BYTES per lane, so callers
    size calls with shuffle_lanes.  The first call in a process checks the
    replay against random.shuffle and raises RuntimeError if this
    interpreter draws differently.
    """
    _check_shuffle_replay()
    return _shuffle_classes(sboxes, rngs)


def shuffle_lanes(n: int) -> int:
    """The lanes of n-bit S-boxes that one hw_class_shuffle call takes
    within _CALL_BYTES of working arrays, at least one."""
    per_output, per_lane = _LANE_BYTES
    return max(1, _CALL_BYTES // ((per_output << n) + per_lane))


def _shuffle_classes(sboxes: list[SBox], rngs: list[RngStream]) -> list[SBox]:
    """hw_class_shuffle without the one-time check of its replay."""
    if len(sboxes) != len(rngs):
        raise ValueError(f"{len(sboxes)} S-boxes but {len(rngs)} streams")
    if not sboxes:
        return []
    if len({sbox.n for sbox in sboxes}) > 1:
        raise ValueError("the S-boxes must have the same class sizes")
    # Lanes that share an S-box share its row of the distinct tables.
    distinct = {id(sbox): sbox for sbox in sboxes}
    row_of = {key: row for row, key in enumerate(distinct)}
    rows = np.array([row_of[id(sbox)] for sbox in sboxes])
    tables = np.stack([sbox.table for sbox in distinct.values()])
    order, starts, sizes = _classes(tables)

    # Draw phase: each lane's draw below the bound i + 1 of every step i =
    # size-1 .. 1 of every class, in draw order.
    steps = [b for size in sizes.tolist() for b in range(size, 1, -1)]
    draws = _draws(steps, rngs)

    # Swap phase.  Row c holds column c of each lane's sorted table: column
    # c of lane l is at flat index c * L + l.  A step swaps its column with
    # its draw plus its class start.  Classes cover disjoint columns, so step
    # i of every class of more than i outputs is one swap: with the classes
    # by size, the first lives[i], at columns[i], drawn in step_rows[i].
    lanes = np.arange(len(sboxes))
    values = np.take(np.take_along_axis(tables, order, axis=1).T, rows, axis=1)
    flat = values.ravel()
    draws += np.repeat(starts, sizes - 1).astype(np.uint16)[:, None]
    by_size = np.argsort(-sizes, kind="stable")
    offsets = np.arange(sizes.max())[:, None]
    columns = starts[by_size] + offsets
    step_rows = np.cumsum(sizes - 1)[by_size] - offsets  # step i of a class: row end - i
    lives = np.count_nonzero(sizes > offsets, axis=1).tolist()
    for i in range(len(lives) - 1, 0, -1):
        t = columns[i, : lives[i]]
        j = np.multiply(draws[step_rows[i, : lives[i]]], len(lanes), dtype=np.intp)
        j += lanes
        held = values[t]
        values[t] = flat[j]
        flat[j] = held

    # Each lane's outputs back at their positions: position x of lane l is
    # column inverse[x] of its sorted table, one run of lanes of one S-box
    # at a time.
    inverse = np.empty_like(order)
    np.put_along_axis(inverse, order, np.arange(tables.shape[1], dtype=np.uint16), axis=1)
    out = np.empty((len(sboxes), tables.shape[1]), dtype=np.uint16)
    runs = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), len(sboxes)]
    for lo, hi in zip(runs, runs[1:]):
        out[lo:hi] = values[inverse[rows[lo]], lo:hi].T
    out.flags.writeable = False
    return [SBox._valid(sbox.n, sbox.m, table) for sbox, table in zip(sboxes, out)]


def _classes(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each table's positions by the weight of their outputs, ascending
    within a weight, as a uint16 array, and the start and size of every
    class (one run of those columns); ValueError unless the tables have the
    same class sizes."""
    weights = np.bitwise_count(tables)
    order = np.argsort(weights, axis=1, kind="stable").astype(np.uint16)
    breaks = np.diff(np.take_along_axis(weights, order, axis=1), axis=1) != 0
    if (breaks != breaks[0]).any():
        raise ValueError("the S-boxes must have the same class sizes")
    bounds = np.array([0, *(np.flatnonzero(breaks[0]) + 1), tables.shape[1]])
    return order, bounds[:-1], np.diff(bounds)


def _draws(steps: list[int], rngs: list[RngStream], count: int | None = None) -> np.ndarray:
    """Each lane's draw below each bound of `steps`, as random.Random's
    _randbelow gives them in turn: a (steps, lanes) uint16 array.

    A draw below b is the first unused word w with w < b << (32 - k), k =
    b.bit_length(), shifted down by 32 - k.  The first `count` words of
    every lane (by default the mean its draws take, plus _HEADROOM standard
    deviations) are scanned word by word, all lanes at once; a lane that
    runs short is drawn again, twice as long.
    """
    bounds = np.array(steps, dtype=np.uint32)
    shifts = np.array([32 - b.bit_length() for b in steps], dtype=np.uint32)
    # limits[s] = b << shift; a lane past its last step accepts no word.
    limits = np.zeros(len(steps) + 1, dtype=np.uint32)
    limits[:-1] = bounds << shifts
    if count is None:
        accept = bounds / 2.0 ** (32 - shifts)  # each word's chance, b / 2^k
        mean, var = np.sum(1 / accept), np.sum((1 - accept) / accept**2)
        count = max(1, len(steps), math.ceil(mean + _HEADROOM * math.sqrt(var)))
    words = first_words(rngs, count)
    accepted = np.empty((count, len(rngs)), dtype=bool)
    step = np.zeros(len(rngs), dtype=np.intp)  # each lane's next step
    for column, taken in zip(words.T, accepted):
        np.less(column, limits[step], out=taken)
        step += taken
    short = step < len(steps)
    # Exactly len(steps) words per lane: a short lane takes its first words,
    # and its draws are replaced below.
    accepted[:, short] = np.arange(count)[:, None] < len(steps)
    draws = np.empty((len(steps), len(rngs)), dtype=np.uint16)
    block = max(1, _PICK_WORDS // count)  # lanes per np.compress
    for lo in range(0, len(rngs), block):
        lane_words = words[lo : lo + block]
        kept = np.compress(accepted[:, lo : lo + block].T.ravel(), lane_words)
        draws[:, lo : lo + block] = (kept.reshape(len(lane_words), len(steps)) >> shifts).T
    if short.any():
        again = np.flatnonzero(short)
        draws[:, again] = _draws(steps, [rngs[k] for k in again], 2 * count)
    return draws
