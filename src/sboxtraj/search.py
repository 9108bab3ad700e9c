"""LS-HWF: first-improvement swap hill climber over S-box space maximizing CCV.

The climber starts from a uniformly random bijective S-box and repeatedly
scans all position pairs (i, j), j > i, in lexicographic order.  A pair is a
candidate only when the outputs at i and j have different Hamming weights
(equal-weight swaps provably leave CCV unchanged).  A candidate is accepted
in place as soon as its exact integer CCV key strictly exceeds the
incumbent's, and the scan continues from the following pair; the search stops
after a full pass without any acceptance, i.e. at a local maximum.

Closed-form swap gain.  Let h be the Hamming-weight table, S the CCV profile
(S[0] = 0), G = h * S the XOR-convolution G[x] = sum_d h(x^d) S[d], and for a
swap (i, j) let delta = h[j] - h[i] and e = i^j.  The swap leaves sum(S)
unchanged, because sum_d S[d] depends only on the multiset of weights, so it
raises the key N sum(S^2) - sum(S)^2 iff it raises sum(S^2), by
gain = 8 g8 with

    g8 = delta (delta (3 S[e] - 4 delta^2) + G[j] - G[i]).

An equal-weight pair has g8 = 0.  The scan forms g8, which has the sign of the
gain, in place in one temporary, and multiplies by 8 only the accepted one.

Block scan.  Rows i..i+r-1 are scored against the columns j_next..2^n-1 in
one vector expression, O(1) per candidate, with delta set to 0 wherever
j <= row.  Row-major order is lexicographic order, so the block's first
positive entry is the first improving pair and the climb is the row-by-row
one; evaluations counts the block's weight-differing entries up to it.  A
block that accepts nothing doubles r for the next one, an acceptance resets
r to 1 and the scan goes on from (i, j + 1), so a block of more than one
row starts at the head of a row.  r is capped at `sbox.rows_within(32 2^n)`,
32 bytes per entry as for four int64 temporaries, so at 2^13 entries, 64 KB
per temporary (the fastest of 2^11-2^15 at n = 9 and 10), and cut at the
last row.  Most rows of a late pass accept nothing and go by in a few blocks.

Swap update.  Accepting (i, j) changes S by dS[d] = 4 delta (h(j^d) - h(i^d)),
with dS[0] = dS[e] = 0.  With dH[x] = 4 delta (h[x^e] - h[x]), dS[d] is
dH[d^i] and dS[x^i] - dS[x^j] = 2 dH[x] for x not in {i, j}, so G changes by

    3 delta (S[x^i] - S[x^j] + dH[x]),  minus 8 delta^3 at i, plus 8 delta^3 at j,

with h and S taken before the swap: O(2^n) per accepted swap, three gathers
and no transform.  G is built once per search, as the inverse transform
`metrics._correlate` of the product of the spectra of h and S.

Bounds.  The search takes n = 2..MAX_SEARCH_WIDTH.  With h <= n and
S <= n^2 2^n, G <= n^3 4^n and a gain is below
8 n^4 4^n + 24 n^4 2^n + 32 n^4, both in int64; `check_search_width` checks
both before any work.  Every partial result of g8 is at most an eighth of
the gain bound, and dH and the G update are at most 4 n^2 and
3 n^3 2^n + 20 n^3, so the gain bound covers them too.  G's transforms take
the int64 h and S, so they run in float64, and `_convolve` turns G back to
int64.  Its one-off inverse transform `_correlate` has sum |W_h W_S| <=
n^3 8^n (Cauchy-Schwarz), 2^46.8 at n = 12, below the 2^53 up to which the
float64 kernel is exact and which the kernel checks itself; the division by
2^n is exact.

Events record (i, j) and the `CcvKey` after the swap, whose key and CCV are
formed in `metrics.CcvKey` from the exact sums; the climb only advances
sum(S^2) by each accepted gain.  Replaying the swaps from `initial` gives
each incumbent, so the search builds no S-box per climb.
"""

from dataclasses import dataclass

import numpy as np

from .metrics import CcvKey, _correlate, _fwht_rows, ccv_key_from_profile, kappa_profile
from .rng import RngStream
from .sbox import SBox, SBoxError, random_bijective_sbox, rows_within

# Largest input width the search takes.
MAX_SEARCH_WIDTH = 12


@dataclass(frozen=True)
class ClimbEvent:
    """One accepted improving swap.  climb_index is 1-based within a run."""

    climb_index: int
    i: int
    j: int
    ccv_key_after: CcvKey


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one LS-HWF run.

    `final` equals `initial` with the event swaps applied in order and admits
    no single weight-differing swap that strictly increases the CCV key.
    evaluations counts candidate CCV evaluations: in each scan, the
    weight-differing pairs up to and including the accepted one, or all of
    them if none is accepted.  passes counts full scans.
    """

    initial: SBox
    final: SBox
    events: tuple[ClimbEvent, ...]
    evaluations: int
    passes: int


def _int64_bounds(n: int) -> tuple[int, ...]:
    """Worst-case magnitudes of G and of a gain at width n."""
    return (n**3 * 4**n, 8 * n**4 * 4**n + 24 * n**4 * 2**n + 32 * n**4)


def check_search_width(n: int) -> None:
    """Raise SBoxError unless n is in 2..MAX_SEARCH_WIDTH and every int64
    bound holds at n; the range comes first, so no bound is evaluated at a
    huge n."""
    if not 2 <= n <= MAX_SEARCH_WIDTH or not all(bound < 2**63 for bound in _int64_bounds(n)):
        raise SBoxError(f"search supports n in 2..{MAX_SEARCH_WIDTH}, got {n}")


def _convolve(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """G[x] = sum_d h(x^d) s[d], exactly, as int64."""
    spectra = _fwht_rows(np.stack((h, s)))
    return _correlate(spectra[0] * spectra[1]).astype(np.int64)


def _gains(h, s, g, positions, i: int, rows: int, j_next: int) -> tuple[np.ndarray, np.ndarray]:
    """(delta, gain / 8) of swapping each row i..i+rows-1, cut at row 2^n-2,
    with each column j_next..2^n-1, for int64 arrays h, S, G and arange
    `positions`.  Entries with j <= row get delta 0 and so gain 0; a block of
    more than one row must start at j_next = i + 1."""
    rows = min(rows, h.size - 1 - i)
    delta = h[j_next:] - h[i : i + rows, None]
    if rows > 1:
        delta[:, :rows] *= positions[:rows] >= positions[:rows, None]
    eighth = 3 * s[positions[j_next:] ^ positions[i : i + rows, None]] - 4 * delta * delta
    eighth *= delta
    eighth += g[j_next:] - g[i : i + rows, None]
    eighth *= delta
    return delta, eighth


def _swap(h, s, g, positions, i: int, j: int) -> None:
    """Apply the swap (i, j) to h, S and G in place, in O(2^n)."""
    delta = int(h[j] - h[i])
    at_i, at_j = positions ^ i, positions ^ j
    dh = 4 * delta * (h[positions ^ (i ^ j)] - h)
    g += 3 * delta * (dh + s[at_i] - s[at_j])
    g[i], g[j] = g[i] - 8 * delta**3, g[j] + 8 * delta**3
    ds = dh[at_i]
    ds[0] = ds[i ^ j] = 0
    s += ds
    h[i], h[j] = h[j], h[i]


def ls_hwf(n: int, rng: RngStream) -> SearchResult:
    """Run the hill climber on the n-bit bijective S-box space."""
    check_search_width(n)
    initial = random_bijective_sbox(n, rng)
    size = 1 << n

    table = initial.table.copy()
    h = np.bitwise_count(table).astype(np.int64)
    s = kappa_profile(initial).copy()
    g = _convolve(h, s)
    key = ccv_key_from_profile(s)
    positions = np.arange(size)
    most_rows = rows_within(32 << n)

    events: list[ClimbEvent] = []
    evaluations, passes, climbs = 0, 0, -1
    while climbs < len(events):  # until a pass accepts nothing
        climbs = len(events)
        passes += 1
        i, j_next, rows = 0, 1, 1
        while i < size - 1:
            delta, eighth = _gains(h, s, g, positions, i, rows, j_next)
            first = int((eighth > 0).argmax())
            g8 = int(eighth.flat[first])
            scanned = first + 1 if g8 > 0 else eighth.size
            evaluations += int(np.count_nonzero(delta.ravel()[:scanned]))
            del delta, eighth  # before the swap's and the next block's temporaries
            if g8 <= 0:
                i, j_next, rows = i + rows, i + rows + 1, min(2 * rows, most_rows)
                continue
            row, column = divmod(first, size - j_next)
            i, j = i + row, j_next + column
            _swap(h, s, g, positions, i, j)
            table[i], table[j] = table[j], table[i]
            key = CcvKey(n, key.sum_s, key.sum_s2 + 8 * g8)
            events.append(ClimbEvent(len(events) + 1, i, j, key))
            i, j_next, rows = (i, j + 1, 1) if j + 1 < size else (i + 1, i + 2, 1)

    return SearchResult(initial, SBox(n, n, table), tuple(events), evaluations, passes)
