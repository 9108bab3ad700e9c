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

    gain = 24 delta^2 S[e] - 32 delta^4 + 8 delta (G[j] - G[i]).

A row i of candidates is one vector expression, O(1) per candidate, and an
equal-weight pair has gain 0.  Accepting (i, j) changes S by
dS[d] = 4 delta (h(j^d) - h(i^d)), with dS[0] = dS[e] = 0, and G by

    3 delta (S[x^i] - S[x^j]) - 4 delta^2 (h[x] - h[x^e]) + delta (dS[x^i] - dS[x^j])

with h and S taken before the swap: O(2^n) per accepted swap, no transform.
G is built once per search, as the inverse transform `metrics._correlate` of
the product of the spectra of h and S.

Bounds.  The search takes n = 2..MAX_SEARCH_WIDTH.  With h <= n and
S <= n^2 2^n, G <= n^3 4^n and a gain is below
8 n^4 4^n + 24 n^4 2^n + 32 n^4, both in int64; `check_search_width` checks
both before any work.  The one-off inverse transform of G has
sum |W_h W_S| <= n^3 8^n (Cauchy-Schwarz), 2^46.8 at n = 12, below the 2^53
up to which the float64 kernel is exact and which the kernel checks itself.

Events record (i, j) and the `CcvKey` after the swap, whose key and CCV are
formed in `metrics.CcvKey` from the exact sums; the climb only advances
sum(S^2) by each accepted gain.  Replaying the swaps from `initial` gives
each incumbent, so the search builds no S-box per climb.
"""

from dataclasses import dataclass

import numpy as np

from .metrics import CcvKey, _correlate, _fwht_rows, ccv_key_from_profile, kappa_profile
from .rng import RngStream
from .sbox import SBox, SBoxError, random_bijective_sbox

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
    evaluations counts candidate CCV evaluations; passes counts full scans.
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
    """G[x] = sum_d h(x^d) s[d], exactly."""
    spectra = _fwht_rows(np.stack((h, s)))
    return _correlate(spectra[0] * spectra[1])


def _gains(h: np.ndarray, s: np.ndarray, g: np.ndarray, i: int, js: np.ndarray) -> np.ndarray:
    """Change of sum(S^2) for swapping i with each j in js (0 at equal weights)."""
    delta = h[js] - h[i]
    return 8 * delta * (3 * delta * s[i ^ js] - 4 * delta**3 + g[js] - g[i])


def _swap(h: np.ndarray, s: np.ndarray, g: np.ndarray, i: int, j: int) -> None:
    """Apply the swap (i, j) to h, S and G in place, in O(2^n)."""
    x = np.arange(h.size)
    delta = int(h[j] - h[i])
    ds = 4 * delta * (h[j ^ x] - h[i ^ x])
    ds[0] = ds[i ^ j] = 0
    g += 3 * delta * (s[x ^ i] - s[x ^ j]) - 4 * delta * delta * (h - h[x ^ i ^ j])
    g += delta * (ds[x ^ i] - ds[x ^ j])
    s += ds
    h[i], h[j] = h[j], h[i]


def ls_hwf(n: int, rng: RngStream) -> SearchResult:
    """Run the hill climber on the n-bit bijective S-box space."""
    check_search_width(n)
    initial = random_bijective_sbox(n, rng)
    size = 1 << n

    table = initial.table.copy()
    h = np.bitwise_count(table).astype(np.int64)
    profile = kappa_profile(initial)
    s = profile.copy()
    g = _convolve(h, s)
    key = ccv_key_from_profile(profile)
    positions = np.arange(size)

    events: list[ClimbEvent] = []
    evaluations = 0
    passes = 0

    improved = True
    while improved:
        improved = False
        passes += 1
        for i in range(size - 1):
            j_next = i + 1
            while j_next < size:
                js = positions[j_next:]
                gains = _gains(h, s, g, i, js)
                better = np.flatnonzero(gains > 0)
                # Candidates are the weight-differing pairs up to the first accepted.
                scanned = int(better[0]) + 1 if better.size else js.size
                evaluations += int(np.count_nonzero(h[j_next : j_next + scanned] != h[i]))
                if better.size == 0:
                    break
                first = scanned - 1
                j = j_next + first

                _swap(h, s, g, i, j)
                table[i], table[j] = table[j], table[i]
                key = CcvKey(n, key.sum_s, key.sum_s2 + int(gains[first]))
                events.append(ClimbEvent(len(events) + 1, i, j, key))
                improved = True
                j_next = j + 1

    return SearchResult(
        initial=initial,
        final=SBox(n, n, table),
        events=tuple(events),
        evaluations=evaluations,
        passes=passes,
    )
