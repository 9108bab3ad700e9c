"""LS-HWF: first-improvement swap hill climber over S-box space maximizing CCV.

The climber starts from a uniformly random bijective S-box and repeatedly
scans all position pairs (i, j), j > i, in lexicographic order.  A pair is a
candidate only when the outputs at i and j have different Hamming weights
(equal-weight swaps provably leave CCV unchanged).  A candidate is accepted
in place as soon as its exact integer CCV key strictly exceeds the
incumbent's, and the scan continues from the following pair; the search stops
after a full pass without any acceptance, i.e. at a local maximum.

Candidates are evaluated in batches by `metrics.swap_deltas`, the O(2^n)
delta update of the integer profile that `metrics.ccv_incremental` also uses;
acceptance order is identical to evaluating pairs one at a time.  The batch
arithmetic is int64, so the search supports only the widths where it cannot
overflow (n <= 11).
"""

from dataclasses import dataclass

import numpy as np

from .metrics import CcvKey, ccv_key_from_profile, kappa_profile, swap_deltas
from .rng import RngStream
from .sbox import SBox, SBoxError, random_bijective_sbox


@dataclass(frozen=True)
class ClimbEvent:
    """One accepted improving swap.  climb_index is 1-based within a run."""

    climb_index: int
    i: int
    j: int
    ccv_after: float
    ccv_key_after: CcvKey
    sbox_after: SBox


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
    n: int
    master_seed: int
    seed_path: tuple[int, ...]
    evaluations: int
    passes: int


def _int64_sweep_safe(count: int, size: int, m: int) -> bool:
    # Worst-case |candidate key| <= 2 * (count * size * m^2)^2.
    return 2 * (count * size * m * m) ** 2 < 2**62


def check_search_width(n: int) -> None:
    """Raise SBoxError unless n >= 2 and the int64 sweep is exact at n."""
    if n < 2 or not _int64_sweep_safe((1 << n) - 1, 1 << n, n):
        raise SBoxError(f"search supports n in 2..11 (int64-exact sweeps), got {n}")


def ls_hwf(n: int, rng: RngStream) -> SearchResult:
    """Run the hill climber on the n-bit bijective S-box space."""
    check_search_width(n)
    initial = random_bijective_sbox(n, rng)
    size = 1 << n

    table = np.asarray(initial.table, dtype=np.int64).copy()
    h = np.bitwise_count(table.astype(np.uint32)).astype(np.int64)

    start_profile = kappa_profile(initial)
    start_key = ccv_key_from_profile(start_profile)
    count = start_key.count
    sum_s, sum_s2, key = start_key.sum_s, start_key.sum_s2, start_key.key
    s_values = start_profile.values.copy()

    events: list[ClimbEvent] = []
    evaluations = 0
    passes = 0
    climb = 0

    improved = True
    while improved:
        improved = False
        passes += 1
        for i in range(size - 1):
            j_next = i + 1
            while j_next < size:
                js = np.arange(j_next, size)
                eligible = js[h[js] != h[i]]
                if eligible.size == 0:
                    break
                ds, dsum, dsum2 = swap_deltas(h, s_values, i, eligible)
                cand_keys = count * (sum_s2 + dsum2) - (sum_s + dsum) ** 2
                better = np.nonzero(cand_keys > key)[0]
                if better.size == 0:
                    evaluations += int(eligible.size)
                    break
                first = int(better[0])
                evaluations += first + 1
                j = int(eligible[first])

                s_values[1:] += ds[first]
                sum_s += int(dsum[first])
                sum_s2 += int(dsum2[first])
                key = count * sum_s2 - sum_s * sum_s
                table[i], table[j] = table[j], table[i]
                h[i], h[j] = h[j], h[i]
                climb += 1

                snapshot = SBox(n, n, tuple(int(v) for v in table))
                key_after = CcvKey(n, count, sum_s, sum_s2, key)
                events.append(ClimbEvent(climb, i, j, key_after.value, key_after, snapshot))
                improved = True
                j_next = j + 1

    final = SBox(n, n, tuple(int(v) for v in table))
    return SearchResult(
        initial=initial,
        final=final,
        events=tuple(events),
        n=n,
        master_seed=rng.master_seed,
        seed_path=rng.path,
        evaluations=evaluations,
        passes=passes,
    )
