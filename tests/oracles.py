"""Independent reference implementations used as test oracles.

Everything here is written directly from the defining sums, shares no code
with the package under test, and is kept deliberately naive.  The `*_from_table`
reductions read TO, MTO and RTO off a cross-correlation table c[i, j, a] and
end with the same m - total / (4^n - 2^n) as the package, so their floats can
be compared exactly.  `walsh_hadamard_direct` is the transform as one
product with the full sign matrix.  `swap_deltas` scores a swap by updating
the profile term by term, O(2^n) per candidate; `ccv_incremental` and the
climber `ls_hwf_batched` are built on it, and the search's closed-form gain
and O(2^n) update are checked against them.  `ls_hwf_rows` is the search's
scan one row at a time, the reference for its block scan.
`hw_class_shuffle_reference` states the draw contract of the package's class
shuffle on a plain table, and `derive_seed_reference` the frozen seed mixer
in Python integers.  The frozen AES constants at the bottom were
computed with the exact-rational version of these oracles before the package
was built.
"""

import numpy as np


def hw(v: int) -> int:
    return bin(v).count("1")


def ccv_bruteforce_ordered(table, n: int) -> float:
    """CCV as the population variance over all ordered sub-key pairs.

    For each pair (ki, kj), ki != kj, the expectation over inputs of the
    squared leakage difference is accumulated directly; no reduction to key
    differences is used.
    """
    size = 2**n
    hws = np.array([hw(v) for v in table], dtype=np.int64)
    xs = np.arange(size)
    kappas = []
    for ki in range(size):
        for kj in range(size):
            if ki == kj:
                continue
            diff = hws[xs ^ ki] - hws[xs ^ kj]
            kappas.append(float(np.dot(diff, diff)) / size)
    kappas = np.array(kappas)
    return float(np.mean((kappas - kappas.mean()) ** 2))


def kappa_profile_direct(table, n: int) -> np.ndarray:
    """values[d] = sum_x (HW(F(x)) - HW(F(x^d)))^2, one O(2^n) pass per d."""
    size = 2**n
    hws = np.array([hw(v) for v in table], dtype=np.int64)
    xs = np.arange(size)
    values = np.zeros(size, dtype=np.int64)
    for d in range(1, size):
        diff = hws - hws[xs ^ d]
        values[d] = np.dot(diff, diff)
    return values


def to_direct(table, n: int, m: int) -> float:
    """Transparency order by direct summation over all shifts and inputs."""
    size = 2**n
    total = 0
    for a in range(1, size):
        s = sum(hw(table[x] ^ table[x ^ a]) for x in range(size))
        total += abs(m * size - 2 * s)
    return m - total / (size * size - size)


def cross_correlation_triple_loop(table, n: int, m: int):
    """C[i][j][a] by the raw triple loop; only sensible for small n."""
    size = 2**n
    c = [[[0] * size for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            for a in range(size):
                acc = 0
                for x in range(size):
                    fi = (table[x] >> i) & 1
                    fj = (table[x ^ a] >> j) & 1
                    acc += -1 if fi ^ fj else 1
                c[i][j][a] = acc
    return c


def cross_correlation_naive(sbox) -> np.ndarray:
    """Direct O(m^2 4^n) summation of the cross-correlation spectrum."""
    table = np.asarray(sbox.table, dtype=np.int64)
    signs = 1 - 2 * ((table[None, :] >> np.arange(sbox.m)[:, None]) & 1)
    xs = np.arange(sbox.size)
    c = np.empty((sbox.m, sbox.m, sbox.size), dtype=np.int64)
    for a in range(sbox.size):
        c[:, :, a] = signs @ signs[:, xs ^ a].T
    return c


def _beta_signs(m: int, beta: int) -> np.ndarray:
    return 1 - 2 * ((beta >> np.arange(m)) & 1)


def _from_total(c: np.ndarray, total) -> float:
    m, _, size = c.shape
    return m - int(total) / (size * size - size)


def to_from_table(c: np.ndarray) -> float:
    """TO from the diagonal column sums sum_j c[j, j, a]."""
    return _from_total(c, np.abs(np.einsum("jja->a", c)[1:]).sum())


def mto_beta_from_table(c: np.ndarray, beta: int) -> float:
    """MTO at beta: |sum_i (-1)^(b_i ^ b_j) c[i, j, a]| summed over j and a != 0."""
    inner = np.einsum("i,ija->ja", _beta_signs(c.shape[0], beta), c)
    return _from_total(c, np.abs(inner[:, 1:]).sum())


def rto_beta_from_table(c: np.ndarray, beta: int) -> float:
    """RTO at beta: |sum_ij (-1)^(b_i ^ b_j) c[i, j, a]| summed over a != 0."""
    signs = _beta_signs(c.shape[0], beta)
    outer = np.einsum("i,j,ija->a", signs, signs, c)
    return _from_total(c, np.abs(outer[1:]).sum())


def precharge_extremes_from_table(c: np.ndarray) -> tuple[float, float]:
    """(full MTO, full RTO): the largest mto_beta and rto_beta off the table
    over every beta, 2^10 betas at a time.  The signed sums run as float64
    products, exact since every partial sum is an integer below m^2 4^n."""
    m, _, size = c.shape
    rows = c.reshape(m, -1).astype(np.float64)
    pairs = c.reshape(m * m, size).astype(np.float64)
    betas = np.arange(1 << m)
    mto_totals, rto_totals = [], []
    for start in range(0, 1 << m, 1 << 10):
        signs = 1 - 2 * ((betas[start : start + (1 << 10), None] >> np.arange(m)) & 1)
        inner = (signs @ rows).reshape(-1, m, size)
        mto_totals.append(np.abs(inner[:, :, 1:]).sum(axis=(1, 2)).min())
        outer = (signs[:, :, None] * signs[:, None, :]).reshape(-1, m * m) @ pairs
        rto_totals.append(np.abs(outer[:, 1:]).sum(axis=1).min())
    return _from_total(c, min(mto_totals)), _from_total(c, min(rto_totals))


def mto_beta_direct(table, n: int, m: int, beta: int) -> float:
    size = 2**n
    c = cross_correlation_triple_loop(table, n, m)
    total = 0
    for a in range(1, size):
        for j in range(m):
            inner = 0
            for i in range(m):
                sign = -1 if ((beta >> i) & 1) ^ ((beta >> j) & 1) else 1
                inner += sign * c[i][j][a]
            total += abs(inner)
    return m - total / (size * size - size)


def rto_beta_direct(table, n: int, m: int, beta: int) -> float:
    size = 2**n
    c = cross_correlation_triple_loop(table, n, m)
    total = 0
    for a in range(1, size):
        outer = 0
        for j in range(m):
            for i in range(m):
                sign = -1 if ((beta >> i) & 1) ^ ((beta >> j) & 1) else 1
                outer += sign * c[i][j][a]
        total += abs(outer)
    return m - total / (size * size - size)


def walsh_hadamard_direct(mat) -> np.ndarray:
    """W[..., a] = sum_x (-1)^HW(a & x) mat[..., x]: one exact int64 product
    with the full 2^n x 2^n sign matrix, O(4^n) per row."""
    mat = np.asarray(mat, dtype=np.int64)
    size = mat.shape[-1]
    parity = np.array([hw(v) & 1 for v in range(size)], dtype=np.int64)
    xs = np.arange(size)
    return mat @ (1 - 2 * parity[xs[:, None] & xs[None, :]])


def xor_convolution_direct(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """G[x] = sum_d h(x^d) s[d], one O(2^n) dot product per x."""
    xs = np.arange(h.size)
    return np.array([np.dot(h[x ^ xs], s) for x in xs], dtype=np.int64)


def swap_deltas(h: np.ndarray, values: np.ndarray, i: int, js: np.ndarray):
    """Profile changes of swapping the outputs at i and at each j in js.

    h is the int64 Hamming-weight table and values the current profile.
    Returns (ds, dsum, dsum2): ds[r, d - 1] is the change of values[d] for
    the swap (i, js[r]), dsum its row sums (the change of sum(S)) and dsum2
    the change of sum(S^2).  Only the summands at x in {i, j, i^d, j^d} change
    for each difference d, so a row costs O(2^n) instead of O(4^n).
    """
    deltas = np.arange(1, h.size)
    hi = h[i]
    hj = h[js]
    hid = h[i ^ deltas]
    hjd = h[js[:, None] ^ deltas[None, :]]
    da = hj[:, None] - hid[None, :]
    db = hi - hid
    dc = hi - hjd
    dd = hj[:, None] - hjd
    ds = 2 * (da * da - (db * db)[None, :] + dc * dc - dd * dd)
    # d = i^j maps the pair {i, j} to itself: no change there.
    ds[np.arange(js.size), (i ^ js) - 1] = 0
    dsum = ds.sum(axis=1)
    dsum2 = (ds * (ds + 2 * values[1:][None, :])).sum(axis=1)
    return ds, dsum, dsum2


def ccv_incremental(table, values: np.ndarray, sum_s: int, sum_s2: int, i: int, j: int):
    """Profile, sum(S) and sum(S^2) after swapping the outputs at i and j.

    One row of `swap_deltas`; an equal-weight swap changes nothing.
    """
    h = np.array([hw(v) for v in table], dtype=np.int64)
    if h[i] == h[j]:
        return values, sum_s, sum_s2
    ds, dsum, dsum2 = swap_deltas(h, values, i, np.array([j]))
    new_values = values.copy()
    new_values[1:] += ds[0]
    return new_values, sum_s + int(dsum[0]), sum_s2 + int(dsum2[0])


def ls_hwf_batched(table, n: int):
    """LS-HWF from a given initial table, scoring candidates with `swap_deltas`.

    Scans pairs (i, j), j > i, in lexicographic order and accepts the first
    weight-differing swap whose key N sum(S^2) - sum(S)^2 strictly exceeds
    the incumbent's, until a full pass accepts nothing.  Returns (events,
    evaluations, passes, final table), an event being (i, j, n, sum_s,
    sum_s2, key) after the swap.
    """
    size = 1 << n
    table = list(table)
    h = np.array([hw(v) for v in table], dtype=np.int64)
    values = kappa_profile_direct(table, n)
    count = size - 1
    sum_s = int(values[1:].sum())
    sum_s2 = int((values[1:] ** 2).sum())
    key = count * sum_s2 - sum_s * sum_s
    events = []
    evaluations = passes = 0
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
                ds, dsum, dsum2 = swap_deltas(h, values, i, eligible)
                cand_keys = count * (sum_s2 + dsum2) - (sum_s + dsum) ** 2
                better = np.nonzero(cand_keys > key)[0]
                if better.size == 0:
                    evaluations += int(eligible.size)
                    break
                first = int(better[0])
                evaluations += first + 1
                j = int(eligible[first])
                values[1:] += ds[first]
                sum_s += int(dsum[first])
                sum_s2 += int(dsum2[first])
                key = count * sum_s2 - sum_s * sum_s
                table[i], table[j] = table[j], table[i]
                h[i], h[j] = h[j], h[i]
                events.append((i, j, n, sum_s, sum_s2, key))
                improved = True
                j_next = j + 1
    return events, evaluations, passes, tuple(table)


def ls_hwf_rows(table, n: int):
    """LS-HWF from a given initial table, one row of candidates at a time.

    Row i's pairs (i, j), j >= j_next, are scored by the closed-form gain in
    one vector expression and the first positive one is accepted; the
    profile and the convolution are updated by the swap-update formula
    written out term by term, from the direct profile and convolution.
    Returns what `ls_hwf_batched` returns.
    """
    size = 1 << n
    table = list(table)
    h = np.array([hw(v) for v in table], dtype=np.int64)
    s = kappa_profile_direct(table, n)
    g = xor_convolution_direct(h, s)
    sum_s = int(s.sum())
    sum_s2 = int((s**2).sum())
    positions = np.arange(size)
    events = []
    evaluations = passes = 0
    improved = True
    while improved:
        improved = False
        passes += 1
        for i in range(size - 1):
            j_next = i + 1
            while j_next < size:
                js = positions[j_next:]
                delta = h[js] - h[i]
                gains = 8 * delta * (3 * delta * s[i ^ js] - 4 * delta**3 + g[js] - g[i])
                better = np.flatnonzero(gains > 0)
                scanned = int(better[0]) + 1 if better.size else js.size
                evaluations += int(np.count_nonzero(h[j_next : j_next + scanned] != h[i]))
                if better.size == 0:
                    break
                j = j_next + scanned - 1
                x = positions
                d = int(h[j] - h[i])
                ds = 4 * d * (h[j ^ x] - h[i ^ x])
                ds[0] = ds[i ^ j] = 0
                g += 3 * d * (s[x ^ i] - s[x ^ j]) - 4 * d * d * (h - h[x ^ i ^ j])
                g += d * (ds[x ^ i] - ds[x ^ j])
                s += ds
                h[i], h[j] = h[j], h[i]
                table[i], table[j] = table[j], table[i]
                sum_s2 += int(gains[scanned - 1])
                events.append((i, j, n, sum_s, sum_s2, (size - 1) * sum_s2 - sum_s * sum_s))
                improved = True
                j_next = j + 1
    return events, evaluations, passes, tuple(table)


def hw_class_shuffle_reference(table, m: int, rnd) -> list[int]:
    """Outputs re-permuted within Hamming-weight classes, drawn from `rnd`.

    `rnd` is a `random.Random`.  For each weight w = 0..m whose class is
    non-empty, the outputs at the positions of weight w, in ascending
    position order, get one `rnd.shuffle` and are written back to those
    positions.
    """
    out = list(table)
    for w in range(m + 1):
        positions = [x for x in range(len(table)) if hw(table[x]) == w]
        if positions:
            values = [table[x] for x in positions]
            rnd.shuffle(values)
            for x, v in zip(positions, values):
                out[x] = v
    return out



def _splitmix64_reference(z: int) -> int:
    mask = (1 << 64) - 1
    z &= mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def derive_seed_reference(master_seed: int, path) -> int:
    """The splitmix64 path mixer in Python integers: s = mix64(master mod
    2^64), then s = mix64(s + GOLDEN (e + 1)) mod 2^64 for each path
    entry e, with GOLDEN = 0x9E3779B97F4A7C15."""
    s = _splitmix64_reference(master_seed)
    for e in path:
        s = _splitmix64_reference(s + 0x9E3779B97F4A7C15 * (e + 1))
    return s


AES_SBOX = (
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
)

# Frozen oracle values for the AES S-box (exact rationals in comments).
AES_CCV = 0.11130418589004229   # 926407/8323200
AES_TO = 7.8600490196078434     # 32069/4080
AES_MTO0 = 6.869362745098039    # 28027/4080
AES_RTO0 = 7.458333333333333    # 179/24
