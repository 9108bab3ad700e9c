"""Side-channel resistance metrics: CCV, TO, MTO, RTO.

All four metrics reduce to integer sums over the S-box table, so every
function here accumulates in exact integer arithmetic and divides once at the
end; results are deterministic to the bit.

Component i of an S-box output is bit i (least-significant first), and bit i
of a pre-charge value beta addresses the same component.

The metrics share one spectral core of Walsh-Hadamard correlations.  Let
s_i(x) = (-1)^F_i(x), W_i its Walsh-Hadamard spectrum, C[i, j, a] =
sum_x s_i(x) s_j(x^a) the cross-correlation spectrum, and u(x) =
sum_i (-1)^b_i s_i(x) = m - 2 HW(F(x) ^ beta) the leakage vector of a
pre-charge beta (for beta = 0, the Hamming-weight vector m - 2 HW(F(x))):

- MTO at beta needs sum_i (-1)^b_i C[i, j, a] = sum_x u(x) s_j(x^a), the
  inverse transform of W_u W_j, where W_u = sum_i (-1)^b_i W_i by
  linearity: m forward and m inverse rows;
- RTO at beta needs the double sum over i and j, the autocorrelation of u;
- TO needs sum_j C[j, j, a], the inverse transform of sum_j W_j^2: one row;
- the CCV profile is values[d] = 2 (A[0] - A[d]), with A the
  autocorrelation of HW(F(x)).

`_fwht_rows` is the only transform kernel and `_autocorrelation` the only
autocorrelation.  The full table C (`cross_correlation_fast`, m + m^2 rows)
is built only by the full-beta `mto`/`rto`, which reuse it for all 2^(m-1)
pre-charges; TO, MTO0 and RTO0 read it when one is passed and use the core
otherwise, with identical results.  The tests check both paths against
direct summation.

int64 bounds.  If a row of length 2^n has entries bounded by B, every stage
of its transform is bounded by 2^n B.  The worst case of each path is then
8^n for the table, m 8^n for TO and MTO (products of spectra bounded by
m 4^n) and m^2 8^n for RTO and the CCV autocorrelation (|u|, HW <= m).  At
the largest widths, n = m = 16, that is 2^48, 2^52 and 2^56, all below 2^63.

`metric_value` is the one map from a metric name to its function, shared by
the CLI and the experiment driver.
"""

from dataclasses import dataclass

import numpy as np

from .sbox import IndexOutOfRangeError, SBox


def _hw_table(sbox: SBox, beta: int = 0) -> np.ndarray:
    """HW(F(x) ^ beta) for every x, as int64: the Hamming weight for beta = 0."""
    table = np.asarray(sbox.table, dtype=np.uint32) ^ np.uint32(beta)
    return np.bitwise_count(table).astype(np.int64)


def _component_signs(sbox: SBox) -> np.ndarray:
    """(m, 2^n) matrix of (-1)^(F_i(x)) values."""
    table = np.asarray(sbox.table, dtype=np.int64)
    bits = (table[None, :] >> np.arange(sbox.m)[:, None]) & 1
    return (1 - 2 * bits).astype(np.int64)


def _fwht_rows(mat: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform of each row (natural ordering, unscaled).

    Self-inverse up to a factor of the row length.
    """
    a = np.array(mat, dtype=np.int64)
    rows, size = a.shape
    h = 1
    while h < size:
        a = a.reshape(rows, size // (2 * h), 2, h)
        top = a[:, :, 0, :] + a[:, :, 1, :]
        bottom = a[:, :, 0, :] - a[:, :, 1, :]
        a = np.stack((top, bottom), axis=2).reshape(rows, size)
        h *= 2
    return a


def _autocorrelation(v: np.ndarray) -> np.ndarray:
    """A[a] = sum_x v(x) v(x^a) of an integer vector of length 2^n, exactly."""
    spectrum = _fwht_rows(v[None, :])
    return _fwht_rows(spectrum * spectrum)[0] // v.size


# ---------------------------------------------------------------------------
# Confusion coefficient variance


@dataclass(frozen=True, eq=False)
class KappaProfile:
    """Integer confusion-coefficient profile under the Hamming-weight leakage.

    values[d] = sum_x (HW(F(x)) - HW(F(x^d)))^2 for key difference d >= 1;
    values[0] is unused and fixed at 0.  The (real-valued) confusion
    coefficient for difference d is values[d] / 2^n.
    """

    n: int
    m: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False


@dataclass(frozen=True)
class CcvKey:
    """Exact integer surrogate that orders S-boxes identically to CCV.

    With N = 2^n - 1 nonzero key differences and S the integer profile,
    key = N * sum(S^2) - sum(S)^2, and CCV = key / (N^2 * 2^(2n)).  Climb
    comparisons use `key` so acceptance never depends on float rounding.
    """

    n: int
    count: int
    sum_s: int
    sum_s2: int
    key: int

    @property
    def value(self) -> float:
        """CCV as a float."""
        return self.key / (self.count * self.count * (1 << (2 * self.n)))


def kappa_profile(sbox: SBox) -> KappaProfile:
    """Integer leakage-difference profile over all nonzero key differences.

    sum_x (h(x) - h(x^d))^2 = 2 (A[0] - A[d]) with A the autocorrelation of
    the Hamming-weight table h, so the profile costs two transforms.
    """
    corr = _autocorrelation(_hw_table(sbox))
    return KappaProfile(sbox.n, sbox.m, 2 * (corr[0] - corr))


def ccv_key_from_profile(profile: KappaProfile) -> CcvKey:
    """Exact comparison key computed from a profile (arbitrary-precision)."""
    values = [int(v) for v in profile.values[1:]]
    count = len(values)
    sum_s = sum(values)
    sum_s2 = sum(v * v for v in values)
    return CcvKey(profile.n, count, sum_s, sum_s2, count * sum_s2 - sum_s * sum_s)


def ccv_key(sbox: SBox) -> CcvKey:
    """Exact integer CCV key of an S-box."""
    return ccv_key_from_profile(kappa_profile(sbox))


def ccv(sbox: SBox) -> float:
    """Confusion coefficient variance under the Hamming-weight model.

    Population variance, over the 2^n - 1 nonzero key differences, of the
    expected squared leakage difference; higher means more SCA-resistant.
    """
    return ccv_key(sbox).value


def swap_deltas(
    h: np.ndarray, values: np.ndarray, i: int, js: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def ccv_incremental(
    sbox: SBox, key: CcvKey, profile: KappaProfile, i: int, j: int
) -> tuple[CcvKey, KappaProfile]:
    """Key and profile of swap_outputs(sbox, i, j), by delta update.

    The update is one row of `swap_deltas` and equals a full recomputation
    exactly.
    """
    size = sbox.size
    if i == j or not (0 <= i < size and 0 <= j < size):
        raise IndexOutOfRangeError(f"swap positions ({i}, {j}) invalid for size {size}")
    h = _hw_table(sbox)
    if h[i] == h[j]:
        # Equal-weight swap: the HW sequence, hence the profile, is unchanged.
        return key, profile
    ds, dsum, dsum2 = swap_deltas(h, profile.values, i, np.array([j]))
    new_values = profile.values.copy()
    new_values[1:] += ds[0]
    new_sum_s = key.sum_s + int(dsum[0])
    new_sum_s2 = key.sum_s2 + int(dsum2[0])
    new_key = CcvKey(
        key.n,
        key.count,
        new_sum_s,
        new_sum_s2,
        key.count * new_sum_s2 - new_sum_s * new_sum_s,
    )
    return new_key, KappaProfile(profile.n, profile.m, new_values)


# ---------------------------------------------------------------------------
# Cross-correlation spectrum and the transparency-order family


@dataclass(frozen=True, eq=False)
class CrossCorrelationTable:
    """Cross-correlation spectrum of all component pairs.

    c[i, j, a] = sum_x (-1)^(F_i(x) xor F_j(x^a)); shape (m, m, 2^n).
    """

    n: int
    m: int
    c: np.ndarray

    def __post_init__(self):
        self.c.flags.writeable = False


def cross_correlation_fast(sbox: SBox) -> CrossCorrelationTable:
    """Cross-correlation spectrum via the Walsh-Hadamard correlation theorem.

    For each component pair the correlation sequence is the inverse transform
    of the pointwise product of the components' spectra; all divisions are
    exact, so the table equals direct summation entry-for-entry.
    """
    signs = _component_signs(sbox)
    spectra = _fwht_rows(signs)
    size = sbox.size
    c = np.empty((sbox.m, sbox.m, size), dtype=np.int64)
    for i in range(sbox.m):
        c[i] = _fwht_rows(spectra[i][None, :] * spectra) // size
    return CrossCorrelationTable(sbox.n, sbox.m, c)


def _norm_denominator(sbox: SBox) -> int:
    return sbox.size * sbox.size - sbox.size


def transparency_order(sbox: SBox, table: CrossCorrelationTable | None = None) -> float:
    """Transparency order under the Hamming-weight model (lower = stronger).

    TO(F) = m - (1/(4^n - 2^n)) * sum_{a != 0} |m 2^n - 2 sum_x HW(F(x) ^ F(x^a))|.
    Each a-term equals |sum_j C[j, j, a]|, the absolute diagonal column sum of
    the cross-correlation spectrum, read from `table` when one is given and
    otherwise the inverse transform of sum_j W_j^2 (exactly, in integers).
    """
    if table is not None:
        diag_sum = np.einsum("jja->a", table.c)
    else:
        spectra = _fwht_rows(_component_signs(sbox))
        power = (spectra * spectra).sum(axis=0)
        diag_sum = _fwht_rows(power[None, :])[0] // sbox.size
    total = int(np.abs(diag_sum[1:]).sum())
    return sbox.m - total / _norm_denominator(sbox)


def _beta_signs(sbox: SBox, beta: int) -> np.ndarray:
    if not 0 <= beta < (1 << sbox.m):
        raise ValueError(f"beta {beta} does not fit in m={sbox.m} bits")
    return (1 - 2 * ((beta >> np.arange(sbox.m)) & 1)).astype(np.int64)


def mto_beta(sbox: SBox, beta: int, table: CrossCorrelationTable | None = None) -> float:
    """Modified transparency order for one pre-charge beta.

    m - (1/(4^n - 2^n)) * sum_{a != 0} sum_j |sum_i (-1)^(b_i ^ b_j) C[i, j, a]|;
    the absolute value sits inside the outer component sum.  Without a table
    the inner sums come from the spectral core: sum_i (-1)^b_i C[i, j, a] is
    the correlation of u = m - 2 HW(F ^ beta) with component j, whose
    spectrum is sum_i (-1)^b_i W_i.
    """
    signs = _beta_signs(sbox, beta)
    if table is not None:
        inner = np.einsum("i,ija->ja", signs, table.c)
    else:
        spectra = _fwht_rows(_component_signs(sbox))
        inner = _fwht_rows((signs @ spectra) * spectra) // sbox.size
    # |s_j * inner[j]| = |inner[j]| since s_j is a sign.
    total = int(np.abs(inner[:, 1:]).sum())
    return sbox.m - total / _norm_denominator(sbox)


def rto_beta(sbox: SBox, beta: int, table: CrossCorrelationTable | None = None) -> float:
    """Revised transparency order for one pre-charge beta.

    Same sum as mto_beta but with the absolute value outside both component
    sums, so rto_beta >= mto_beta pointwise.  The double sum is the
    autocorrelation of u = m - 2 HW(F ^ beta), which is how it is computed
    without a table; it depends only on the sequence HW(F(x) ^ beta).
    """
    signs = _beta_signs(sbox, beta)
    if table is not None:
        outer = signs @ np.einsum("i,ija->ja", signs, table.c)
    else:
        outer = _autocorrelation(sbox.m - 2 * _hw_table(sbox, beta))
    total = int(np.abs(outer[1:]).sum())
    return sbox.m - total / _norm_denominator(sbox)


def mto_beta_zero(sbox: SBox, table: CrossCorrelationTable | None = None) -> float:
    """MTO restricted to beta = 0 (the Hamming-weight model)."""
    return mto_beta(sbox, 0, table)


def rto_beta_zero(sbox: SBox, table: CrossCorrelationTable | None = None) -> float:
    """RTO restricted to beta = 0 (the Hamming-weight model)."""
    return rto_beta(sbox, 0, table)


def mto(sbox: SBox, table: CrossCorrelationTable | None = None) -> float:
    """Full MTO: maximum of mto_beta over all pre-charges.

    beta and its complement give identical values, so only the 2^(m-1)
    representatives with the top component clear are enumerated.
    """
    if table is None:
        table = cross_correlation_fast(sbox)
    return max(mto_beta(sbox, beta, table) for beta in range(1 << (sbox.m - 1)))


def rto(sbox: SBox, table: CrossCorrelationTable | None = None) -> float:
    """Full RTO: maximum of rto_beta over complement representatives."""
    if table is None:
        table = cross_correlation_fast(sbox)
    return max(rto_beta(sbox, beta, table) for beta in range(1 << (sbox.m - 1)))


METRIC_NAMES = ("ccv", "to", "mto0", "rto0", "mto", "rto")
# Metrics that need the full cross-correlation spectrum; TO, MTO0 and RTO0
# read it too when it has been built.
SPECTRAL_METRICS = ("mto", "rto")


def metric_value(sbox: SBox, name: str, table: CrossCorrelationTable | None = None) -> float:
    """Evaluate the metric called `name`, reusing `table` when one is given.

    The names resolve to this module's functions at call time, so a wrapper
    installed on a module attribute sees every evaluation.
    """
    if name == "ccv":
        return ccv(sbox)
    if name == "to":
        return transparency_order(sbox, table)
    if name == "mto0":
        return mto_beta_zero(sbox, table)
    if name == "rto0":
        return rto_beta_zero(sbox, table)
    if name == "mto":
        return mto(sbox, table)
    if name == "rto":
        return rto(sbox, table)
    raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
