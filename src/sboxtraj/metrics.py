"""Side-channel resistance metrics: CCV, TO, MTO, RTO.

All four metrics reduce to integer sums over the S-box table, so every
function here accumulates in exact integer arithmetic and divides once at the
end; results are deterministic to the bit.

Component i of an S-box output is bit i (least-significant first), and bit i
of a pre-charge value beta addresses the same component.

Each metric has exactly one algorithm, built from Walsh-Hadamard
correlations.  Let s_i(x) = (-1)^F_i(x), W_i its Walsh-Hadamard spectrum,
C[i, j, a] = sum_x s_i(x) s_j(x^a) the cross-correlation spectrum, and
u(x) = sum_i (-1)^b_i s_i(x) = m - 2 HW(F(x) ^ beta) the leakage vector of a
pre-charge beta (for beta = 0, the Hamming-weight vector m - 2 HW(F(x))):

- MTO at beta needs sum_i (-1)^b_i C[i, j, a] = sum_x u(x) s_j(x^a), the
  inverse transform of W_u W_j, where W_u = sum_i (-1)^b_i W_i by
  linearity: m forward and m inverse rows;
- RTO at beta needs the double sum over i and j, the autocorrelation of u;
- TO needs sum_j C[j, j, a], the inverse transform of sum_j W_j^2: one row;
- the CCV profile is values[d] = 2 (A[0] - A[d]), with A the
  autocorrelation of HW(F(x)).

`_fwht_rows` is the only transform kernel and `_autocorrelation` the only
autocorrelation.  The full-beta `rto` autocorrelates u for all 2^(m-1)
pre-charge representatives in chunks of a fixed element budget.  The full
table C (`cross_correlation_fast`, m + m^2 rows) is built only inside the
full-beta `mto`, which contracts it with the signs of each representative.
Both full-beta metrics cost 2^(m-1) times a single beta, so at m = 16 they
take many minutes.  The tests check every metric against direct summation.

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

from .sbox import SBox


def _hw_table(sbox: SBox, betas=0) -> np.ndarray:
    """HW(F(x) ^ beta) for every x, as int64: the Hamming weight for beta = 0.

    An array of betas gives one row per beta.
    """
    betas = np.asarray(betas, dtype=np.uint32)[..., None]
    return np.bitwise_count(np.asarray(sbox.table, dtype=np.uint32) ^ betas).astype(np.int64)


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


def _autocorrelation(rows: np.ndarray) -> np.ndarray:
    """A[r, a] = sum_x v_r(x) v_r(x^a) of each integer row v_r, exactly."""
    spectrum = _fwht_rows(rows)
    return _fwht_rows(spectrum * spectrum) // rows.shape[1]


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
    corr = _autocorrelation(_hw_table(sbox, [0]))[0]
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


# ---------------------------------------------------------------------------
# Cross-correlation spectrum and the transparency-order family


def cross_correlation_fast(sbox: SBox) -> np.ndarray:
    """Cross-correlation spectrum of all component pairs, read-only int64.

    c[i, j, a] = sum_x (-1)^(F_i(x) xor F_j(x^a)); shape (m, m, 2^n).  For
    each component pair the correlation sequence is the inverse transform of
    the pointwise product of the components' spectra; all divisions are
    exact, so the table equals direct summation entry-for-entry.
    """
    signs = _component_signs(sbox)
    spectra = _fwht_rows(signs)
    size = sbox.size
    c = np.empty((sbox.m, sbox.m, size), dtype=np.int64)
    for i in range(sbox.m):
        c[i] = _fwht_rows(spectra[i][None, :] * spectra) // size
    c.flags.writeable = False
    return c


def _norm_denominator(sbox: SBox) -> int:
    return sbox.size * sbox.size - sbox.size


def transparency_order(sbox: SBox) -> float:
    """Transparency order under the Hamming-weight model (lower = stronger).

    TO(F) = m - (1/(4^n - 2^n)) * sum_{a != 0} |m 2^n - 2 sum_x HW(F(x) ^ F(x^a))|.
    Each a-term equals |sum_j C[j, j, a]|, the absolute diagonal column sum of
    the cross-correlation spectrum: the inverse transform of sum_j W_j^2
    (exactly, in integers).
    """
    spectra = _fwht_rows(_component_signs(sbox))
    power = (spectra * spectra).sum(axis=0)
    diag_sum = _fwht_rows(power[None, :])[0] // sbox.size
    total = int(np.abs(diag_sum[1:]).sum())
    return sbox.m - total / _norm_denominator(sbox)


def _check_beta(sbox: SBox, beta: int) -> None:
    if not 0 <= beta < (1 << sbox.m):
        raise ValueError(f"beta {beta} does not fit in m={sbox.m} bits")


def _beta_signs(sbox: SBox, betas) -> np.ndarray:
    """(-1)^b_i for every component i, as int64; one row per beta of an array."""
    bits = (np.asarray(betas)[..., None] >> np.arange(sbox.m)) & 1
    return (1 - 2 * bits).astype(np.int64)


def mto_beta(sbox: SBox, beta: int) -> float:
    """Modified transparency order for one pre-charge beta.

    m - (1/(4^n - 2^n)) * sum_{a != 0} sum_j |sum_i (-1)^(b_i ^ b_j) C[i, j, a]|;
    the absolute value sits inside the outer component sum.  The inner sum
    sum_i (-1)^b_i C[i, j, a] is the correlation of u = m - 2 HW(F ^ beta)
    with component j, whose spectrum is sum_i (-1)^b_i W_i.
    """
    _check_beta(sbox, beta)
    signs = _beta_signs(sbox, beta)
    spectra = _fwht_rows(_component_signs(sbox))
    inner = _fwht_rows((signs @ spectra) * spectra) // sbox.size
    # |s_j * inner[j]| = |inner[j]| since s_j is a sign.
    total = int(np.abs(inner[:, 1:]).sum())
    return sbox.m - total / _norm_denominator(sbox)


def rto_beta(sbox: SBox, beta: int) -> float:
    """Revised transparency order for one pre-charge beta.

    Same sum as mto_beta but with the absolute value outside both component
    sums, so rto_beta >= mto_beta pointwise.  The double sum is the
    autocorrelation of u = m - 2 HW(F ^ beta), so it depends only on the
    sequence HW(F(x) ^ beta).
    """
    _check_beta(sbox, beta)
    outer = _autocorrelation(sbox.m - 2 * _hw_table(sbox, [beta]))[0]
    total = int(np.abs(outer[1:]).sum())
    return sbox.m - total / _norm_denominator(sbox)


def mto_beta_zero(sbox: SBox) -> float:
    """MTO restricted to beta = 0 (the Hamming-weight model)."""
    return mto_beta(sbox, 0)


def rto_beta_zero(sbox: SBox) -> float:
    """RTO restricted to beta = 0 (the Hamming-weight model)."""
    return rto_beta(sbox, 0)


# Entries per chunk of u rows in `rto`: 64 KB of int64 per temporary, which
# measured no slower than larger chunks; from n = 13 a chunk is a single row.
_RTO_CHUNK_ELEMENTS = 1 << 13


def mto(sbox: SBox) -> float:
    """Full MTO: maximum of mto_beta over all pre-charges.

    beta and its complement give identical values, so only the 2^(m-1)
    representatives with the top component clear are enumerated.  Each reads
    the cross-correlation table, built once; x -> m - x/(4^n - 2^n) is
    decreasing, so the maximum is taken at the smallest integer total.
    """
    c = cross_correlation_fast(sbox)
    total = min(
        int(np.abs(np.einsum("i,ija->ja", signs, c)[:, 1:]).sum())
        for signs in _beta_signs(sbox, np.arange(1 << (sbox.m - 1)))
    )
    return sbox.m - total / _norm_denominator(sbox)


def rto(sbox: SBox) -> float:
    """Full RTO: maximum of rto_beta over complement representatives.

    The u rows of the representatives are autocorrelated in chunks of at
    most _RTO_CHUNK_ELEMENTS entries (one row when a row is larger).
    """
    betas = np.arange(1 << (sbox.m - 1))
    step = max(1, _RTO_CHUNK_ELEMENTS // sbox.size)
    totals = []
    for start in range(0, betas.size, step):
        corr = _autocorrelation(sbox.m - 2 * _hw_table(sbox, betas[start : start + step]))
        totals.append(int(np.abs(corr[:, 1:]).sum(axis=1).min()))
    total = min(totals)
    return sbox.m - total / _norm_denominator(sbox)


METRIC_NAMES = ("ccv", "to", "mto0", "rto0", "mto", "rto")


def metric_value(sbox: SBox, name: str) -> float:
    """Evaluate the metric called `name`.

    The names resolve to this module's functions at call time, so a wrapper
    installed on a module attribute sees every evaluation.
    """
    if name == "ccv":
        return ccv(sbox)
    if name == "to":
        return transparency_order(sbox)
    if name == "mto0":
        return mto_beta_zero(sbox)
    if name == "rto0":
        return rto_beta_zero(sbox)
    if name == "mto":
        return mto(sbox)
    if name == "rto":
        return rto(sbox)
    raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
