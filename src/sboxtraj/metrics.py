"""Side-channel resistance metrics: CCV, TO, MTO, RTO.

All four metrics reduce to integer sums over the S-box table, so every
function here accumulates in exact integer arithmetic and divides once at the
end; results are deterministic to the bit.

Component i of an S-box output is bit i (least-significant first), and bit i
of a pre-charge value beta addresses the same component.

Every metric comes from one representation, the component spectra.  Let
s_i(x) = (-1)^F_i(x) and W_i its Walsh-Hadamard spectrum (`_spectra`: m
rows on axis -2, component-major).  The leakage vector of a pre-charge beta,
u(x) = sum_i (-1)^b_i s_i(x) = m - 2 HW(F(x) ^ beta), has by linearity the
spectrum W_u = sum_i (-1)^b_i W_i (`_leakage_spectra`).  A correlation
sum_x f(x) g(x^a) is the inverse transform of the product of the spectra
(`_correlate`), so each metric is one inverse transform of a product:

- TO: sum_j W_j^2, the diagonal sum_j C[j, j, a] of the cross-correlation
  spectrum C[i, j, a] = sum_x s_i(x) s_j(x^a);
- MTO at beta: W_u W_j, the correlation of u with component j;
- RTO at beta: W_u^2, the autocorrelation A of u;
- the CCV profile: (A[0] - A) / 2 with A at beta = 0, because u = m - 2 HW
  gives A[0] - A[d] = 4 sum_x (HW(F(x))^2 - HW(F(x)) HW(F(x^d))).

`_fwht_rows` is the only transform kernel, `_correlate` the only inverse and
`_score` the only map from an integer total to a metric value.  The full
table C (`cross_correlation_fast`, m^2 inverse rows) is built only for the
full-beta `mto` and `rto`.  A beta and its complement score the same, so
both take their minimum total over the 2^(m-1) representatives with the top
bit clear, and one sweep (`_precharge_sweep`) yields both: for each
representative, inner[j] = sum_i (-1)^b_i C[i, j] for MTO and the
autocorrelation A = sum_j (-1)^b_j inner[j] of u for RTO.  The sweep holds a
block of 2^L rows, one per setting of the low L signs, with L as large as
`_SWEEP_ELEMENTS` allows (L = 0 at n = m = 16), and walks the other signs
in Gray-code order.  Flipping sign k, of value s, adds -2 s C[k] to inner
and, since C[i, j] = C[j, i], -4 s inner[k] + 4 C[k, k] to A: O(m 2^n) and
O(2^n) per row and step, with no product by the signs.  Each entry of C is
a sum of 2^n signs, so even.  A is a multiple of 4: for a != 0, A[a] is
twice a sum over the 2^(n-1) pairs {x, x^a} of u(x) u(x^a), terms of one
parity since u = m (mod 2), so an even sum for n >= 2; A[0] = sum u^2 is a
sum of 2^n odd squares (each 1 mod 8) or of even squares.  So the sweep
holds inner / 2 and A / 4 exactly, and one flip is a single pass over the
block.  `_precharge_minima` reduces the sweep to both minimum totals, under
a one-entry cache keyed on the S-box's value, so `mto` and `rto` of one
S-box share one table and one sweep.  The tests check every metric against
direct summation.

Exactness.  `_fwht_rows` computes in float64, where every partial sum of a
row's transform is a +-sum of a subset of the row's entries; with integer
entries nothing rounds while sum |row| < 2^53, and the kernel raises when a
row reaches it.  The forward transforms have sum |s_i| = 2^n.  Parseval
(sum_a W_i[a]^2 = 4^n, sum_a W_u[a]^2 <= m^2 4^n) and Cauchy-Schwarz bound
each inverse row: 4^n for the table, m 4^n for TO and MTO and m^2 4^n for
RTO and the CCV profile.  At n = m = 16, the largest widths, that is 2^32,
2^36 and 2^40, all below 2^53, and every int64 product and result is
smaller still.  In the sweep |C| <= 2^n, so |inner| <= m 2^n and
|A| <= m^2 2^n, 2^20 and 2^24, and a row's total over a and j is below
m^2 4^n = 2^40: all far inside int64.

Batches.  `transparency_order`, `mto_beta`, `rto_beta` and the two beta = 0
forms take one S-box or a sequence of S-boxes of one (n, m).  The arrays
above then carry the members on a leading axis: the spectra of k S-boxes are
(k, m, 2^n), components on axis -2, and each metric reduces them to k
totals.  `_stack_scores` scores a sequence in blocks of at most
`_SWEEP_ELEMENTS` int64 entries (k m 2^n, so 16 S-boxes at n = m = 8),
which keeps a block's temporaries in cache as the sweep's are; one S-box is
a block of one through the same code.  The bounds above hold row by row, so
a stack changes none of them, and each total becomes a Python int before
`_score`: a value is bit-identical however its S-box was batched.

`_METRICS` is the one map from a metric name to its function; the CLI and the
experiment driver evaluate it through `metric_value`, which takes one S-box
or a sequence (`ccv`, `mto` and `rto` are mapped over one).
"""

import functools
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .sbox import SBox

# Largest number of int64 entries (256 KB) in one block of work: the
# pre-charge rows that `_precharge_sweep` updates together, or the stacked
# spectra (members x m x 2^n) that `_stack_scores` scores together.  It is
# the one cache bound of the module: larger blocks leave the cache.
_SWEEP_ELEMENTS = 1 << 15


def _signs(values, m: int) -> np.ndarray:
    """(-1)^(bit i of v) as int64 for i < m: shape (m,) for one integer, and
    (..., m, 2^n) for a table or a stack of tables (..., 2^n), component i
    on axis -2."""
    shifts = np.arange(m)
    if np.ndim(values):
        values, shifts = values[..., None, :], shifts[:, None]
    return 1 - 2 * ((values >> shifts) & 1)


@functools.cache
def _hadamard(k: int) -> np.ndarray:
    """The read-only float64 Sylvester Hadamard matrix of order 2^k."""
    if k == 0:
        h = np.ones((1, 1))
    else:
        half = _hadamard(k - 1)
        h = np.block([[half, half], [half, -half]])
    h.flags.writeable = False
    return h


def _fwht_rows(mat: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (natural ordering,
    unscaled) as a new int64 array, exactly.

    Self-inverse up to a factor of the row length.  A row of length 2^n,
    reshaped to X of shape (2^(n - lo), 2^lo) with lo = n // 2, transforms to
    H_(n - lo) X H_lo, two float64 matrix products with Sylvester factors.
    Raises OverflowError unless every row has sum |row| < 2^53.
    """
    x = np.asarray(mat, dtype=np.float64)
    # The float64 row sums decide the bound exactly: below 2^53 they are
    # exact, and rounding, being monotone, keeps a larger sum at least 2^53.
    if np.abs(x).sum(axis=-1).max() >= 2.0**53:
        raise OverflowError("a row with sum |row| >= 2^53 has no exact float64 transform")
    n = x.shape[-1].bit_length() - 1
    lo = n // 2
    y = _hadamard(n - lo) @ x.reshape(-1, 1 << (n - lo), 1 << lo) @ _hadamard(lo)
    return y.astype(np.int64).reshape(x.shape)


def _correlate(product: np.ndarray) -> np.ndarray:
    """The correlation sum_x f(x) g(x^a) whose spectrum W_f W_g is `product`,
    exactly: the transform is self-inverse up to the row length."""
    return _fwht_rows(product) // product.shape[-1]


def _spectra(tables: np.ndarray, m: int) -> np.ndarray:
    """W: the (..., m, 2^n) Walsh-Hadamard spectra of the component signs of
    a table or a stack of tables (..., 2^n) with m output bits."""
    return _fwht_rows(_signs(tables, m))


def _leakage_spectra(spectra: np.ndarray, beta: int) -> np.ndarray:
    """W_u (..., 2^n) of u = m - 2 HW(F ^ beta): sum_i (-1)^b_i W_i."""
    return _signs(beta, spectra.shape[-2]) @ spectra


def _leakage_autocorrelation(spectra: np.ndarray, beta: int) -> np.ndarray:
    """A[a] = sum_x u(x) u(x^a) of u = m - 2 HW(F ^ beta), along the last
    axis."""
    w_u = _leakage_spectra(spectra, beta)
    return _correlate(w_u * w_u)


def _score(sbox: SBox, total: int) -> float:
    """m - total / (4^n - 2^n), the one division of the TO family."""
    return sbox.m - total / (sbox.size * sbox.size - sbox.size)


# ---------------------------------------------------------------------------
# Confusion coefficient variance


@dataclass(frozen=True)
class CcvKey:
    """Exact integer surrogate that orders S-boxes identically to CCV.

    With N = 2^n - 1 nonzero key differences and S the integer profile,
    key = N * sum(S^2) - sum(S)^2, and CCV = key / (N^2 * 2^(2n)).  This
    class is the one place the key and the CCV are formed from the two sums;
    climb comparisons use `key` so acceptance never depends on float rounding.
    """

    n: int
    sum_s: int
    sum_s2: int

    @property
    def key(self) -> int:
        """N * sum(S^2) - sum(S)^2, in exact integers."""
        count = (1 << self.n) - 1
        return count * self.sum_s2 - self.sum_s * self.sum_s

    @property
    def value(self) -> float:
        """CCV as a float."""
        count = (1 << self.n) - 1
        return self.key / (count * count * (1 << (2 * self.n)))


def kappa_profile(sbox: SBox) -> np.ndarray:
    """Integer confusion-coefficient profile under the Hamming-weight leakage,
    a read-only int64 array of length 2^n.

    profile[d] = sum_x (HW(F(x)) - HW(F(x^d)))^2 for key difference d >= 1;
    profile[0] is 0.  The (real-valued) confusion coefficient for difference
    d is profile[d] / 2^n.  With h the Hamming-weight table, the sum is
    2 sum_x (h(x)^2 - h(x) h(x^d)) = (A[0] - A[d]) / 2, where A is the
    autocorrelation of the beta = 0 leakage vector u = m - 2h.
    `ccv_key_from_profile` sums it into a `CcvKey`, which forms the key.
    """
    corr = _leakage_autocorrelation(_spectra(sbox.table, sbox.m), 0)
    profile = (corr[0] - corr) // 2
    profile.flags.writeable = False
    return profile


def ccv_key_from_profile(profile: np.ndarray) -> CcvKey:
    """Exact comparison key of a profile (arbitrary-precision sums); n is
    log2 of the profile's length."""
    values = [int(v) for v in profile[1:]]
    return CcvKey(profile.size.bit_length() - 1, sum(values), sum(v * v for v in values))


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
    spectra = _spectra(sbox.table, sbox.m)
    c = np.empty((sbox.m, sbox.m, sbox.size), dtype=np.int64)
    for i in range(sbox.m):
        c[i] = _correlate(spectra[i] * spectra)
    c.flags.writeable = False
    return c


def _stack_scores(sboxes: SBox | Iterable[SBox], totals, beta: int = 0) -> float | list[float]:
    """The TO-family score of one S-box, or the list of the scores of a
    sequence of S-boxes of one (n, m); `totals(spectra)` maps spectra
    (k, m, 2^n) to the k totals.

    A sequence is stacked and scored in blocks of at most `_SWEEP_ELEMENTS`
    int64 entries (members x m x 2^n), at least one member each; one S-box
    is a stack of one, a view of its table.  Each total becomes a Python int
    before `_score`, so a value does not depend on its block.  ValueError
    for a sequence of mixed widths or a beta that does not fit in m bits;
    an empty sequence gives [].
    """
    if isinstance(sboxes, SBox):
        _check_beta(sboxes, beta)
        return _score(sboxes, totals(_spectra(sboxes.table[None], sboxes.m)).item())
    sboxes = list(sboxes)
    if not sboxes:
        return []
    first = sboxes[0]
    if any((sbox.n, sbox.m) != (first.n, first.m) for sbox in sboxes):
        raise ValueError("the S-boxes of a sequence must share n and m")
    _check_beta(first, beta)
    per_block = max(1, _SWEEP_ELEMENTS // (first.m * first.size))
    values = []
    for start in range(0, len(sboxes), per_block):
        tables = np.stack([sbox.table for sbox in sboxes[start : start + per_block]])
        values += [_score(first, total) for total in totals(_spectra(tables, first.m)).tolist()]
    return values


def transparency_order(sboxes: SBox | Iterable[SBox]) -> float | list[float]:
    """Transparency order under the Hamming-weight model (lower = stronger)
    of one S-box, or the list of them for a sequence of S-boxes of one
    (n, m) (`_stack_scores`).

    TO(F) = m - (1/(4^n - 2^n)) * sum_{a != 0} |m 2^n - 2 sum_x HW(F(x) ^ F(x^a))|.
    Each a-term equals |sum_j C[j, j, a]|, the absolute diagonal column sum of
    the cross-correlation spectrum: the inverse transform of sum_j W_j^2
    (exactly, in integers).
    """

    def totals(spectra):
        diag_sum = _correlate((spectra * spectra).sum(axis=-2))
        return np.abs(diag_sum[:, 1:]).sum(axis=-1)

    return _stack_scores(sboxes, totals)


def _check_beta(sbox: SBox, beta: int) -> None:
    try:
        beta = operator.index(beta)
    except TypeError:
        raise ValueError(f"beta {beta!r} is not an integer") from None
    if not 0 <= beta < (1 << sbox.m):
        raise ValueError(f"beta {beta} does not fit in m={sbox.m} bits")


def mto_beta(sboxes: SBox | Iterable[SBox], beta: int) -> float | list[float]:
    """Modified transparency order for one pre-charge beta, of one S-box or
    of each of a sequence (`_stack_scores`).

    m - (1/(4^n - 2^n)) * sum_{a != 0} sum_j |sum_i (-1)^(b_i ^ b_j) C[i, j, a]|;
    the absolute value sits inside the outer component sum.  The inner sum
    sum_i (-1)^b_i C[i, j, a] is the correlation of u = m - 2 HW(F ^ beta)
    with component j, the inverse transform of W_u W_j.
    """

    def totals(spectra):
        inner = _correlate(_leakage_spectra(spectra, beta)[:, None] * spectra)
        # |s_j * inner[j]| = |inner[j]| since s_j is a sign.
        return np.abs(inner[:, :, 1:]).sum(axis=(1, 2))

    return _stack_scores(sboxes, totals, beta)


def rto_beta(sboxes: SBox | Iterable[SBox], beta: int) -> float | list[float]:
    """Revised transparency order for one pre-charge beta, of one S-box or
    of each of a sequence (`_stack_scores`).

    Same sum as mto_beta but with the absolute value outside both component
    sums, so rto_beta >= mto_beta pointwise.  The double sum is the
    autocorrelation of u = m - 2 HW(F ^ beta), the inverse transform of
    W_u^2, so it depends only on the sequence HW(F(x) ^ beta).
    """

    def totals(spectra):
        outer = _leakage_autocorrelation(spectra, beta)
        return np.abs(outer[:, 1:]).sum(axis=-1)

    return _stack_scores(sboxes, totals, beta)


def mto_beta_zero(sboxes: SBox | Iterable[SBox]) -> float | list[float]:
    """MTO restricted to beta = 0 (the Hamming-weight model)."""
    return mto_beta(sboxes, 0)


def rto_beta_zero(sboxes: SBox | Iterable[SBox]) -> float | list[float]:
    """RTO restricted to beta = 0 (the Hamming-weight model)."""
    return rto_beta(sboxes, 0)


def _flip(bit: int, c, signs, half, quarter) -> None:
    """Flip sign `bit`, which every row of the block shares, in place.

    With s the sign before the flip, inner' = inner - 2 s C[bit] and, as
    C[i, j] = C[j, i], A' = A - 4 s inner[bit] + 4 C[bit, bit]; in halves
    and quarters, half' = half - s C[bit] and quarter' = quarter -
    s (half[bit] + half'[bit]): one pass over the block and two over its
    rows of A.
    """
    before = signs[0, bit]
    signs[:, bit] = -before
    step = np.subtract if before > 0 else np.add
    step(quarter, half[:, bit], out=quarter)
    step(half, c[bit], out=half)
    step(quarter, half[:, bit], out=quarter)


def _block_bits(sbox: SBox) -> int:
    """L, the number of low signs one block of the sweep spans: the largest
    L <= m - 1 with 2^L m 2^n <= _SWEEP_ELEMENTS, else 0."""
    fit = _SWEEP_ELEMENTS // (sbox.m * sbox.size)
    return max(0, min(sbox.m - 1, fit.bit_length() - 1))


def _precharge_sweep(sbox: SBox):
    """Yield (signs, half, quarter) blocks that cover each pre-charge
    representative (top sign +1) once, one per row: signs[r, i] = (-1)^b_i,
    half[r] = inner / 2 with inner[j, a] = sum_i signs[r, i] C[i, j, a], and
    quarter[r] = A / 4 with A[a] = sum_j signs[r, j] inner[j, a] the
    autocorrelation of u.  Both divisions are exact (module docstring).

    The block holds 2^L rows, L = `_block_bits(sbox)`; row r's low L signs
    are the bits of r, doubled from the all-+1 row.  Step k of the walk then
    flips, in every row, sign L + (the lowest set bit of k), in Gray-code
    order.  The arrays are updated in place and reused.
    """
    c = cross_correlation_fast(sbox)
    m, size = sbox.m, sbox.size
    low = _block_bits(sbox)
    signs = np.ones((1 << low, m), dtype=np.int64)
    half = np.empty((1 << low, m, size), dtype=np.int64)
    quarter = np.empty((1 << low, size), dtype=np.int64)
    half[0] = c.sum(axis=0) // 2
    quarter[0] = half[0].sum(axis=0) // 2
    for k in range(low):
        rows = slice(1 << k, 2 << k)
        for block in (signs, half, quarter):
            block[rows] = block[: 1 << k]
        _flip(k, c, signs[rows], half[rows], quarter[rows])
    yield signs, half, quarter
    for k in range(1, 1 << (m - 1 - low)):
        _flip(low + (k & -k).bit_length() - 1, c, signs, half, quarter)
        yield signs, half, quarter


@functools.lru_cache(maxsize=1)
def _precharge_minima(sbox: SBox) -> tuple[int, int]:
    """The smallest MTO total and the smallest RTO total over all
    pre-charges, from one sweep; `mto` and `rto` of one S-box share it."""
    rows = 1 << _block_bits(sbox)
    magnitude = np.empty((rows, sbox.m, sbox.size), dtype=np.int64)
    auto_magnitude = np.empty((rows, sbox.size), dtype=np.int64)
    # Each row's totals over a != 0 of |half| and |quarter|, by block.
    totals = np.empty((2, (1 << (sbox.m - 1)) // rows, rows), dtype=np.int64)
    for k, (_, half, quarter) in enumerate(_precharge_sweep(sbox)):
        np.abs(half, out=magnitude)
        np.abs(quarter, out=auto_magnitude)
        magnitude[:, :, 0] = auto_magnitude[:, 0] = 0
        magnitude.reshape(rows, -1).sum(axis=1, out=totals[0, k])
        auto_magnitude.sum(axis=1, out=totals[1, k])
    mto_half, rto_quarter = totals.min(axis=(1, 2)).tolist()
    return 2 * mto_half, 4 * rto_quarter


def mto(sbox: SBox) -> float:
    """Full MTO: maximum of mto_beta over all pre-charges, taken at the
    smallest total, since the score falls as the total grows."""
    return _score(sbox, _precharge_minima(sbox)[0])


def rto(sbox: SBox) -> float:
    """Full RTO: maximum of rto_beta over all pre-charges, taken at the
    smallest total."""
    return _score(sbox, _precharge_minima(sbox)[1])


def _each(metric, sboxes):
    """metric(sbox) of one S-box, or the list of it over a sequence."""
    return metric(sboxes) if isinstance(sboxes, SBox) else [metric(s) for s in sboxes]


# Each lambda looks its function up at call time, so a wrapper installed on a
# module attribute sees every evaluation: each S-box for ccv, mto and rto,
# and each batch, whole, for the other three.
_METRICS = {
    "ccv": lambda sboxes: _each(ccv, sboxes),
    "to": lambda sboxes: transparency_order(sboxes),
    "mto0": lambda sboxes: mto_beta_zero(sboxes),
    "rto0": lambda sboxes: rto_beta_zero(sboxes),
    "mto": lambda sboxes: _each(mto, sboxes),
    "rto": lambda sboxes: _each(rto, sboxes),
}
METRIC_NAMES = tuple(_METRICS)


def metric_value(sboxes: SBox | Iterable[SBox], name: str) -> float | list[float]:
    """Evaluate the metric called `name` on one S-box (a float), or on each
    of a sequence of S-boxes of one (n, m) (a list of floats, in order)."""
    if name not in _METRICS:
        raise ValueError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
    return _METRICS[name](sboxes)
