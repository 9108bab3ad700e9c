"""Reference computations the benchmark checks sboxtraj's outputs against.

Nothing here imports sboxtraj.  Every value is computed from its definition
by direct summation in exact integers (fractions for the final division), or,
for the local-optimality scan, from an identity derived here independently of
the program's delta update.  Each check returns a list of problems; an empty
list means the output passed.
"""

import csv
import io
import json
import math
import statistics
from fractions import Fraction

import numpy as np

# Relative tolerance for comparing a printed float with an exact rational.
# The program divides once at the end, so it is off by at most a few ulps.
REL_TOL = 1e-12
# Statistics the benchmark recomputes from printed values, in another order.
STAT_TOL = 1e-9


def close(value: float, exact) -> bool:
    return math.isclose(float(value), float(exact), rel_tol=REL_TOL, abs_tol=REL_TOL)


def hamming_weights(table, m: int) -> np.ndarray:
    weights = np.array([bin(v).count("1") for v in range(1 << m)], dtype=np.int64)
    return weights[np.asarray(table, dtype=np.int64)]


def aes_sbox() -> list[int]:
    """The AES S-box from its definition: inversion in GF(2^8), then the
    affine map b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i, c = 0x63."""

    def mul(a: int, b: int) -> int:
        product = 0
        while b:
            if b & 1:
                product ^= a
            a = (a << 1) ^ (0x11B if a & 0x80 else 0)
            b >>= 1
        return product

    table = []
    for x in range(256):
        inv = next((y for y in range(1, 256) if mul(x, y) == 1), 0)
        out = 0
        for i in range(8):
            bit = (0x63 >> i) & 1
            for k in (0, 4, 5, 6, 7):
                bit ^= (inv >> ((i + k) % 8)) & 1
            out |= bit << i
        table.append(out)
    return table


# The AES values of the paper's metrics as exact rationals.
AES_EXPECTED = {
    "ccv": Fraction(926407, 8323200),
    "to": Fraction(32069, 4080),
    "mto0": Fraction(28027, 4080),
    "rto0": Fraction(179, 24),
}


# ---------------------------------------------------------------------------
# CCV


def ccv_profile(table, n: int, m: int) -> np.ndarray:
    """S[d] = sum_x (HW(F(x)) - HW(F(x^d)))^2 for d = 1 .. 2^n - 1."""
    h = hamming_weights(table, m)
    xs = np.arange(1 << n)
    diff = h[None, :] - h[xs[1:, None] ^ xs[None, :]]
    return (diff * diff).sum(axis=1)


def ccv_key(profile: np.ndarray) -> int:
    """N * sum(S^2) - sum(S)^2: orders S-boxes as CCV does, exactly."""
    values = [int(v) for v in profile]
    total = sum(values)
    return len(values) * sum(v * v for v in values) - total * total


def ccv_exact(table, n: int, m: int) -> Fraction:
    """Population variance of S[d] / 2^n over the nonzero differences d."""
    count = (1 << n) - 1
    return Fraction(ccv_key(ccv_profile(table, n, m)), count * count * (1 << (2 * n)))


def improving_swaps(table, n: int, m: int) -> int:
    """Number of weight-differing swaps (i, j) that raise the CCV key.

    With h' = h + delta (e_i - e_j), delta = h[j] - h[i], and S[d] = 2 sum h^2
    - 2 sum_x h[x] h[x^d], expanding the autocorrelation gives
    S'[d] = S[d] - 4 delta (h[i^d] - h[j^d]) + 4 delta^2 [d = i^j].
    """
    h = hamming_weights(table, m)
    size = 1 << n
    profile = ccv_profile(table, n, m)
    count = size - 1
    base = ccv_key(profile)
    ds = np.arange(1, size)
    found = 0
    for i in range(size - 1):
        js = np.arange(i + 1, size)
        js = js[h[js] != h[i]]
        if js.size == 0:
            continue
        delta = h[js] - h[i]
        change = -4 * delta[:, None] * (h[i ^ ds][None, :] - h[js[:, None] ^ ds[None, :]])
        change[np.arange(js.size), (i ^ js) - 1] += 4 * delta * delta
        new = profile[None, :] + change
        sums = new.sum(axis=1)
        keys = count * (new * new).sum(axis=1) - sums * sums
        found += int(np.count_nonzero(keys > base))
    return found


# ---------------------------------------------------------------------------
# Transparency-order family


def spectrum(table, n: int, m: int) -> np.ndarray:
    """C[i, j, a] = sum_x (-1)^(F_i(x) xor F_j(x^a)) by direct summation."""
    t = np.asarray(table, dtype=np.int64)
    signs = 1 - 2 * ((t[None, :] >> np.arange(m)[:, None]) & 1)
    xs = np.arange(1 << n)
    shifted = signs[:, xs[:, None] ^ xs[None, :]]  # [j, a, x] = s_j(x ^ a)
    return np.einsum("ix,jax->ija", signs, shifted)


def transparency_order(table, n: int, m: int) -> Fraction:
    """m - sum_{a != 0} |m 2^n - 2 sum_x HW(F(x) ^ F(x^a))| / (4^n - 2^n)."""
    t = np.asarray(table, dtype=np.int64)
    size = 1 << n
    xs = np.arange(size)
    weights = hamming_weights((t[None, :] ^ t[xs[1:, None] ^ xs[None, :]]).ravel(), m)
    sums = weights.reshape(size - 1, size).sum(axis=1)
    total = int(np.abs(m * size - 2 * sums).sum())
    return m - Fraction(total, size * size - size)


def beta_family(c: np.ndarray, n: int, m: int) -> dict[str, Fraction]:
    """mto0, rto0, and mto / rto as maxima over all 2^m pre-charges beta.

    MTO_beta = m - sum_{a != 0} sum_j |sum_i (-1)^(b_i ^ b_j) C[i, j, a]| / (4^n - 2^n);
    RTO_beta takes the absolute value outside both component sums.
    """
    size = 1 << n
    betas = np.arange(1 << m)
    bits = (betas[:, None] >> np.arange(m)[None, :]) & 1
    weight = 1 - 2 * (bits[:, :, None] ^ bits[:, None, :])  # [beta, i, j]
    inner = np.einsum("bij,ija->bja", weight, c)[:, :, 1:]
    mto_totals = np.abs(inner).sum(axis=(1, 2))
    rto_totals = np.abs(inner.sum(axis=1)).sum(axis=1)
    den = size * size - size
    return {
        "mto0": m - Fraction(int(mto_totals[0]), den),
        "rto0": m - Fraction(int(rto_totals[0]), den),
        "mto": m - Fraction(int(mto_totals.min()), den),
        "rto": m - Fraction(int(rto_totals.min()), den),
    }


# ---------------------------------------------------------------------------
# Output checks, one per CLI command


def check_metrics(stdout: bytes, table, n: int, m: int, expected=None) -> list[str]:
    """`metrics --format json` output against the direct definitions."""
    try:
        values = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    want = {"ccv": ccv_exact(table, n, m), "to": transparency_order(table, n, m)}
    want.update(beta_family(spectrum(table, n, m), n, m))
    problems = []
    if set(values) != set(want):
        problems.append(f"metric names {sorted(values)} != {sorted(want)}")
    for name, exact in want.items():
        if name in values and not close(values[name], exact):
            problems.append(f"{name} = {values[name]!r}, direct sum gives {float(exact)!r}")
    for name, exact in (expected or {}).items():
        if name in values and not close(values[name], exact):
            problems.append(f"{name} = {values[name]!r}, expected {exact}")
    return problems


def check_search(sbox_text: bytes, climbs_csv: bytes, n: int) -> list[str]:
    """Final S-box and climbs CSV of one `search` run."""
    try:
        table = [int(tok) for tok in sbox_text.split()]
    except ValueError as exc:
        return [f"final S-box does not parse: {exc}"]
    if sorted(table) != list(range(1 << n)):
        return [f"final S-box is not a permutation of 0..{(1 << n) - 1}"]
    rows = list(csv.reader(io.StringIO(climbs_csv.decode())))
    if not rows or rows[0] != ["run_id", "climb_index", "i", "j", "ccv"]:
        return ["climbs CSV header is wrong"]
    rows = rows[1:]
    if not rows:
        return ["climbs CSV has no climbs"]
    problems = []
    if [int(r[1]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("climb_index is not 1, 2, 3, ...")
    ccvs = [float(r[4]) for r in rows]
    if any(b <= a for a, b in zip(ccvs, ccvs[1:])):
        problems.append("ccv column does not strictly increase")
    final_ccv = ccv_exact(table, n, n)
    if not close(ccvs[-1], final_ccv):
        problems.append(f"last climb ccv {ccvs[-1]!r} != CCV(final) {float(final_ccv)!r}")
    improving = improving_swaps(table, n, n)
    if improving:
        problems.append(f"{improving} weight-differing swaps still raise the CCV")
    return problems


def check_experiment(
    trajectories_csv: bytes, summary_json: bytes, n: int, metric: str, runs: int
) -> list[str]:
    """trajectories.csv and summary.json of one `experiment` command."""
    try:
        summary = json.loads(summary_json)
    except ValueError as exc:
        return [f"summary.json is not JSON: {exc}"]
    rows = list(csv.reader(io.StringIO(trajectories_csv.decode())))
    if not rows or rows[0] != ["run_id", "climb_index", "mean_ccv", "mean_metric", "metric"]:
        return ["trajectories.csv header is wrong"]
    by_run: dict[int, list[tuple[float, float]]] = {}
    problems = []
    for run_id, _climb, x, y, name in rows[1:]:
        if name != metric:
            problems.append(f"metric column {name!r} != {metric!r}")
            break
        by_run.setdefault(int(run_id), []).append((float(x), float(y)))
    if sorted(by_run) != list(range(runs)) or summary.get("degenerate_runs"):
        problems.append(f"runs with points {sorted(by_run)}, expected 0..{runs - 1}")
    # 0 <= TO <= m; for MTO0, each |inner sum| is at most m 2^n, so m - m^2 <= MTO0 <= m.
    low = 0 if metric == "to" else n - n * n
    rs = []
    for run_id, points in sorted(by_run.items()):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            problems.append(f"run {run_id}: mean_ccv does not strictly increase")
        if not all(low <= y <= n for y in ys):
            problems.append(f"run {run_id}: {metric} outside [{low}, {n}]")
        r = statistics.correlation(xs, ys)
        rs.append(r)
        if not r < 0:
            problems.append(f"run {run_id}: Pearson r = {r} is not negative")
    printed = dict((run_id, r) for run_id, r in summary.get("pearson_by_run", []))
    for run_id, r in zip(sorted(by_run), rs):
        if run_id not in printed or abs(printed[run_id] - r) > STAT_TOL:
            problems.append(f"run {run_id}: printed r {printed.get(run_id)} != {r}")
    if len(rs) >= 2:
        mean, std = statistics.mean(rs), statistics.stdev(rs)
        if abs(summary.get("mean", math.nan) - mean) > STAT_TOL:
            problems.append(f"mean {summary.get('mean')} != {mean}")
        if abs(summary.get("std", math.nan) - std) > STAT_TOL:
            problems.append(f"std {summary.get('std')} != {std}")
    return problems
