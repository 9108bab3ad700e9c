"""Acceptance gate: every criterion asserts its stated band/tolerance and
records one PASS/FAIL line, printed in the terminal summary.

Every experiment cell runs the paper's full 30-run protocol.
"""

import time

import numpy as np
import pytest

from sboxtraj import (
    RngStream,
    ccv,
    ccv_key,
    cross_correlation_fast,
    hw_class_shuffle,
    ls_hwf,
    mto,
    mto_beta_zero,
    random_bijective_sbox,
    rto,
    rto_beta_zero,
    run_experiment,
    swap_outputs,
    transparency_order,
)
from sboxtraj.cli import main as cli_main

import _report
from builders import constant_sbox, identity_sbox
from oracles import (
    ccv_bruteforce_ordered,
    cross_correlation_naive,
    hw,
    mto_beta_from_table,
    rto_beta_from_table,
)

RUNS_8X8 = 30
TABLE1_8X8_BAND = -0.98
MASTER_SEED = 1

EXPERIMENT_CELLS = {
    ("to", 4): dict(runs=30, band=(-0.95, -0.75)),
    ("to", 5): dict(runs=30, band=(None, -0.95)),
    ("to", 8): dict(runs=RUNS_8X8, band=(None, TABLE1_8X8_BAND)),
    ("mto0", 4): dict(runs=30, band=(None, -0.90)),
    ("mto0", 5): dict(runs=30, band=(None, -0.99)),
    ("mto0", 8): dict(runs=RUNS_8X8, band=(None, -0.97)),
    ("rto0", 4): dict(runs=30, band=(None, -0.40)),
    ("rto0", 5): dict(runs=30, band=(None, -0.85)),
    ("rto0", 8): dict(runs=RUNS_8X8, band=(None, -0.96)),
}


@pytest.fixture(scope="module")
def experiments():
    """All nine experiment cells, computed once: (metric, n) -> (summary, secs)."""
    cells = {}
    for (metric, n), cfg in EXPERIMENT_CELLS.items():
        start = time.perf_counter()
        summary = run_experiment(
            n=n, metric=metric, runs=cfg["runs"], master_seed=MASTER_SEED
        )
        cells[(metric, n)] = (summary, time.perf_counter() - start)
    return cells


def check_band(summary, band):
    low, high = band
    assert summary.mean is not None, "no usable runs"
    assert summary.mean <= high, f"mean {summary.mean:.6f} above {high}"
    if low is not None:
        assert summary.mean >= low, f"mean {summary.mean:.6f} below {low}"


def cell_detail(summary, elapsed):
    return f"n={summary.n} runs={summary.runs} mean={summary.mean:.6f} ({elapsed:.0f}s)"


def test_shuffle_invariance():
    start = time.perf_counter()
    with _report.criterion(
        "shuffle-invariance: exact CcvKey equality under class shuffles"
    ) as crit:
        for n in (3, 4, 5, 8):
            pairs = range(100)
            sboxes = [random_bijective_sbox(n, RngStream(1000 + n, (pair, 0))) for pair in pairs]
            rngs = [RngStream(1000 + n, (pair, 1)) for pair in pairs]
            for pair, shuffled in enumerate(hw_class_shuffle(sboxes, rngs)):
                assert ccv_key(shuffled) == ccv_key(sboxes[pair]), f"n={n} pair={pair}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"took {elapsed:.1f}s, limit 30s"
        crit.detail = f"4 widths x 100 pairs, {elapsed:.1f}s"


def test_oracle_equivalence_metrics():
    start = time.perf_counter()
    with _report.criterion(
        "oracle-equivalence: fast vs naive, full-beta maxima, brute-force CCV"
    ) as crit:
        for n in (3, 4, 5):
            for case in range(50):
                sbox = random_bijective_sbox(n, RngStream(2000 + n, (case,)))
                naive = cross_correlation_naive(sbox)
                assert np.array_equal(cross_correlation_fast(sbox), naive)
                assert mto(sbox) == max(
                    mto_beta_from_table(naive, beta) for beta in range(1 << n)
                )
                assert rto(sbox) == max(
                    rto_beta_from_table(naive, beta) for beta in range(1 << n)
                )
                assert ccv(sbox) == pytest.approx(
                    ccv_bruteforce_ordered(sbox.table, n), rel=1e-12
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"took {elapsed:.1f}s, limit 120s"
        crit.detail = f"3 widths x 50 S-boxes, {elapsed:.1f}s"


def test_analytic_fixed_points():
    with _report.criterion("analytic-fixed-points: constant and identity 2x2 values") as crit:
        const = constant_sbox(4, 4, 0)
        assert ccv(const) == 0.0
        assert transparency_order(const) == 0.0
        ident = identity_sbox(2)
        assert ccv(ident) == pytest.approx(2 / 9, rel=1e-12)
        assert transparency_order(ident) == pytest.approx(4 / 3, rel=1e-12)
        assert mto_beta_zero(ident) == pytest.approx(0.0, abs=1e-12)
        assert rto_beta_zero(ident) == pytest.approx(4 / 3, rel=1e-12)
        crit.detail = "CCV=0/TO=0 exact; 2/9, 4/3, 0, 4/3 at 1e-12"


def test_metric_inequalities():
    with _report.criterion("metric-inequalities: TO/MTO0/RTO0 bounds over random S-boxes") as crit:
        for n in (4, 5, 8):
            for case in range(100):
                sbox = random_bijective_sbox(n, RngStream(3000 + n, (case,)))
                to_v = transparency_order(sbox)
                mto0 = mto_beta_zero(sbox)
                rto0 = rto_beta_zero(sbox)
                assert 0.0 <= to_v <= n, f"TO={to_v} n={n} case={case}"
                assert mto0 <= rto0 <= n, f"MTO0={mto0} RTO0={rto0} n={n} case={case}"
                assert mto(sbox) >= mto0
                assert rto(sbox) >= rto0
        crit.detail = "3 widths x 100 S-boxes, zero violations"


def test_search_correctness():
    start = time.perf_counter()
    with _report.criterion(
        "search-correctness: 30 runs locally optimal, strict climbs, exact deltas"
    ) as crit:
        for run in range(30):
            result = ls_hwf(4, RngStream(4000, (run,)))
            keys = [ccv_key(result.initial).key] + [
                e.ccv_key_after.key for e in result.events
            ]
            assert all(b > a for a, b in zip(keys, keys[1:])), f"run={run}"
            sbox = result.initial
            for e in result.events:
                sbox = swap_outputs(sbox, e.i, e.j)
                assert e.ccv_key_after == ccv_key(sbox), f"run={run}"
            final = result.final
            base = ccv_key(final).key
            for i in range(final.size - 1):
                for j in range(i + 1, final.size):
                    if hw(final.table[i]) == hw(final.table[j]):
                        continue
                    cand = ccv_key(swap_outputs(final, i, j)).key
                    assert cand <= base, f"run={run}: swap ({i},{j}) improves"
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"took {elapsed:.1f}s, limit 60s"
        crit.detail = f"{elapsed:.1f}s"


@pytest.mark.parametrize("n", [4, 5, 8])
def test_table1_to_reproduction(experiments, n):
    summary, elapsed = experiments[("to", n)]
    band = EXPERIMENT_CELLS[("to", n)]["band"]
    with _report.criterion(f"table1-to-{n}x{n}: mean in band {band}") as crit:
        check_band(summary, band)
        limit = 1800 if n == 8 else 300
        assert elapsed < limit, f"took {elapsed:.0f}s, limit {limit}s"
        crit.detail = cell_detail(summary, elapsed)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_table2_mto0_reproduction(experiments, n):
    summary, elapsed = experiments[("mto0", n)]
    band = EXPERIMENT_CELLS[("mto0", n)]["band"]
    with _report.criterion(f"table2-mto0-{n}x{n}: mean in band {band}") as crit:
        check_band(summary, band)
        crit.detail = cell_detail(summary, elapsed)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_table3_rto0_reproduction(experiments, n):
    summary, elapsed = experiments[("rto0", n)]
    band = EXPERIMENT_CELLS[("rto0", n)]["band"]
    with _report.criterion(f"table3-rto0-{n}x{n}: mean in band {band} (sample size 1)") as crit:
        assert summary.sample_size == 1
        check_band(summary, band)
        crit.detail = cell_detail(summary, elapsed)


def test_qualitative_trend(experiments):
    with _report.criterion(
        "qualitative-trend: every space/metric correlation mean is negative"
    ) as crit:
        for (metric, n), (summary, _) in experiments.items():
            assert summary.mean is not None and summary.mean < 0, f"{metric} {n}x{n}"
        crit.detail = "9/9 cells negative"


def test_determinism_byte_identical_rerun(tmp_path):
    with _report.criterion(
        "determinism: identical flags+seed give byte-identical output files"
    ) as crit:
        for tag, args in {
            "4x4": ["--n", "4", "--metric", "to", "--runs", "5", "--sample-size", "10"],
            "5x5": ["--n", "5", "--metric", "rto0", "--runs", "4"],
        }.items():
            dirs = [tmp_path / f"{tag}-a", tmp_path / f"{tag}-b"]
            for out_dir in dirs:
                code = cli_main(
                    ["experiment", *args, "--seed", "3", "--out-dir", str(out_dir)]
                )
                assert code == 0, f"{tag}: exit {code}"
            for fname in ("trajectories.csv", "summary.json"):
                assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes(), (
                    f"{tag}: {fname} differs"
                )
        crit.detail = "two configs, both files byte-equal"
