"""Quick self-test of the benchmark harness.

Runs every workload, untraced and traced, at tiny widths (n = 4/5) through
the same passes and checks as the real runs, and shows that the checks
reject wrong outputs.  Takes a few seconds:

    PYTHONPATH=src python -m pytest -q perfbench/test_selftest.py
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
from workloads import WARMUP, WORKLOADS, Op, make_ops

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Layers each workload must reach, as per-layer counts that must be positive.
USED = {
    "exp-mto0-n8": ("trajectory.points", "rng.shuffle.calls", "metrics.mto_beta.calls",
                    "search.climbs", "sbox.hw_class_shuffle.calls"),
    "exp-to-n8": ("trajectory.points", "metrics.transparency_order.calls",
                  "trajectory.metric_value.calls", "search.evaluations"),
    "search-n9": ("search.ls_hwf.calls", "search.climbs", "search.ls_hwf.peak_alloc_mb"),
    "metrics-n8": ("metrics.cross_correlation_fast.calls", "metrics.rto_beta.calls",
                   "metrics.kappa_profile.calls"),
}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert sorted(WARMUP) == sorted(WORKLOADS)
    assert all(WARMUP[name].kind == w.kind for name, w in WORKLOADS.items())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WARMUP))
def test_tiny_workload(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_STARTS", 1)
    result = run.bench(WARMUP[name], seed=7, seconds=0, trace=trace, out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    ops = len(make_ops(WARMUP[name], 7, tmp_path))
    assert result["attempted"] == (3 if trace else 1) * ops
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert values["cli.main.calls"] == ops
        assert all(values[k] > 0 for k in USED[name]), {k: values[k] for k in USED[name]}
        assert (tmp_path / "spans.csv").is_file()
    else:
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
        }
        assert all(v > 0 for v in values.values())


def test_failed_commands_are_counted(tmp_path):
    cli = run.import_cli()
    ops = [Op(["metrics", "--sbox", str(tmp_path / "missing.txt"), "--n", "4"], (),
              lambda out: [])]
    ledger = run.Ledger(ops)
    for _ in range(3):
        ledger.record(run.run_pass(cli, ops)[1])
    assert ledger.verify() == 3 and sum(ledger.attempts) == 3


def _outputs(workload, tmp_path):
    cli = run.import_cli()
    ops = make_ops(workload, 3, tmp_path)
    ledger = run.Ledger(ops)
    ledger.record(run.run_pass(cli, ops)[1])
    assert ledger.verify() == 0
    return ops, ledger.reference


def test_checks_reject_wrong_metrics(tmp_path):
    ops, outputs = _outputs(WARMUP["metrics-n8"], tmp_path)
    for op, (stdout,) in zip(ops, outputs):
        values = json.loads(stdout)
        values["mto"] += 1e-9
        assert op.check(json.dumps(values).encode())


def test_checks_reject_wrong_search(tmp_path):
    ops, outputs = _outputs(WARMUP["search-n9"], tmp_path)
    final, climbs = outputs[0]
    table = [int(t) for t in final.split()]
    i = next(k for k in range(1, 32) if bin(table[k]).count("1") != bin(table[0]).count("1"))
    table[0], table[i] = table[i], table[0]
    assert ops[0].check(" ".join(map(str, table)).encode(), climbs)
    lines = climbs.splitlines()
    assert ops[0].check(final, b"\n".join(lines[:-2] + [lines[-1], lines[-2]]))


def test_checks_reject_wrong_experiment(tmp_path):
    ops, ((trajectories, summary),) = _outputs(WARMUP["exp-to-n8"], tmp_path)
    doc = json.loads(summary)
    doc["std"] *= 1.001
    assert ops[0].check(trajectories, json.dumps(doc).encode())
    header, *rows = trajectories.splitlines()
    assert ops[0].check(b"\n".join([header] + rows[::-1]), summary)


def test_swap_identity_against_brute_force():
    rnd = random.Random(5)
    weight = [bin(v).count("1") for v in range(16)]
    for _ in range(10):
        table = list(range(16))
        rnd.shuffle(table)
        base = checks.ccv_key(checks.ccv_profile(table, 4, 4))
        improving = 0
        for i in range(16):
            for j in range(i + 1, 16):
                if weight[table[i]] != weight[table[j]]:
                    swapped = table[:]
                    swapped[i], swapped[j] = table[j], table[i]
                    improving += checks.ccv_key(checks.ccv_profile(swapped, 4, 4)) > base
        assert checks.improving_swaps(table, 4, 4) == improving


def test_references_on_aes_and_identity():
    aes = checks.aes_sbox()
    assert aes[:4] == [0x63, 0x7C, 0x77, 0x7B] and sorted(aes) == list(range(256))
    assert checks.ccv_exact(aes, 8, 8) == checks.AES_EXPECTED["ccv"]
    assert checks.transparency_order(aes, 8, 8) == checks.AES_EXPECTED["to"]
    family = checks.beta_family(checks.spectrum(aes, 8, 8), 8, 8)
    assert family["mto0"] == checks.AES_EXPECTED["mto0"]
    assert family["rto0"] == checks.AES_EXPECTED["rto0"]
    # The 2-bit identity: CCV 2/9, TO 4/3, MTO0 0, RTO0 4/3.
    ident = [0, 1, 2, 3]
    assert checks.ccv_exact(ident, 2, 2) == Fraction(2, 9)
    assert checks.transparency_order(ident, 2, 2) == Fraction(4, 3)
    family = checks.beta_family(checks.spectrum(ident, 2, 2), 2, 2)
    assert (family["mto0"], family["rto0"]) == (0, Fraction(4, 3))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metrics-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
