"""The benchmark's workloads: inputs made from a seed, and the CLI commands
of one pass over them, each with the check its output must pass.

See README.md for why each workload exists and which layers it stresses.
"""

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

ALL_METRICS = "ccv,to,mto0,rto0,mto,rto"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "experiment", "search" or "metrics"
    n: int
    metric: str = ""  # experiment: to or mto0
    runs: int = 2  # experiment: hill-climber runs per command
    sample_size: int = 0  # experiment: S-boxes per climb sample
    count: int = 1  # search: seeds per pass; metrics: random S-box files


@dataclass(frozen=True)
class Op:
    """One CLI command.  `outputs` are the files it writes; with none, its
    output is what it prints.  `check` gets those outputs as bytes and
    returns the problems found."""

    argv: list[str]
    outputs: tuple[Path, ...]
    check: Callable[..., list[str]]


# A pass's work depends on its seed: an 8x8 hill-climber run makes a number
# of climbs that varies by about 7%, and a 9-bit search makes 3 or 4 sweeps.
# So each experiment makes several runs, on smaller samples than the paper's
# 30, and the search takes four seeds: a pass then does about the same work
# whatever the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exp-mto0-n8", "experiment", 8, metric="mto0", runs=5, sample_size=3),
        Workload("exp-to-n8", "experiment", 8, metric="to", runs=7, sample_size=5),
        Workload("search-n9", "search", 9, count=4),
        Workload("metrics-n8", "metrics", 8, count=200),
    )
}
# Warm-up before the timed passes: the same commands at tiny widths, which
# load every module and code path in a fraction of a second.
WARMUP = {
    w.name: w
    for w in (
        Workload("exp-mto0-n8", "experiment", 4, metric="mto0", sample_size=2),
        Workload("exp-to-n8", "experiment", 5, metric="to", sample_size=3),
        Workload("search-n9", "search", 5, count=2),
        Workload("metrics-n8", "metrics", 4, count=3),
    )
}


def _write_sbox(path: Path, table: list[int], hex_commas: bool) -> None:
    if hex_commas:
        text = ",".join(f"0x{v:02x}" for v in table)
    else:
        text = "\n".join(
            " ".join(str(v) for v in table[k : k + 16]) for k in range(0, len(table), 16)
        )
    path.write_text(text + "\n")


def make_ops(workload: Workload, seed: int, out_dir: Path) -> list[Op]:
    """The commands of one pass; the same seed gives the same commands."""
    rnd = random.Random(f"{workload.name}:{seed}")
    n = workload.n
    if workload.kind == "experiment":
        d = out_dir / "experiment"
        argv = ["experiment", "--n", str(n), "--metric", workload.metric,
                "--runs", str(workload.runs), "--sample-size", str(workload.sample_size),
                "--seed", str(rnd.randrange(2**31)), "--out-dir", str(d)]

        def check(trajectories, summary):
            return checks.check_experiment(
                trajectories, summary, n, workload.metric, workload.runs
            )

        return [Op(argv, (d / "trajectories.csv", d / "summary.json"), check)]

    if workload.kind == "search":
        ops = []
        for k in range(workload.count):
            final, climbs = out_dir / f"final-{k}.txt", out_dir / f"climbs-{k}.csv"
            argv = ["search", "--n", str(n), "--seed", str(rnd.randrange(2**31)),
                    "--out", str(final), "--emit-climbs", str(climbs)]
            ops.append(Op(argv, (final, climbs), lambda s, c: checks.check_search(s, c, n)))
        return ops

    # metrics: AES, then random bijections, alternately in decimal and in
    # comma-separated hex.
    tables = [(8, checks.aes_sbox(), checks.AES_EXPECTED)]
    for _ in range(workload.count):
        table = list(range(1 << n))
        rnd.shuffle(table)
        tables.append((n, table, None))
    ops = []
    for k, (width, table, expected) in enumerate(tables):
        path = out_dir / f"sbox-{k}.txt"
        _write_sbox(path, table, hex_commas=k % 2 == 1)
        argv = ["metrics", "--sbox", str(path), "--n", str(width), "--metrics", ALL_METRICS]

        def check(stdout, width=width, table=table, expected=expected):
            return checks.check_metrics(stdout, table, width, width, expected)

        ops.append(Op(argv, (), check))
    return ops
