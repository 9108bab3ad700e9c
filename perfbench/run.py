"""Benchmark of the sboxtraj CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
workload's commands run in this process, through `sboxtraj.cli.main`, from a
single thread.  A warm-up pass of the same commands at tiny widths comes
first.  Then passes over the workload's commands repeat for about S seconds;
the outputs of the first are checked against the references in checks.py,
and every later pass must reproduce them byte for byte.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics setup_s, pass_s and peak_rss_mb.  With --trace 1 the first full pass
is traced with tracemalloc on, for peak_alloc_mb; then untraced and traced
passes alternate and the object holds the per-layer metrics that
BENCHMARK.json lists, each the median over the traced passes; the spans go to
perfbench/out/<workload>/spans.csv.
"""

import os

if __name__ == "__main__":
    # One thread: no BLAS or OpenMP pool may start when numpy is imported.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import WARMUP, WORKLOADS, Workload, make_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Fresh interpreter starts before and after the timed passes.  setup_s is
# the median of all of them, so it samples the host's speed over the run.
SETUP_STARTS = 6
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import sboxtraj.cli; "
    "sys.exit(sboxtraj.cli.main(['metrics', '--sbox', sys.argv[2], '--n', '2']))"
)


def import_cli():
    """sboxtraj.cli, imported from ./src and nowhere else."""
    if not (SRC / "sboxtraj" / "__init__.py").is_file():
        raise SystemExit(f"error: no sboxtraj sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sboxtraj.cli

    if not Path(sboxtraj.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: sboxtraj was imported from {sboxtraj.cli.__file__}")
    return sboxtraj.cli


def time_starts(out_dir: Path) -> list[float]:
    """Wall times of SETUP_STARTS fresh interpreters that each import
    sboxtraj and run one `metrics` command on the 2-bit identity S-box."""
    tiny = out_dir / "identity-2.txt"
    tiny.write_text("0 1 2 3\n")
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(tiny)],
            stdout=subprocess.DEVNULL, check=True,
        )  # no timeout: waiting with one polls in steps of up to 50 ms
        times.append(time.perf_counter() - start)
    return times


def run_pass(cli, ops) -> tuple[float, list]:
    """Run every command once; returns the wall time and (exit code, stdout,
    stderr) per command."""
    for op in ops:
        for path in op.outputs:
            path.unlink(missing_ok=True)
    results = []
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        except Exception:
            code = "traceback"
            err.write(traceback.format_exc())
        results.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


class Ledger:
    """Counts attempted and failed commands.  A command fails when it exits
    non-zero, when its output differs from the first pass, or when the
    first pass's output of that command fails its check."""

    def __init__(self, ops):
        self.ops = ops
        self.reference: list | None = None
        self.attempts = [0] * len(ops)
        self.failures = [0] * len(ops)
        self.problems: list[tuple[int, str]] = []

    def record(self, results) -> int:
        """Account for one pass; returns the bytes its commands produced."""
        outputs = []
        for k, (op, (code, stdout, stderr)) in enumerate(zip(self.ops, results)):
            if op.outputs:
                data = [p.read_bytes() if p.is_file() else b"" for p in op.outputs]
            else:
                data = [stdout.encode()]
            outputs.append(data)
            self.attempts[k] += 1
            if code != 0:
                problem = f"exit {code}: {stderr.strip()[-500:]}"
            elif self.reference is not None and data != self.reference[k]:
                problem = "output differs from the first pass"
            else:
                continue
            self.failures[k] += 1
            self.problems.append((k, problem))
        if self.reference is None:
            self.reference = outputs
        return sum(len(b) for data in outputs for b in data)

    def verify(self) -> int:
        """Check the first pass's outputs; returns the number of failed commands."""
        for k, op in enumerate(self.ops):
            try:
                problems = op.check(*self.reference[k])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                # Every attempt either failed already or reproduced this output.
                self.failures[k] = self.attempts[k]
                self.problems.append((k, "; ".join(problems)))
        return sum(self.failures)


def traced_pass(cli, ops, tracer: Tracer, alloc: bool = False):
    """`run_pass` with the tracer installed; returns its wall time, results,
    spans, counts and peak allocation."""
    tracer.install(alloc)
    try:
        elapsed, results = run_pass(cli, ops)
    finally:
        tracer.uninstall()
    return (elapsed, results, *tracer.take())


def write_spans(path: Path, spans) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "parent", "name", "start_ns", "end_ns"])
        writer.writerows(spans)


def bench(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    cli = import_cli()
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setup = [] if trace else time_starts(out_dir)

    warmup_dir = out_dir / "warmup"
    warmup_dir.mkdir()
    run_pass(cli, make_ops(WARMUP[workload.name], seed, warmup_dir))
    ops = make_ops(workload, seed, out_dir)
    ledger = Ledger(ops)
    tracer = Tracer()
    if trace:  # a first full pass, traced with tracemalloc for peak_alloc_mb
        _, results, _, _, peak_alloc = traced_pass(cli, ops, tracer, alloc=True)
        ledger.record(results)

    untraced, traced, layers, spans = [], [], [], []
    window = time.perf_counter()
    while True:
        elapsed, results = run_pass(cli, ops)
        ledger.record(results)
        untraced.append(elapsed)
        step = elapsed
        if trace:
            elapsed, results, pass_spans, counts, _ = traced_pass(cli, ops, tracer)
            layers.append(layer_metrics(pass_spans, counts, peak_alloc, ledger.record(results)))
            spans.extend(pass_spans)
            traced.append(elapsed)
            step += elapsed
        # Stop when one more round would end past the window.
        if time.perf_counter() - window + step > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        setup += time_starts(out_dir)

    failed = ledger.verify()
    for k, problem in ledger.problems[:10]:
        print(f"{workload.name}: {' '.join(ops[k].argv)}: {problem}", file=sys.stderr)

    if trace:
        write_spans(out_dir / "spans.csv", spans)
        values = {name: statistics.median_low(v[name] for v in layers) for name in layers[0]}
        values["trace.pass_s"] = statistics.median(traced)
        values["trace.untraced_pass_s"] = statistics.median(untraced)
        values["trace.overhead_s"] = values["trace.pass_s"] - values["trace.untraced_pass_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": failed == 0,
        "attempted": sum(ledger.attempts),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    result = bench(workload, args.seed, args.seconds, bool(args.trace), OUT / workload.name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
