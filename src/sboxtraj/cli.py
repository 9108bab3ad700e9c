"""Command line interface.

Subcommands: `metrics` (evaluate metrics for an S-box file), `search` (one
hill-climber run), `experiment` (full trajectory-correlation experiment),
`export-plot` (plot-ready trajectory data).

Exit codes: 0 success, 1 invalid input or configuration, 2 completed but the
result is unreliable (too many degenerate runs).  All numbers are serialized
with full round-trip precision.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from .metrics import METRIC_NAMES, metric_value
from .rng import RngStream
from .sbox import SBoxError, parse_sbox, serialize_sbox
from .search import ls_hwf
from .trajectory import METRICS, ExperimentSummary, check_experiment, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRELIABLE = 2

# The header of trajectories.csv, written by `experiment`, read by `export-plot`.
TRAJECTORY_FIELDS = ["run_id", "climb_index", "mean_ccv", "mean_metric", "metric"]


class CliError(Exception):
    """Bad flags or inputs; reported on stderr and mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CliError(message)


def _check_out_files(outs: list[tuple[str, str | Path | None]], inputs=()) -> None:
    """Fail before any work unless each (flag, path) of `outs` with a path
    names a writable file that no other output or input of the command names."""
    named = dict.fromkeys((path.resolve() for path in inputs), "an input file")
    for flag, path in outs:
        if path is None:
            continue
        out = Path(path)
        if not out.parent.is_dir():
            raise CliError(f"{flag}: directory {out.parent} does not exist")
        if out.is_dir():
            raise CliError(f"{flag}: {out} is a directory")
        key = out.resolve()
        if key in named:
            raise CliError(f"{flag}: {out} is {named[key]}")
        named[key] = f"the {flag} file"


def _fmt(value: float) -> str:
    """Shortest decimal that parses back to the same float."""
    return repr(float(value))


def cmd_metrics(args) -> int:
    m = args.m if args.m is not None else args.n
    try:
        text = Path(args.sbox).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read S-box file: {exc}") from None
    sbox = parse_sbox(text, args.n, m)

    names = list(dict.fromkeys(t.strip() for t in args.metrics.split(",") if t.strip()))
    if not names:
        raise CliError("no metrics requested")
    for name in names:
        if name not in METRIC_NAMES:
            raise CliError(f"unknown metric {name!r}; choose from {','.join(METRIC_NAMES)}")

    values = {name: metric_value(sbox, name) for name in names}

    if args.format == "json":
        print(json.dumps(values, indent=2))
    else:
        print("metric,value")
        for name in names:
            print(f"{name},{_fmt(values[name])}")
    return EXIT_OK


def cmd_search(args) -> int:
    _check_out_files([("--out", args.out), ("--emit-climbs", args.emit_climbs)])
    result = ls_hwf(args.n, RngStream(args.seed))
    text = serialize_sbox(result.final)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.emit_climbs:
        with open(args.emit_climbs, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "climb_index", "i", "j", "ccv"])
            for event in result.events:
                writer.writerow(
                    [0, event.climb_index, event.i, event.j, _fmt(event.ccv_key_after.value)]
                )
    return EXIT_OK


def _write_trajectories_csv(path: Path, summary: ExperimentSummary) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_FIELDS)
        for trajectory in summary.trajectories:
            if trajectory.pearson_r is None:
                continue
            for point in trajectory.points:
                writer.writerow(
                    [
                        trajectory.run_id,
                        point.climb_index,
                        _fmt(point.mean_ccv),
                        _fmt(point.mean_metric),
                        summary.metric,
                    ]
                )


def _write_summary_json(path: Path, summary: ExperimentSummary) -> None:
    doc = {
        "config": {
            "n": summary.n,
            "metric": summary.metric,
            "runs": summary.runs,
            "sample_size": summary.sample_size,
            "master_seed": summary.master_seed,
        },
        "metadata": dict(summary.metadata),
        "pearson_by_run": [[run_id, r] for run_id, r in summary.pearson_by_run],
        "mean": summary.mean,
        "std": summary.std,
        "degenerate_runs": list(summary.degenerate_runs),
        "degenerate_count": len(summary.degenerate_runs),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cmd_experiment(args) -> int:
    try:
        check_experiment(args.n, args.metric, args.runs, args.sample_size)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create --out-dir: {exc}") from None
    outs = [("--out-dir", out_dir / name) for name in ("trajectories.csv", "summary.json")]
    _check_out_files(outs)

    summary = run_experiment(
        n=args.n,
        metric=args.metric,
        runs=args.runs,
        sample_size=args.sample_size,
        master_seed=args.seed,
    )
    _write_trajectories_csv(out_dir / "trajectories.csv", summary)
    _write_summary_json(out_dir / "summary.json", summary)

    if summary.mean is None or 2 * len(summary.degenerate_runs) > summary.runs:
        print(
            f"warning: {len(summary.degenerate_runs)} of {summary.runs} runs were "
            "degenerate; summary statistics are unreliable",
            file=sys.stderr,
        )
        return EXIT_UNRELIABLE
    return EXIT_OK


def cmd_export_plot(args) -> int:
    src = Path(args.in_dir) / "trajectories.csv"
    if not src.is_file():
        raise CliError(f"no trajectories.csv in {args.in_dir}")
    # Both files of the experiment count as inputs, so --out overwrites neither.
    _check_out_files([("--out", args.out)], inputs=[src, Path(args.in_dir) / "summary.json"])
    try:
        with open(src, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {src}: {exc}") from None
    if header != TRAJECTORY_FIELDS:
        raise CliError(f"unexpected header in {src}")
    for line_no, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise CliError(f"{src} line {line_no}: {len(row)} fields, expected {len(header)}")

    lines = []
    current_run = None
    for run_id, _climb, mean_ccv, mean_metric, _metric in rows:
        if current_run is not None and run_id != current_run:
            lines.append("")
        current_run = run_id
        # Copy the serialized values verbatim so the export round-trips.
        lines.append(f"{mean_ccv} {mean_metric}")
    Path(args.out).write_text("\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sboxtraj", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="evaluate metrics for an S-box file")
    p.add_argument("--sbox", required=True, help="path to the S-box text file")
    p.add_argument("--n", type=int, required=True, help="input bit width")
    p.add_argument("--m", type=int, default=None, help="output bit width (default: n)")
    p.add_argument(
        "--metrics",
        default="ccv,to,mto0,rto0",
        help=f"comma-separated subset of {','.join(METRIC_NAMES)}; mto and rto "
        "sweep 2^(m-1) pre-charges, so at n = m = 16 the two together took 83 s "
        "on 2 vCPUs of a Xeon host with one BLAS thread",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("search", help="run one hill-climber search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="final S-box file (default: stdout)")
    p.add_argument("--emit-climbs", default=None, help="accepted-swap CSV path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("experiment", help="run the trajectory-correlation experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--metric", required=True, help=", ".join(METRICS))
    p.add_argument("--runs", type=int, default=30)
    p.add_argument(
        "--sample-size",
        type=int,
        default=None,
        help="S-boxes per climb sample (default: 30, or 1 for rto0)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("export-plot", help="export plot-ready trajectory data")
    p.add_argument("--in", dest="in_dir", required=True, help="experiment output dir")
    p.add_argument("--out", required=True, help="plot data file")
    p.set_defaults(func=cmd_export_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, SBoxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
