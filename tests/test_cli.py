import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sboxtraj import (
    RngStream,
    SBox,
    ccv,
    mto,
    mto_beta_zero,
    parse_sbox,
    random_bijective_sbox,
    rto,
    serialize_sbox,
    transparency_order,
)
import sboxtraj
from sboxtraj.cli import main

from builders import identity_sbox
from oracles import AES_SBOX


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.txt"
    path.write_text("0 1 2 3\n")
    return path


@pytest.fixture
def aes_file(tmp_path):
    path = tmp_path / "aes.txt"
    path.write_text(" ".join(str(v) for v in AES_SBOX))
    return path


class TestMetricsCommand:
    def test_json_output(self, identity_file, capsys):
        code = main(
            ["metrics", "--sbox", str(identity_file), "--n", "2", "--metrics", "ccv,to"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ccv"] == pytest.approx(2 / 9, rel=1e-12)
        assert doc["to"] == pytest.approx(4 / 3, rel=1e-12)

    def test_csv_output_round_trips(self, aes_file, capsys):
        code = main(
            [
                "metrics",
                "--sbox",
                str(aes_file),
                "--n",
                "8",
                "--metrics",
                "ccv,to,mto0,rto0",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,value"
        values = dict(line.split(",") for line in lines[1:])
        sbox = parse_sbox(aes_file.read_text(), 8, 8)
        assert float(values["ccv"]) == ccv(sbox)
        assert float(values["to"]) == transparency_order(sbox)
        assert float(values["mto0"]) == mto_beta_zero(sbox)

    def test_repeated_metric_once_in_both_formats(self, identity_file, capsys):
        argv = ["metrics", "--sbox", str(identity_file), "--n", "2", "--metrics", "to,ccv,to"]
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines] == ["metric", "to", "ccv"]
        assert main(argv + ["--format", "json"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["to", "ccv"]

    def test_constant_sbox(self, tmp_path, capsys):
        path = tmp_path / "const.txt"
        path.write_text("0 0 0 0")
        assert main(["metrics", "--sbox", str(path), "--n", "2", "--metrics", "ccv,to"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"ccv": 0.0, "to": 0.0}

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 junk 3")
        assert main(["metrics", "--sbox", str(path), "--n", "2"]) == 1
        assert "junk" in capsys.readouterr().err

    def test_non_ascii_digit_exit_1(self, tmp_path, capsys):
        path = tmp_path / "digits.txt"
        path.write_text("0 1 2 \u0663", encoding="utf-8")
        assert main(["metrics", "--sbox", str(path), "--n", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot parse token")

    def test_huge_token_exit_1_without_traceback(self, tmp_path):
        # A fresh interpreter, so stderr shows everything the process prints.
        path = tmp_path / "huge.txt"
        path.write_text("0x" + "f" * 4000 + " 1 2 3\n")
        src = Path(sboxtraj.__file__).parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "sboxtraj.cli", "metrics", "--sbox", str(path), "--n", "2"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: table[0] = a 16000-bit integer")
        assert "Traceback" not in proc.stderr

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["metrics", "--sbox", str(tmp_path / "nope.txt"), "--n", "2"]) == 1

    def test_non_utf8_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe\x00\x01")
        assert main(["metrics", "--sbox", str(path), "--n", "2"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_width_16_default_metrics(self, tmp_path, capsys):
        # The default metrics need no cross-correlation table, so even the
        # widest S-box is a few transforms of length 2^16.
        path = tmp_path / "wide.txt"
        path.write_text(serialize_sbox(random_bijective_sbox(16, RngStream(16))))
        argv = ["metrics", "--sbox", str(path), "--n", "16"]
        assert main(argv + ["--metrics", "ccv,to,mto0,rto0"]) == 0
        values = json.loads(capsys.readouterr().out)
        assert values["ccv"] > 0.0
        assert 0.0 <= values["to"] <= 16
        assert 16 - 16 * 16 <= values["mto0"] <= values["rto0"] <= 16

    @pytest.mark.parametrize(
        "widths",
        [["--n", str(10**20)], ["--n", "17"], ["--n", "1"], ["--n", "-1"],
         ["--n", "2", "--m", "17"]],
        ids=["n=10**20", "n=17", "n=1", "n=-1", "m=17"],
    )
    def test_width_out_of_range_exit_1(self, identity_file, capsys, widths):
        assert main(["metrics", "--sbox", str(identity_file)] + widths) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_metric_exit_1(self, identity_file):
        assert (
            main(["metrics", "--sbox", str(identity_file), "--n", "2", "--metrics", "nl"])
            == 1
        )

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        # No flag of one in-process call may reach the next.
        table = [(7 * x) % 8 for x in range(32)]
        path = tmp_path / "narrow.txt"
        path.write_text(" ".join(map(str, table)))
        argv = ["metrics", "--sbox", str(path), "--n", "5", "--metrics", "mto,rto"]
        narrow, wide = SBox(5, 3, table), SBox(5, 5, table)
        for _ in range(2):
            assert main(argv + ["--m", "3", "--format", "csv"]) == 0
            expected = f"metric,value\nmto,{mto(narrow)!r}\nrto,{rto(narrow)!r}\n"
            assert capsys.readouterr().out == expected
            assert main(["metrics", "--n", "5"]) == 1  # no --sbox
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out) == {"mto": mto(wide), "rto": rto(wide)}

    def test_hex_input(self, tmp_path, capsys):
        path = tmp_path / "hex.txt"
        path.write_text("0x0 0x1 0x2 0x3")
        assert main(["metrics", "--sbox", str(path), "--n", "2", "--metrics", "ccv"]) == 0
        assert json.loads(capsys.readouterr().out)["ccv"] == ccv(identity_sbox(2))


class TestSearchCommand:
    def test_deterministic_outputs(self, tmp_path):
        args = ["search", "--n", "4", "--seed", "7"]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        climbs1, climbs2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--emit-climbs", str(climbs1)]) == 0
        assert main(args + ["--out", str(out2), "--emit-climbs", str(climbs2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert climbs1.read_bytes() == climbs2.read_bytes()

    def test_final_sbox_parses_and_is_bijective(self, tmp_path):
        out = tmp_path / "final.txt"
        assert main(["search", "--n", "4", "--seed", "3", "--out", str(out)]) == 0
        sbox = parse_sbox(out.read_text(), 4, 4)
        assert sorted(sbox.table) == list(range(16))

    def test_climbs_csv_shape(self, tmp_path):
        climbs = tmp_path / "climbs.csv"
        assert (
            main(["search", "--n", "4", "--seed", "5", "--emit-climbs", str(climbs)]) == 0
        )
        with open(climbs, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "climb_index", "i", "j", "ccv"]
        ccvs = [float(r[4]) for r in rows[1:]]
        assert all(b > a for a, b in zip(ccvs, ccvs[1:]))
        assert [int(r[1]) for r in rows[1:]] == list(range(1, len(rows)))

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["search", "--n", "2", "--seed", "1"]) == 0
        table = capsys.readouterr().out.split()
        assert sorted(int(v) for v in table) == [0, 1, 2, 3]

    def test_n_below_range_exit_1(self, capsys):
        assert main(["search", "--n", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestExperimentCommand:
    def run_small(self, out_dir, seed="3"):
        return main(
            [
                "experiment",
                "--n",
                "4",
                "--metric",
                "to",
                "--runs",
                "5",
                "--sample-size",
                "10",
                "--seed",
                seed,
                "--out-dir",
                str(out_dir),
            ]
        )

    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "exp"
        assert self.run_small(out) == 0
        with open(out / "trajectories.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "climb_index", "mean_ccv", "mean_metric", "metric"]
        assert all(row[4] == "to" for row in rows[1:])
        doc = json.loads((out / "summary.json").read_text())
        assert doc["config"] == {
            "n": 4,
            "metric": "to",
            "runs": 5,
            "sample_size": 10,
            "master_seed": 3,
        }
        assert doc["degenerate_count"] == len(doc["degenerate_runs"])
        assert len(doc["pearson_by_run"]) + doc["degenerate_count"] == 5
        assert "seed_mixer" in doc["metadata"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.run_small(a) == 0
        assert self.run_small(b) == 0
        assert (a / "trajectories.csv").read_bytes() == (b / "trajectories.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_runs_one_exit_1(self, tmp_path):
        assert (
            main(
                [
                    "experiment",
                    "--n",
                    "4",
                    "--metric",
                    "to",
                    "--runs",
                    "1",
                    "--out-dir",
                    str(tmp_path / "x"),
                ]
            )
            == 1
        )

    def test_bad_metric_exit_1(self, tmp_path):
        assert (
            main(
                [
                    "experiment",
                    "--n",
                    "4",
                    "--metric",
                    "mto",
                    "--runs",
                    "2",
                    "--out-dir",
                    str(tmp_path / "x"),
                ]
            )
            == 1
        )

    def test_bad_n_exit_1(self, tmp_path):
        assert (
            main(
                [
                    "experiment",
                    "--n",
                    "1",
                    "--metric",
                    "to",
                    "--runs",
                    "2",
                    "--out-dir",
                    str(tmp_path / "x"),
                ]
            )
            == 1
        )


class TestExportPlotCommand:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "exp"
        TestExperimentCommand().run_small(out)
        plot = tmp_path / "plot.dat"
        assert main(["export-plot", "--in", str(out), "--out", str(plot)]) == 0

        with open(out / "trajectories.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        groups = [g for g in plot.read_text().split("\n\n") if g.strip()]
        assert len(groups) == len({row[0] for row in rows})
        exported = [
            tuple(line.split()) for g in groups for line in g.strip().splitlines()
        ]
        assert exported == [(row[2], row[3]) for row in rows]

    def test_missing_dir_exit_1(self, tmp_path, capsys):
        assert main(["export-plot", "--in", str(tmp_path / "none"), "--out", "x"]) == 1
        assert "trajectories.csv" in capsys.readouterr().err

    def test_non_utf8_file_exit_1(self, tmp_path, capsys):
        exp = tmp_path / "exp"
        assert TestExperimentCommand().run_small(exp) == 0
        with open(exp / "trajectories.csv", "ab") as fh:
            fh.write(b"0,1,\xff,0.5,to\n")
        plot = tmp_path / "plot.dat"
        assert main(["export-plot", "--in", str(exp), "--out", str(plot)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not plot.exists()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_required_flag(self):
        assert main(["metrics", "--n", "2"]) == 1

    def test_no_command(self):
        assert main([]) == 1


@pytest.fixture
def no_search(monkeypatch):
    """Fail the test if a search starts: each begins with a random S-box."""
    import sboxtraj.search as search_mod

    def no_work(*args):
        raise AssertionError("a search started before the inputs were checked")

    monkeypatch.setattr(search_mod, "random_bijective_sbox", no_work)


class TestInputsCheckedFirst:
    def test_experiment_out_dir_is_a_file(self, tmp_path, capsys, no_search):
        target = tmp_path / "taken"
        target.write_text("")
        argv = ["experiment", "--n", "4", "--metric", "to", "--runs", "2"]
        assert main(argv + ["--out-dir", str(target)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name", ["trajectories.csv", "summary.json"])
    def test_experiment_output_is_a_directory(self, name, tmp_path, capsys, no_search):
        out = tmp_path / "D"
        (out / name).mkdir(parents=True)
        argv = ["experiment", "--n", "4", "--metric", "to", "--runs", "2", "--sample-size", "2"]
        assert main(argv + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("flag", ["--out", "--emit-climbs"])
    def test_search_output_in_missing_dir(self, flag, tmp_path, capsys, no_search):
        argv = ["search", "--n", "4", flag, str(tmp_path / "missing" / "f.txt")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_export_plot_out_in_missing_dir(self, tmp_path, capsys):
        exp = tmp_path / "exp"
        assert TestExperimentCommand().run_small(exp) == 0
        argv = ["export-plot", "--in", str(exp), "--out", str(tmp_path / "missing" / "p.dat")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_search_out_and_climbs_name_one_file(self, tmp_path, capsys, no_search):
        final = tmp_path / "final.txt"
        final.write_text("kept\n")
        (tmp_path / "sub").mkdir()
        same = tmp_path / "sub" / ".." / "final.txt"
        argv = ["search", "--n", "4", "--out", str(final), "--emit-climbs", str(same)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --emit-climbs:") and "is the --out file" in err
        assert final.read_text() == "kept\n"

    @pytest.mark.parametrize("name", ["trajectories.csv", "summary.json"])
    def test_export_plot_out_is_its_input(self, tmp_path, capsys, name):
        exp = tmp_path / "exp"
        assert TestExperimentCommand().run_small(exp) == 0
        before = {p.name: p.read_bytes() for p in exp.iterdir()}
        argv = ["export-plot", "--in", str(exp), "--out", str(exp / name)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out:") and "is an input file" in err
        assert {p.name: p.read_bytes() for p in exp.iterdir()} == before

    def test_export_plot_short_row(self, tmp_path, capsys):
        exp = tmp_path / "exp"
        assert TestExperimentCommand().run_small(exp) == 0
        with open(exp / "trajectories.csv", "a") as fh:
            fh.write("0,1,0.1\n")
        plot = tmp_path / "plot.dat"
        assert main(["export-plot", "--in", str(exp), "--out", str(plot)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not plot.exists()

    def test_search_unsupported_width(self, capsys, no_search):
        assert main(["search", "--n", "13"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_experiment_unsupported_width(self, tmp_path, capsys, no_search):
        out = tmp_path / "D"
        argv = ["experiment", "--n", "13", "--metric", "to", "--runs", "2"]
        assert main(argv + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_huge_width_exits_before_bounds(self, tmp_path, capsys, bounds_only_in_range):
        huge = str(10**20)
        assert main(["search", "--n", huge]) == 1
        assert capsys.readouterr().err.startswith("error:")
        argv = ["experiment", "--n", huge, "--metric", "to", "--out-dir", str(tmp_path / "D")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


class _RefusingFile:
    """A file opened for writing whose every write is refused."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, _text):
        raise PermissionError(13, "Permission denied")


@pytest.fixture
def refuse_writes(monkeypatch):
    """Call to make every file the CLI then opens for writing refuse its writes."""
    import builtins

    import sboxtraj.cli as cli_mod

    def refusing_open(path, mode="r", **kwargs):
        fh = builtins.open(path, mode, **kwargs)
        return _RefusingFile(fh) if "w" in mode else fh

    return lambda: monkeypatch.setattr(cli_mod, "open", refusing_open, raising=False)


class TestWriteFailures:
    """A write the file system refuses is an error on stderr, not a traceback."""

    @pytest.mark.parametrize("flag", ["--out", "--emit-climbs"])
    def test_search(self, flag, tmp_path, capsys, refuse_writes):
        refuse_writes()
        out = tmp_path / "f.txt"
        assert main(["search", "--n", "4", flag, str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: Permission denied")

    def test_experiment(self, tmp_path, capsys, refuse_writes):
        refuse_writes()
        assert TestExperimentCommand().run_small(tmp_path / "exp") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / 'exp' / 'trajectories.csv'}: ")

    def test_export_plot(self, tmp_path, capsys, refuse_writes):
        exp = tmp_path / "exp"
        assert TestExperimentCommand().run_small(exp) == 0
        refuse_writes()
        out = tmp_path / "p.dat"
        assert main(["export-plot", "--in", str(exp), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.skipif(not Path("/proc/self").is_dir(), reason="needs a Linux procfs")
    @pytest.mark.parametrize("flag", ["--out", "--emit-climbs"])
    def test_directory_that_takes_no_file(self, flag, capsys):
        assert main(["search", "--n", "4", flag, "/proc/self/x.txt"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write /proc/self/x.txt: ")


GOLDEN_EXPERIMENTS = {
    "to": (
        ["--n", "5", "--metric", "to", "--runs", "4", "--sample-size", "3", "--seed", "11"],
        {
            "summary.json": "cf8286250511b2cd55d2f882830a4afb7fb97125f19f62ac65e988b6bf1c3c7c",
            "trajectories.csv": "0827f0d27988d3e83698c02f1d45d728de8a573c4c9cc8ef1b0ddf73f27f0128",
        },
    ),
    "mto0": (
        ["--n", "5", "--metric", "mto0", "--runs", "4", "--sample-size", "3", "--seed", "11"],
        {
            "summary.json": "e0da8b428592b31172421cf1ba21a72e6e352cb30cdd524356dbdc4368f9da4d",
            "trajectories.csv": "fde8e5ab4faf83ed9c9c934e320f0f1c4d24533ad23e34ac0725ad2f56f30a4d",
        },
    ),
    "rto0": (
        ["--n", "5", "--metric", "rto0", "--runs", "4", "--sample-size", "1", "--seed", "11"],
        {
            "summary.json": "35f14835e36d79c24c5acf06c1ef92f538f4c125d6540cda281ba4785b49d7c7",
            "trajectories.csv": "d2def4ac12f590998399a01c321348c6b3858085e036204be3de53119d0135ac",
        },
    ),
}
GOLDEN_SEARCH = {
    "final.txt": "2dfef9fbb1e9e80f0e87e1fdec0497adba1b378fef4ab9a41c957d97f4426f69",
    "climbs.csv": "475f614089c9c2d96200c57e678e781c26b7801743b00774a334e275167b05ac",
}
GOLDEN_METRICS = "ec3b4819ef9eeec385bdadf107a00952e5bb3cfd50bd41b7e7b2037cda94512f"
# The default metrics, which build no cross-correlation table.
GOLDEN_METRICS_DEFAULT = "868a5b28edc68e4d85e2fd49965276fd903d5bdf3aea9cfef077bf2ee5aaba60"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenOutputs:
    """Fixed-seed outputs must stay byte-identical across refactors."""

    @pytest.mark.parametrize("metric", list(GOLDEN_EXPERIMENTS))
    def test_experiment(self, metric, tmp_path):
        args, want = GOLDEN_EXPERIMENTS[metric]
        out = tmp_path / "exp"
        assert main(["experiment", *args, "--out-dir", str(out)]) == 0
        assert {name: sha256((out / name).read_bytes()) for name in want} == want

    def test_search(self, tmp_path):
        final, climbs = tmp_path / "final.txt", tmp_path / "climbs.csv"
        argv = ["search", "--n", "6", "--seed", "5", "--out", str(final)]
        assert main(argv + ["--emit-climbs", str(climbs)]) == 0
        got = {"final.txt": sha256(final.read_bytes()), "climbs.csv": sha256(climbs.read_bytes())}
        assert got == GOLDEN_SEARCH

    def test_metrics(self, aes_file, capsys):
        argv = ["metrics", "--sbox", str(aes_file), "--n", "8"]
        assert main(argv + ["--metrics", "ccv,to,mto0,rto0,mto,rto"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == GOLDEN_METRICS

    def test_metrics_default(self, aes_file, capsys):
        assert main(["metrics", "--sbox", str(aes_file), "--n", "8"]) == 0
        assert sha256(capsys.readouterr().out.encode()) == GOLDEN_METRICS_DEFAULT
