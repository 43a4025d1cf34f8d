import argparse
import ast
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hashsim
from hashsim import cli
from hashsim.classify import ClassBoundaries
from hashsim.cli import (MAX_AXIS_POINTS, MAX_RUNS, MAX_SEED, build_parser,
                         main, parse_grid, UsageError)
from hashsim.fitter import COMBINE_MAX, COMBINE_MEAN, GridSpec

# grid-axis fields: plain numbers, extremes and junk
_FIELD = st.one_of(st.integers(-3, 70).map(str), st.floats().map(repr),
                   st.sampled_from(["nan", "inf", "-inf", "1e15", "1e308",
                                    "", "x", " 2 "]))
_AXIS = st.lists(_FIELD, min_size=1, max_size=4).map(":".join)
_GRID = st.lists(
    st.one_of(st.tuples(st.sampled_from(["lambda", "eta", "dt", " dt ",
                                         "gamma", ""]), _AXIS).map("=".join),
              st.text(max_size=8)),
    max_size=4).map(",".join)

# numeric flag values at the edges of what the CLI's parsers take, and
# each command's numeric flags (fit's grid axes by name) with a usual value
_EXTREME = st.sampled_from(["1e308", "-0.0", "-1", str(2**63), str(2**64),
                            str(10**30)])
_NUMERIC_FLAGS = {
    "simulate": {"--lambda": "0.5", "--eta-star": "2", "--delta-t": "1",
                 "--runs": "2", "--seed": "0"},
    "fit": {"lambda": "0.5", "eta": "2", "dt": "1", "--runs": "2",
            "--seed": "0", "--theta": "0.04", "--threads": "1"},
    "synth": {"--n": "20", "--edge-prob": "0.1", "--seed": "0"},
    "classify": {"--lambda-split": "2", "--eta-split": "30",
                 "--dt-anticipated": "2", "--peak-frac": "0.6",
                 "--side-frac": "0.25"},
}


@st.composite
def _numeric_argv(draw):
    """A command line whose numeric flags are usual or extreme; {net},
    {tag} and {out} stand for a network, a hashtag CSV and an output."""
    command = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    values = {flag: draw(st.one_of(st.just(usual), st.just(usual), _EXTREME))
              for flag, usual in _NUMERIC_FLAGS[command].items()}
    argv = [command]
    if command == "fit":
        argv += ["--network={net}", "--hashtag={tag}", "--out={out}",
                 "--grid=lambda={},eta={},dt={}".format(
                     values.pop("lambda"), values.pop("eta"),
                     values.pop("dt"))]
    elif command == "simulate":
        argv += ["--network={net}", "--out={out}"]
    elif command == "synth":
        argv += ["--kind=" + draw(st.sampled_from(["star", "uniform-random"])),
                 "--out={out}"]
    else:
        argv += ["--profile-csv={tag}"]
    return argv + [f"{flag}={value}" for flag, value in values.items()]


@pytest.fixture(scope="module")
def real_inputs(tmp_path_factory):
    """A 30-user network, a hashtag CSV with a profile, and an output."""
    folder = tmp_path_factory.mktemp("real")
    paths = {name: str(folder / name) for name in ("net", "tag", "out")}
    assert main(["synth", "--kind", "uniform-random", "--n", "30",
                 "--edge-prob", "0.2", "--seed", "1",
                 "--out", paths["net"]]) == 0
    pathlib.Path(paths["tag"]).write_text(
        "day,tweets,users\n"
        + "".join(f"{d},{8 - abs(d)},1\n" for d in range(-7, 8)))
    return paths


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    assert main(["synth", "--kind", "star", "--n", "11",
                 "--out", str(path)]) == 0
    return str(path)


def run_simulate(star_file, tmp_path, name, **over):
    args = {"--lambda": "0.5", "--eta-star": "2", "--delta-t": "3",
            "--runs": "10", "--seed": "4"}
    args.update(over)
    out = tmp_path / name
    argv = ["simulate", "--network", star_file, "--out", str(out)]
    for key, value in args.items():
        argv += [key, value]
    assert main(argv) == 0
    return out


class TestParseGrid:
    def test_full_specification(self):
        grid = parse_grid("lambda=0:4:0.5,eta=1:10:3,dt=0:2", runs=5)
        assert grid.lambda_axis.tolist() == [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4]
        assert grid.eta_axis.tolist() == [1, 4, 7, 10]
        assert grid.dt_axis.tolist() == [0, 1, 2]
        assert grid.runs == 5

    def test_partial_specification_keeps_defaults(self):
        grid = parse_grid("dt=0:3", runs=2)
        assert grid.dt_axis.tolist() == [0, 1, 2, 3]
        assert grid.lambda_axis.size == 41

    def test_single_value_axis(self):
        grid = parse_grid("lambda=1.5,eta=3,dt=2", runs=1)
        assert grid.size == 1

    def test_axis_at_the_point_limit_accepted(self):
        grid = parse_grid(f"lambda=0:{MAX_AXIS_POINTS - 1}:1", runs=1)
        assert grid.lambda_axis.size == MAX_AXIS_POINTS

    def test_huge_axis_values_are_kept_without_warnings(self):
        # rounding 1e300 to 10 decimals would overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = parse_grid("lambda=1e299:3e299:1e299,eta=1e300:1e300",
                              runs=1)
            assert parse_grid("lambda=0:1:0.1", runs=1).lambda_axis[3] == 0.3
        assert grid.lambda_axis.tolist() == [1e299, 2e299, 1e299 + 2e299]
        assert grid.eta_axis.tolist() == [1e300]

    @pytest.mark.parametrize("text", [
        "gamma=0:1", "lambda", "lambda=4:0:1", "lambda=0:1:0",
        "lambda=0:1:0.5:9", "dt=0:9", "lambda=0:inf:1", "lambda=nan",
        "lambda=inf", "eta=inf", "dt=1.5", "dt=0.5:2.5", "dt=0:7:0.5",
        "lambda=0:1e15:1", "eta=1:1e308:1e-300", "lambda=0:10000:1",
        "lambda=0:1:0.5,lambda=3", "dt=0,eta=2, dt =1",
    ])
    def test_bad_grid_raises_usage(self, text):
        with pytest.raises(UsageError):
            parse_grid(text, runs=1)


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage(self, capsys):
        assert main(["simulate", "--network", "x"]) == 1

    def test_malformed_network_is_validation(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nnot an edge\n")
        assert main(["stats", str(bad)]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_missing_file_is_io(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.txt")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_params_are_usage(self, star_file, tmp_path):
        assert main(["simulate", "--network", star_file, "--lambda", "-1",
                     "--eta-star", "2", "--delta-t", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("flag,value", [("--lambda", "nan"),
                                            ("--lambda", "inf"),
                                            ("--eta-star", "nan")])
    def test_non_finite_params_are_validation(self, star_file, tmp_path,
                                              capsys, flag, value):
        args = {"--lambda": "0.5", "--eta-star": "2", flag: value}
        argv = ["simulate", "--network", star_file, "--delta-t", "0",
                "--out", str(tmp_path / "x.csv")]
        for key, val in args.items():
            argv += [key, val]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("grid", ["lambda=0:inf:1", "lambda=nan",
                                      "lambda=inf", "eta=inf", "dt=1.5",
                                      "lambda=0:1e15:1", "eta=1e308"])
    def test_non_finite_grid_is_usage_before_loading(self, tmp_path, capsys,
                                                     grid):
        # the inputs do not exist, so loading them would exit 3
        assert main(["fit", "--network", str(tmp_path / "no.txt"),
                     "--hashtag", str(tmp_path / "no.csv"),
                     "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err

    def test_repeated_grid_axis_is_usage_before_loading(self, tmp_path,
                                                        capsys):
        assert main(["fit", "--network", str(tmp_path / "no.txt"),
                     "--hashtag", str(tmp_path / "no.csv"),
                     "--grid", "lambda=0:1:0.5,lambda=3"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "'lambda' given more than once" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid", [[], ["--grid", "lambda=1,eta=2,dt=0"]])
    def test_fit_zero_runs_is_usage(self, tmp_path, capsys, grid):
        assert main(["fit", "--network", str(tmp_path / "no.txt"),
                     "--hashtag", str(tmp_path / "no.csv"),
                     "--runs", "0"] + grid) == 1
        assert "usage error" in capsys.readouterr().err

    def test_fit_zero_threads_is_usage_before_loading(self, tmp_path,
                                                      capsys):
        assert main(["fit", "--network", str(tmp_path / "no.txt"),
                     "--hashtag", str(tmp_path / "no.csv"),
                     "--threads", "0"]) == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    @pytest.mark.parametrize("runs,code", [("0", 1), (str(MAX_RUNS + 1), 1),
                                           ("1000000000", 1),
                                           (str(MAX_RUNS), 3)])
    def test_runs_are_bounded_before_loading(self, tmp_path, capsys, command,
                                             runs, code):
        # the inputs do not exist, so a run count that passes exits 3
        rest = {"simulate": ["--lambda", "0.5", "--eta-star", "2",
                             "--delta-t", "0"],
                "fit": ["--hashtag", str(tmp_path / "no.csv")]}[command]
        assert main([command, "--network", str(tmp_path / "no.txt"),
                     "--runs", runs] + rest) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("--runs" in err) == (code == 1)

    @pytest.mark.parametrize("command", ["simulate", "fit", "star",
                                         "uniform-random"])
    @pytest.mark.parametrize("seed,code", [("-1", 1), (str(MAX_SEED + 1), 1),
                                           (str(2**64), 1), ("x", 1),
                                           (str(MAX_SEED), 3)])
    def test_seeds_are_bounded_before_loading(self, tmp_path, capsys,
                                              command, seed, code):
        # the inputs and the output's folder do not exist, so a seed that
        # passes exits 3
        missing = str(tmp_path / "no" / "file")
        rest = {"simulate": ["simulate", "--network", missing, "--lambda",
                             "0.5", "--eta-star", "2", "--delta-t", "0"],
                "fit": ["fit", "--network", missing, "--hashtag", missing,
                        "--grid", "lambda=1,eta=2,dt=0"],
                "star": ["synth", "--kind", "star", "--n", "3",
                         "--out", missing],
                "uniform-random": ["synth", "--kind", "uniform-random",
                                   "--n", "3", "--edge-prob", "0.5",
                                   "--out", missing]}[command]
        assert main(rest + [f"--seed={seed}"]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("--seed" in err) == (code == 1)

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_out_of_memory_is_usage(self, star_file, tmp_path, capsys,
                                    monkeypatch, command):
        # runs up to MAX_RUNS can still exceed memory on a large network:
        # in fit's scan, which holds every run's peak state, and in
        # simulate when one block of runs does not fit
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_ensemble", exhausted)
        monkeypatch.setattr(cli, "grid_scan", exhausted)
        target = tmp_path / "tag.csv"
        target.write_text("day,tweets,users\n"
                          + "".join(f"{d},2,1\n" for d in range(-7, 8)))
        rest = {"simulate": ["--lambda", "0.5", "--eta-star", "2",
                             "--delta-t", "0"],
                "fit": ["--hashtag", str(target),
                        "--grid", "lambda=1,eta=2,dt=0"]}[command]
        assert main([command, "--network", star_file, "--runs", "9000"]
                    + rest) == 1
        err = capsys.readouterr().err
        if command == "fit":  # the scan's banner comes before the error
            banner = "scan: 1 triplets x 9000 runs\n"
            assert err.startswith(banner)
            err = err[len(banner):]
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "per (run, user)" in err
        assert ("--runs than 9000" in err) == (command == "fit")
        assert ("one block of runs" in err) == (command == "simulate")

    @settings(max_examples=300, deadline=None)
    @given(grid=_GRID, runs=st.sampled_from(["1", "0", "-2", "x"]),
           theta=st.sampled_from(["0.04", "nan", "-1"]))
    def test_any_grid_text_ends_in_an_exit_code(self, tmp_path_factory,
                                                grid, runs, theta):
        # the inputs do not exist, so no example loads a network or scans
        missing = tmp_path_factory.getbasetemp() / "missing"
        code = main(["fit", "--network", str(missing / "net.txt"),
                     "--hashtag", str(missing / "tag.csv"),
                     f"--grid={grid}", "--runs", runs, f"--theta={theta}"])
        assert code in (1, 2, 3)

    @settings(max_examples=200, deadline=None)
    @given(argv=_numeric_argv())
    @example(argv=["fit", "--network={net}", "--hashtag={tag}",
                   "--out={out}", "--grid=lambda=0.5,eta=1e308,dt=1",
                   "--runs=2"])
    def test_extreme_numeric_flags_end_in_an_exit_code(self, real_inputs,
                                                       argv):
        """Every numeric flag, on a real network and hashtag: an exit code
        and no traceback, also past the loaders."""
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = main([arg.format(**real_inputs) for arg in argv])
        assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()

    def test_id_above_int64_is_validation(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("0 1\n9223372036854775808 1\n")
        assert main(["stats", str(big)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestSynth:
    def test_star_edges(self, star_file):
        with open(star_file) as fh:
            lines = fh.read().splitlines()
        assert lines == [f"{i} 0" for i in range(1, 11)]

    def test_zero_prob_network_is_empty_and_invalid_to_load(self, tmp_path,
                                                            capsys):
        out = tmp_path / "empty.txt"
        assert main(["synth", "--kind", "uniform-random", "--n", "5",
                     "--edge-prob", "0.0", "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert main(["stats", str(out)]) == 2

    def test_deterministic_per_seed(self, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            assert main(["synth", "--kind", "uniform-random", "--n", "40",
                         "--edge-prob", "0.1", "--seed", "6",
                         "--out", str(path)]) == 0
            outs.append(path.read_text())
        assert outs[0] == outs[1]

    def test_bad_kind_is_usage(self):
        assert main(["synth", "--kind", "ring", "--n", "5"]) == 1

    @pytest.mark.parametrize("kind", ["star", "uniform-random"])
    @pytest.mark.parametrize("edge_prob", ["-1", "1e308", "nan"])
    def test_bad_edge_prob_is_usage_for_either_kind(self, capsys, kind,
                                                    edge_prob):
        assert main(["synth", "--kind", kind, "--n", "5",
                     "--edge-prob", edge_prob]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "edge_prob must be in [0, 1]" in captured.err

    def test_no_nodes_is_usage(self, capsys):
        assert main(["synth", "--kind", "star", "--n", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "n must be >= 1" in captured.err


class TestStdout:
    """'--out -' (the default for fit) writes what '--out FILE' writes.

    Stdout carries the result alone; summary and banner lines go to
    stderr, so the output can be read back by the tool itself.
    """

    def test_synth(self, star_file, capsys):
        capsys.readouterr()
        assert main(["synth", "--kind", "star", "--n", "11",
                     "--out", "-"]) == 0
        assert capsys.readouterr().out == pathlib.Path(star_file).read_text()

    def test_simulate(self, star_file, tmp_path, capsys):
        out = run_simulate(star_file, tmp_path, "p.csv")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("total_activities=")
        run_simulate(star_file, tmp_path, "unused", **{"--out": "-"})
        assert capsys.readouterr() == (out.read_text(), captured.err)

    def test_fit(self, star_file, tmp_path, capsys):
        target = run_simulate(star_file, tmp_path, "target.csv")
        argv = ["fit", "--network", star_file, "--hashtag", str(target),
                "--grid", "lambda=0:1:0.5,eta=1:3:2,dt=0:1", "--runs", "3",
                "--seed", "5"]
        report = tmp_path / "fit.json"
        capsys.readouterr()
        assert main(argv + ["--out", str(report)]) == 0
        banner = "scan: 12 triplets x 3 runs\n"
        assert capsys.readouterr() == ("", banner)
        assert main(argv) == 0
        assert capsys.readouterr() == (report.read_text(), banner)

    def test_fit_banner_states_the_race(self, star_file, tmp_path, capsys):
        target = run_simulate(star_file, tmp_path, "target.csv")
        scan = tmp_path / "scan.csv"
        argv = ["fit", "--network", star_file, "--hashtag", str(target),
                "--grid", "lambda=0:1:0.5,eta=1:5:2,dt=0:2", "--runs", "20",
                "--seed", "5", "--out", str(tmp_path / "fit.json"),
                "--scan-out", str(scan)]
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == (
            "", "scan: 27 triplets x 10 runs, best 16 x 20 runs\n")
        runs = [row.rsplit(",", 1)[1]
                for row in scan.read_text().splitlines()[1:]]
        assert sorted(runs) == ["10"] * 11 + ["20"] * 16

    def test_outputs_pipe_through_the_module(self, tmp_path):
        """simulate, fit and classify read what the previous step printed."""
        src = str(pathlib.Path(hashsim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def hashsim_cli(*argv, out=None):
            proc = subprocess.run(
                [sys.executable, "-m", "hashsim.cli", *argv], env=env,
                cwd=tmp_path, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            if out is not None:
                (tmp_path / out).write_text(proc.stdout)
            return proc

        hashsim_cli("synth", "--kind", "uniform-random", "--n", "120",
                    "--edge-prob", "0.06", "--seed", "3", out="net.txt")
        sim = hashsim_cli("simulate", "--network", "net.txt", "--lambda",
                          "0.5", "--eta-star", "3", "--delta-t", "1",
                          "--runs", "5", "--seed", "17", "--out", "-",
                          out="profile.csv")
        assert sim.stderr.startswith("total_activities=")
        fit = hashsim_cli("fit", "--network", "net.txt", "--hashtag",
                          "profile.csv", "--grid", "lambda=0:1:0.5,eta=3,dt=1",
                          "--runs", "5", out="fit.json")
        assert fit.stderr == "scan: 3 triplets x 5 runs\n"
        assert json.loads(fit.stdout)["hashtag"] == "profile"
        label = hashsim_cli("classify", "--fit-json", "fit.json").stdout
        assert label.strip() == json.loads(fit.stdout)["class"]
        shape = hashsim_cli("classify", "--profile-csv", "profile.csv").stdout
        assert shape.strip() in {"S", "A", "B", "P"}


class TestStats:
    def test_json_payload(self, star_file, capsys):
        assert main(["stats", star_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 11
        assert payload["edges"] == 10
        assert payload["f_max"] == 10
        assert payload["l_max"] == 1

    def test_direction_flag(self, star_file, capsys):
        assert main(["stats", star_file, "--direction", "followed-by"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f_max"] == 1
        assert payload["l_max"] == 10


class TestSimulate:
    def test_byte_identical_reruns(self, star_file, tmp_path, capsys):
        a = run_simulate(star_file, tmp_path, "a.csv")
        first = capsys.readouterr().err
        b = run_simulate(star_file, tmp_path, "b.csv")
        second = capsys.readouterr().err
        assert a.read_bytes() == b.read_bytes()
        assert first == second
        assert first.startswith("total_activities=")

    def test_csv_shape(self, star_file, tmp_path):
        out = run_simulate(star_file, tmp_path, "p.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "day,activities,distinct_users"
        assert len(lines) == 16
        assert lines[1].startswith("-7,")
        assert lines[-1].startswith("7,")

    def test_no_activity_before_injection(self, tmp_path):
        net = tmp_path / "pair.txt"
        net.write_text("0 1\n1 0\n")
        out = tmp_path / "zero.csv"
        assert main(["simulate", "--network", str(net), "--lambda", "4",
                     "--eta-star", "60", "--delta-t", "0", "--runs", "5",
                     "--seed", "1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        pre_peak = [row for row in rows if int(row.split(",")[0]) < 0]
        assert len(pre_peak) == 7
        assert all(row.split(",")[1] == "0" for row in pre_peak)

    def test_threshold_ordering_on_star(self, star_file, tmp_path):
        low = run_simulate(star_file, tmp_path, "low.csv",
                           **{"--eta-star": "1", "--runs": "30"})
        high = run_simulate(star_file, tmp_path, "high.csv",
                            **{"--eta-star": "60", "--runs": "30"})
        total = lambda p: sum(float(r.split(",")[1])
                              for r in p.read_text().splitlines()[1:])
        assert total(low) > total(high)


class TestFitAndClassify:
    def test_fit_round_trip_and_classify(self, tmp_path, capsys):
        net = tmp_path / "er.txt"
        assert main(["synth", "--kind", "uniform-random", "--n", "150",
                     "--edge-prob", "0.06", "--seed", "3",
                     "--out", str(net)]) == 0
        profile = tmp_path / "target.csv"
        assert main(["simulate", "--network", str(net), "--lambda", "0.5",
                     "--eta-star", "3", "--delta-t", "1", "--runs", "10",
                     "--seed", "17", "--out", str(profile)]) == 0
        capsys.readouterr()

        report_path = tmp_path / "fit.json"
        scan_path = tmp_path / "scan.csv"
        code = main(["fit", "--network", str(net), "--hashtag", str(profile),
                     "--name", "demo",
                     "--grid", "lambda=0:1:0.5,eta=1:5:2,dt=0:2",
                     "--runs", "10", "--seed", "8",
                     "--out", str(report_path), "--scan-out", str(scan_path)])
        assert code == 0
        banner = capsys.readouterr().err
        assert "scan: 27 triplets x 10 runs" in banner

        report = json.loads(report_path.read_text())
        assert set(report) == {"hashtag", "lambda", "eta_star", "delta_t",
                               "delta_tweets", "delta_users", "objective",
                               "good", "class"}
        assert report["hashtag"] == "demo"
        assert report["objective"] == pytest.approx(
            max(report["delta_tweets"], report["delta_users"]))

        scan_lines = scan_path.read_text().splitlines()
        assert scan_lines[0] == ("lambda,eta_star,delta_t,delta_tweets,"
                                 "delta_users,runs")
        assert len(scan_lines) == 28
        best = min(scan_lines[1:],
                   key=lambda r: max(float(r.split(",")[3]),
                                     float(r.split(",")[4])))
        # the scan CSV keeps 10 significant digits
        assert max(float(best.split(",")[3]),
                   float(best.split(",")[4])) == pytest.approx(
            report["objective"], rel=1e-9)

        assert main(["classify", "--fit-json", str(report_path)]) == 0
        assert capsys.readouterr().out.strip() == report["class"]

    def test_classify_profile_csv(self, star_file, tmp_path, capsys):
        out = run_simulate(star_file, tmp_path, "prof.csv",
                           **{"--eta-star": "1", "--lambda": "4",
                              "--delta-t": "0", "--runs": "40"})
        capsys.readouterr()
        assert main(["classify", "--profile-csv", str(out)]) == 0
        assert capsys.readouterr().out.strip() in {"P", "A", "B", "S"}

    def test_negative_zero_lambda_is_written_as_zero(self, star_file,
                                                     tmp_path):
        # lambda=-0 and lambda=0 are one grid: the same fit JSON and scan
        # CSV, byte for byte, with no "-0" in either
        target = run_simulate(star_file, tmp_path, "target.csv")
        outputs = []
        for lam in ("-0", "0"):
            report, scan = tmp_path / f"{lam}.json", tmp_path / f"{lam}.csv"
            assert main(["fit", "--network", star_file, "--hashtag",
                         str(target), "--name", "t", "--grid",
                         f"lambda={lam},eta=1:3,dt=0:2", "--runs", "3",
                         "--seed", "5", "--out", str(report),
                         "--scan-out", str(scan)]) == 0
            outputs.append((report.read_bytes(), scan.read_bytes()))
        assert outputs[0] == outputs[1]
        assert b'"lambda": 0.0' in outputs[1][0]
        assert all(row.startswith(b"0,")
                   for row in outputs[1][1].splitlines()[1:])

    def test_classify_needs_exactly_one_source(self, tmp_path):
        assert main(["classify"]) == 1
        assert main(["classify", "--fit-json", "a", "--profile-csv", "b"]) == 1

    def test_classify_bad_json_is_validation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"lambda\": 1}")
        assert main(["classify", "--fit-json", str(bad)]) == 2

    @pytest.mark.parametrize("key,value", [("lambda", "NaN"),
                                           ("eta_star", "Infinity"),
                                           ("delta_t", "2.5"),
                                           ("delta_t", "9" * 400),
                                           ("lambda", "false"),
                                           ("eta_star", "true"),
                                           ("delta_t", "true")])
    def test_classify_out_of_domain_fit_is_validation(self, tmp_path, capsys,
                                                      key, value):
        fields = {"lambda": "0.5", "eta_star": "5", "delta_t": "1",
                  key: value}
        report = tmp_path / "fit.json"
        report.write_text("{" + ", ".join(f'"{k}": {v}'
                                          for k, v in fields.items()) + "}")
        assert main(["classify", "--fit-json", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("validation error" in captured.err
                and "Traceback" not in captured.err)

    @pytest.mark.parametrize("flag", ["--lambda-split", "--eta-split"])
    def test_classify_nan_split_is_usage(self, tmp_path, capsys, flag):
        report = tmp_path / "fit.json"
        report.write_text('{"lambda": 0.5, "eta_star": 5, "delta_t": 1}')
        assert main(["classify", "--fit-json", str(report), flag, "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error" in captured.err

    def test_fit_rejects_short_hashtag_csv(self, star_file, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("day,tweets,users\n-7,1,1\n")
        assert main(["fit", "--network", star_file, "--hashtag", str(short),
                     "--grid", "lambda=1,eta=2,dt=0", "--runs", "1"]) == 2

    def test_fit_reads_the_target_before_the_network(self, star_file,
                                                      tmp_path, monkeypatch,
                                                      capsys):
        loads = []
        monkeypatch.setattr(cli, "load_edge_list",
                            lambda *args, **kwargs: loads.append(args))
        targets = {
            "short": (["-7,1,1"], "expected 15 data rows"),
            "zeros": ([f"{d},0,0" for d in range(-7, 8)], "all-zero"),
            "no_users": ([f"{d},2,0" for d in range(-7, 8)], "all-zero"),
        }
        for name, (rows, message) in targets.items():
            target = tmp_path / f"{name}.csv"
            target.write_text("\n".join(["day,tweets,users"] + rows) + "\n")
            for network in (star_file, str(tmp_path / "missing.txt")):
                assert main(["fit", "--network", network,
                             "--hashtag", str(target),
                             "--grid", "lambda=1,eta=2,dt=0",
                             "--runs", "1"]) == 2
                assert message in capsys.readouterr().err
        assert loads == []

    def test_fit_rejects_nan_hashtag_count(self, star_file, tmp_path,
                                           capsys):
        rows = ["day,tweets,users"] + [f"{d},2,1" for d in range(-7, 8)]
        rows[9] = "1,nan,1"
        target = tmp_path / "nan.csv"
        target.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--network", star_file, "--hashtag", str(target),
                     "--grid", "lambda=1,eta=2,dt=0", "--runs", "1"]) == 2
        assert "row 9: non-finite count" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_fit_rejects_non_finite_theta_before_the_scan(
            self, star_file, tmp_path, capsys, theta):
        target = run_simulate(star_file, tmp_path, "target.csv")
        capsys.readouterr()
        out = tmp_path / "fit.json"
        assert main(["fit", "--network", star_file, "--hashtag", str(target),
                     "--grid", "lambda=1,eta=2,dt=0", "--runs", "1",
                     f"--theta={theta}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "theta must be finite" in captured.err
        assert "scan:" not in captured.out
        assert not out.exists()

    def test_classify_rejects_nan_profile_row(self, star_file, tmp_path,
                                              capsys):
        profile = run_simulate(star_file, tmp_path, "prof.csv")
        rows = profile.read_text().splitlines()
        rows[5] = "-3,nan,nan"
        profile.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert main(["classify", "--profile-csv", str(profile)]) == 2
        captured = capsys.readouterr()
        assert "non-finite count" in captured.err
        assert captured.out == ""


def test_cli_defaults_are_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["classify", "--fit-json", "f"])
    for f in dataclasses.fields(ClassBoundaries):
        value = getattr(args, f.name)
        assert value == getattr(ClassBoundaries(), f.name)
        assert type(value) is type(f.default)
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    combine = next(a for a in commands["fit"]._actions
                   if a.dest == "combine")
    assert tuple(combine.choices) == (COMBINE_MAX, COMBINE_MEAN)
    assert combine.default == COMBINE_MAX
    for argv in (["simulate", "--network", "n", "--lambda", "1",
                  "--eta-star", "1", "--delta-t", "0"],
                 ["fit", "--network", "n", "--hashtag", "h"]):
        assert parser.parse_args(argv).runs == GridSpec().runs


def test_sources_parse_at_the_declared_python_floor():
    # syntax newer than requires-python would fail only on an old
    # interpreter; ast checks it on any supported one
    repo = pathlib.Path(__file__).resolve().parents[1]
    floor = re.search(r'requires-python = ">=3\.(\d+)"',
                      (repo / "pyproject.toml").read_text()).group(1)
    sources = sorted((repo / "src" / "hashsim").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, int(floor)))


def test_all_names_exist_once():
    # a stale or repeated entry would otherwise surface only in a star import
    assert len(set(hashsim.__all__)) == len(hashsim.__all__)
    for name in hashsim.__all__:
        assert hasattr(hashsim, name), name
