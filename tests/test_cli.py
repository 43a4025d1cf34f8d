import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hashsim
from hashsim import cli
from hashsim.cli import (MAX_AXIS_POINTS, MAX_RUNS, main, parse_grid,
                         UsageError)

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
                                      "lambda=0:1e15:1"])
    def test_non_finite_grid_is_usage_before_loading(self, tmp_path, capsys,
                                                     grid):
        # the inputs do not exist, so loading them would exit 3
        assert main(["fit", "--network", str(tmp_path / "no.txt"),
                     "--hashtag", str(tmp_path / "no.csv"),
                     "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err

    @pytest.mark.parametrize("grid", [[], ["--grid", "lambda=1,eta=2,dt=0"]])
    def test_fit_zero_runs_is_usage(self, tmp_path, capsys, grid):
        assert main(["fit", "--network", str(tmp_path / "no.txt"),
                     "--hashtag", str(tmp_path / "no.csv"),
                     "--runs", "0"] + grid) == 1
        assert "usage error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_out_of_memory_is_usage(self, star_file, tmp_path, capsys,
                                    monkeypatch, command):
        # runs up to MAX_RUNS can still exceed memory on a large network
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
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "runs x users" in err and "--runs than 9000" in err

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
        first = capsys.readouterr().out
        b = run_simulate(star_file, tmp_path, "b.csv")
        second = capsys.readouterr().out
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
        banner = capsys.readouterr().out
        assert "scan: 27 triplets x 10 runs" in banner

        report = json.loads(report_path.read_text())
        assert set(report) == {"hashtag", "lambda", "eta_star", "delta_t",
                               "delta_tweets", "delta_users", "objective",
                               "good", "class"}
        assert report["hashtag"] == "demo"
        assert report["objective"] == pytest.approx(
            max(report["delta_tweets"], report["delta_users"]))

        scan_lines = scan_path.read_text().splitlines()
        assert scan_lines[0] == "lambda,eta_star,delta_t,delta_tweets,delta_users"
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


def test_all_names_exist_once():
    # a stale or repeated entry would otherwise surface only in a star import
    assert len(set(hashsim.__all__)) == len(hashsim.__all__)
    for name in hashsim.__all__:
        assert hasattr(hashsim, name), name
