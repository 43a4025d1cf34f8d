"""Command-line surface: stats, simulate, fit, classify, synth.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 validation error (malformed input content), 3 I/O error. All randomness
flows from --seed; repeated invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .behavior import ModelParams
from .classify import ClassBoundaries, classify_params, classify_profile
from .engine import run_ensemble
from .fitter import (COMBINE_MAX, COMBINE_MEAN, RACE_RUNS, GridSpec,
                     check_targets, grid_scan, race_survivors)
from .hashtags import HashtagCsvError, read_hashtag_csv
from .metric import DEFAULT_THETA, check_theta, normalize
from .network import (DIRECTION_FOLLOWED_BY, DIRECTION_FOLLOWS,
                      EdgeListError, generate_synthetic, load_edge_list,
                      network_stats, write_edge_list)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

# Points allowed on one grid axis, checked before the axis is allocated.
# Each point multiplies the Monte Carlo ensembles of the scan (the default
# axes have 41, 60 and 8 points), so a longer axis cannot be scanned; one
# such as 0:1e15:1 would otherwise fail to allocate with a traceback.
MAX_AXIS_POINTS = 10_000
# Runs in one ensemble, 200x the paper's 50, checked before anything is
# loaded, so a count such as 10**9 is refused before its seeds are built.
# simulate holds one block of runs at a time (~20 bytes per (run, user) of
# the block) and the blocks' 15-day totals, nothing per run, so its memory
# does not grow with runs. fit's scan holds the peak state of every run of
# a group (~18 bytes per (run, user)), so 10,000 runs of an 81k-user graph
# need ~15 GB there. main reports a failed allocation as a usage error.
MAX_RUNS = 10_000
# The largest --seed. The runs of --seed s take the seeds s .. s + runs - 1,
# so every run seed of [0, MAX_SEED] is below 2^63, and no two seeds of it
# alias in rng.as_u64, which reduces seeds mod 2^64.
MAX_SEED = 2**63 - MAX_RUNS


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse usage failures to exit code 1
        raise UsageError(message)


def _seed(text: str) -> int:
    """--seed's type: an int in [0, MAX_SEED], else a usage error."""
    try:
        seed = int(text)
        if 0 <= seed <= MAX_SEED:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be an int in [0, {MAX_SEED}], got {text!r}")


def _parse_axis(spec: str, name: str) -> np.ndarray:
    fields = spec.split(":")
    try:
        if len(fields) == 1:
            value = float(fields[0])
            if not math.isfinite(value):
                raise ValueError
            values = np.array([value])
        elif len(fields) in (2, 3):
            start, end = float(fields[0]), float(fields[1])
            step = float(fields[2]) if len(fields) == 3 else 1.0
            if (not all(map(math.isfinite, (start, end, step)))
                    or step <= 0 or end < start):
                raise ValueError
            intervals = (end - start) / step + 1e-9
            if not intervals < MAX_AXIS_POINTS:
                raise UsageError(f"{name} axis {spec!r} has more than "
                                 f"{MAX_AXIS_POINTS} points")
            count = int(np.floor(intervals)) + 1
            values = start + step * np.arange(count)
            # round off the steps' float error; from 2**52 up floats have
            # no fraction, and rounding's x * 1e10 could overflow
            fractional = np.abs(values) < 2.0 ** 52
            values[fractional] = np.round(values[fractional], 10)
        else:
            raise ValueError
    except ValueError:
        raise UsageError(
            f"bad {name} axis {spec!r} (want start:end:step)") from None
    return values


def parse_grid(text: str | None, runs: int) -> GridSpec:
    """Parse "lambda=0:4:0.1,eta=1:60:1,dt=0:7" into a GridSpec.

    Axes left out, all of them when text is None or empty, keep their
    defaults. An axis given twice is a UsageError.
    """
    parts = {}
    for item in text.split(",") if text else ():
        if "=" not in item:
            raise UsageError(f"bad grid component {item!r}")
        key, value = (side.strip() for side in item.split("=", 1))
        if key in parts:
            raise UsageError(f"grid axis {key!r} given more than once")
        parts[key] = value
    unknown = set(parts) - {"lambda", "eta", "dt"}
    if unknown:
        raise UsageError(f"unknown grid axes {sorted(unknown)}")
    kwargs = {"runs": runs}
    if "lambda" in parts:
        kwargs["lambda_axis"] = _parse_axis(parts["lambda"], "lambda")
    if "eta" in parts:
        kwargs["eta_axis"] = _parse_axis(parts["eta"], "eta")
    if "dt" in parts:
        kwargs["dt_axis"] = _parse_axis(parts["dt"], "dt")
    try:
        return GridSpec(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _model_params(args) -> ModelParams:
    """Out-of-range values are usage errors; NaN or inf is malformed input."""
    try:
        return ModelParams(lam=args.lam, eta_star=args.eta_star,
                           delta_t=args.delta_t)
    except ValueError as exc:
        if not (math.isfinite(args.lam) and math.isfinite(args.eta_star)):
            raise
        raise UsageError(str(exc)) from None


def _check_runs(runs: int) -> None:
    if not 1 <= runs <= MAX_RUNS:
        raise UsageError(f"--runs must be in [1, {MAX_RUNS}]")


def _write_text(path: str, payload: str) -> None:
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def cmd_stats(args) -> int:
    net = load_edge_list(args.network, direction=args.direction)
    print(json.dumps(network_stats(net)))
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _model_params(args)
    _check_runs(args.runs)
    net = load_edge_list(args.network, direction=args.direction)
    profile = run_ensemble(net, params, args.seed, args.runs)
    profile.to_csv(sys.stdout if args.out == "-" else args.out)
    print(f"total_activities={profile.total_activities:.10g} "
          f"peak_day={profile.peak_day}", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    _check_runs(args.runs)
    grid = parse_grid(args.grid, args.runs)
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    check_theta(args.theta)
    # the target first: a malformed or all-zero one fails before a network
    # is loaded
    target = read_hashtag_csv(args.hashtag)
    targets = normalize(target.activities), normalize(target.distinct_users)
    check_targets(*targets)
    net = load_edge_list(args.network, direction=args.direction)
    keep = race_survivors(grid)
    plan = f"{grid.size} triplets x {RACE_RUNS if keep else grid.runs} runs"
    if keep:
        plan += f", best {keep} x {grid.runs} runs"
    print(f"scan: {plan}", file=sys.stderr)
    result = grid_scan(net, *targets, grid, base_seed=args.seed,
                       theta=args.theta, combine=args.combine,
                       threads=args.threads)
    report = {
        "hashtag": (args.name if args.name is not None else
                    os.path.splitext(os.path.basename(args.hashtag))[0]),
        "lambda": result.params.lam,
        "eta_star": result.params.eta_star,
        "delta_t": result.params.delta_t,
        "delta_tweets": result.delta_tweets,
        "delta_users": result.delta_users,
        "objective": result.objective,
        "good": result.good,
        "class": classify_params(result.params.lam, result.params.eta_star,
                                 result.params.delta_t),
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    if args.scan_out is not None:
        lines = ["lambda,eta_star,delta_t,delta_tweets,delta_users,runs"]
        for (lam, eta, dt, d_t, d_u), runs in zip(result.scan,
                                                  result.scan_runs):
            lines.append(f"{lam:.10g},{eta:.10g},{dt},{d_t:.10g},{d_u:.10g},"
                         f"{runs}")
        _write_text(args.scan_out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_classify(args) -> int:
    if (args.fit_json is None) == (args.profile_csv is None):
        raise UsageError("provide exactly one of --fit-json / --profile-csv")
    try:
        boundaries = ClassBoundaries(**{
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(ClassBoundaries)})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.fit_json is not None:
        with open(args.fit_json, "r", encoding="utf-8") as fh:
            try:
                report = json.load(fh)
                label = classify_params(report["lambda"], report["eta_star"],
                                        report["delta_t"], boundaries)
            except (KeyError, TypeError, json.JSONDecodeError) as exc:
                raise ValueError(f"bad fit JSON: {exc}") from None
        print(label)
    else:
        profile = read_hashtag_csv(args.profile_csv)
        print(classify_profile(normalize(profile.activities), boundaries))
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        net = generate_synthetic(args.kind, args.n, edge_prob=args.edge_prob,
                                 seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    write_edge_list(net, sys.stdout if args.out == "-" else args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="hashsim",
                     description="Simulate and fit hashtag activity profiles "
                                 "on a follower network.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_direction(p):
        p.add_argument("--direction",
                       choices=[DIRECTION_FOLLOWS, DIRECTION_FOLLOWED_BY],
                       default=DIRECTION_FOLLOWS,
                       help="edge semantics of a line 'a b' "
                            "(default: a follows b)")

    p = sub.add_parser("stats", help="print network stats as JSON")
    p.add_argument("network", help="edge-list file")
    add_direction(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("simulate", help="run an ensemble and write its "
                                        "profile CSV")
    p.add_argument("--network", required=True)
    add_direction(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eta-star", type=float, required=True)
    p.add_argument("--delta-t", type=int, required=True)
    p.add_argument("--runs", type=int, default=GridSpec.runs)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="-", help="profile CSV path "
                                              "('-' for stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="grid-scan parameters against a hashtag "
                                   "CSV")
    p.add_argument("--network", required=True)
    add_direction(p)
    p.add_argument("--hashtag", required=True,
                   help="CSV 'day,tweets,users' for days -7..7")
    p.add_argument("--name", default=None,
                   help="report name (default: the --hashtag file's stem)")
    p.add_argument("--grid", default=None,
                   help="axes, e.g. lambda=0:4:0.1,eta=1:60:1,dt=0:7")
    p.add_argument("--runs", type=int, default=GridSpec.runs)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.add_argument("--combine", choices=(COMBINE_MAX, COMBINE_MEAN),
                   default=COMBINE_MAX)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default="-", help="fit report JSON path")
    p.add_argument("--scan-out", default=None,
                   help="optional full-grid score CSV")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("classify", help="label a fit result or a profile")
    p.add_argument("--fit-json", default=None)
    p.add_argument("--profile-csv", default=None)
    for f in dataclasses.fields(ClassBoundaries):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("synth", help="write a synthetic edge list")
    p.add_argument("--kind", choices=["star", "uniform-random"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except MemoryError:
        hint = ""
        if args is not None and args.command == "fit":
            hint = (": the scan holds ~18 bytes per (run, user); "
                    f"try a lower --runs than {args.runs}")
        elif args is not None and args.command == "simulate":
            hint = (": an ensemble holds one block of runs, ~20 bytes per "
                    "(run, user) of the block, so a lower --runs frees little")
        print(f"out of memory{hint}", file=sys.stderr)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EdgeListError, HashtagCsvError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
