"""hashsim benchmark: three fixed workloads against the public API.

Usage, from the root of a checkout:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each exists: benchmarks/README.md):
    scan_er1000           `hashsim fit` through cli.main on a 1,000-node ER graph
    ensemble_dense_pa20k  one 50-run run_ensemble on a 20,000-node heavy-tailed graph
    snap_scale            load_edge_list on a SNAP ego-Twitter-sized file, then a
                          10-run run_ensemble

hashsim is imported from ./src of the checkout. Inputs are generated from
--seed by benchmarks/gen.py in a child process (so the generator's memory
is not counted in peak_rss_mb) and cached by seed in .bench_cache/. The
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Full records (samples, digests, machine context, spans) go
to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402

clock = time.perf_counter

WORKLOADS = ("scan_er1000", "ensemble_dense_pa20k", "snap_scale")

# scan_er1000: fixed target, a 50-run ensemble at the planted triplet on
# the seed-0 network, made once by `gen.py target` (input data, not output
# of the commit under test).
TARGET_CSV = os.path.join(BENCH_DIR, "data", "target_er1000.csv")
SCAN_GRID = "lambda=0:4:0.5,eta=5:15:5,dt=0:4:2"
SCAN_TRIPLETS = 9 * 3 * 3
SCAN_RUNS = 50
PLANTED = {"lambda": 0.5, "eta_star": 10.0, "delta_t": 2}
RECOVERY_TOLERANCE = {"lambda": 0.5, "eta_star": 5.0, "delta_t": 0}

# (lam, eta_star, delta_t, runs) of the single ensemble per operation.
ENSEMBLES = {
    "ensemble_dense_pa20k": (0.5, 2.0, 7, 50),
    "snap_scale": (1.0, 40.0, 1, 10),
}
# Set-up is repeated and its median reported. scan_er1000 loads take
# ~40 ms and are noisy, so they are repeated most; snap_scale loads ~6 s.
SETUP_REPEATS = {"scan_er1000": 25, "ensemble_dense_pa20k": 3,
                 "snap_scale": 3}
SETUP_SPANS = ("network.load", "hashtags.read")

# Bytes one day's exposure aggregation computes over, per run: per edge the
# int64 bin index, the float64 tiled follower count, two int16 gathers, the
# bool comparison, its float64 copy and the float64 weight product (37 B);
# per user the two float64 outputs y and eta (16 B).
AGG_BYTES_PER_EDGE, AGG_BYTES_PER_USER = 37, 16


class BenchError(Exception):
    """The checkout cannot be benchmarked (no sources, bad inputs)."""


def import_hashsim():
    if not os.path.isdir(os.path.join(SRC, "hashsim")):
        raise BenchError(f"no hashsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import hashsim
    from hashsim import cli, engine, hashtags, network  # noqa: F401
    if not os.path.abspath(hashsim.__file__).startswith(SRC + os.sep):
        raise BenchError(f"hashsim imported from {hashsim.__file__}, "
                         f"not from {SRC}")
    return hashsim


def network_input(workload: str, seed: int) -> tuple[str, dict]:
    """Path and generator stats of the workload's edge list, cached by seed."""
    os.makedirs(CACHE_DIR, exist_ok=True)
    stem = os.path.join(CACHE_DIR, f"{workload}-{seed}")
    path, stats_path = stem + ".txt", stem + ".json"
    if not (os.path.exists(path) and os.path.exists(stats_path)):
        for name in os.listdir(CACHE_DIR):  # keep one file per workload
            if name.startswith(workload + "-"):
                os.remove(os.path.join(CACHE_DIR, name))
        tmp = stem + ".tmp"
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "gen.py"), "edges",
             "--workload", workload, "--seed", str(seed), "--out", tmp],
            capture_output=True, text=True, check=False, timeout=170)
        if proc.returncode != 0:
            raise BenchError(f"generator failed: {proc.stderr.strip()}")
        with open(stats_path, "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)
        os.replace(tmp, path)
    with open(stats_path, encoding="utf-8") as fh:
        return path, json.load(fh)


class Checks:
    """Operation accounting and the correctness checks behind failed_frac.

    An operation (a fit, an ensemble or a load) fails when it raises, when
    its own check fails, when any ensemble profile produced during it breaks
    an invariant, or when its output digest differs from the first one of
    the same kind in this process.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self._profile_errors = []

    def profile(self, params, prof) -> None:
        from hashsim.engine import DAY_OFFSETS
        acts, users = prof.activities, prof.distinct_users
        if not (np.all(np.isfinite(acts)) and np.all(np.isfinite(users))):
            self._profile_errors.append("non-finite profile value")
        if np.any(users > acts):
            self._profile_errors.append("distinct_users > activities")
        early = DAY_OFFSETS < -params.delta_t
        if np.any(acts[early] != 0) or np.any(users[early] != 0):
            self._profile_errors.append(
                f"activity before day -{params.delta_t}")

    def run(self, kind: str, fn):
        """Run one operation; fn returns (result, output bytes or None)."""
        self.attempted += 1
        before = len(self._profile_errors)
        try:
            result, output = fn()
        except Exception as exc:  # any failure of the program is counted
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        problems = self._profile_errors[before:]
        if output is not None:
            digest = hashlib.sha256(output).hexdigest()
            first = self.digests.setdefault(kind, digest)
            if digest != first:
                problems.append(f"output digest {digest} != {first}")
        if problems:
            self._fail(f"{kind}: {'; '.join(sorted(set(problems)))}")
            return None
        return result

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class Workload:
    """One workload: set-up calls, and the operation timed after them."""

    def __init__(self, hashsim, name: str, seed: int, net_path: str,
                 checks: Checks):
        self.hs, self.name, self.seed = hashsim, name, seed
        self.net_path, self.checks = net_path, checks
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out_stem = os.path.join(OUT_DIR, f"{name}-seed{seed}")
        self.net = None
        self.fit_report = None

    @property
    def runs_per_op(self) -> int:
        if self.name == "scan_er1000":
            return SCAN_TRIPLETS * SCAN_RUNS
        return ENSEMBLES[self.name][3]

    def setup(self):
        """Load the inputs once; returns the wall time, or None on failure."""
        hs = self.hs
        self.net = None  # never hold two SNAP-sized networks at once

        def load():
            net = hs.network.load_edge_list(self.net_path)
            if self.name == "scan_er1000":
                hs.hashtags.read_hashtag_csv(TARGET_CSV)
            return net, None

        start = clock()
        net = self.checks.run("load", load)
        elapsed = clock() - start
        if net is None:
            return None
        self.net = net
        return elapsed

    def op(self, tracer: tracing.Tracer):
        """Run the workload's operation; returns (wall_s, setup_s in it)."""
        mark = len(tracer.spans)
        start = clock()
        ok = self.checks.run(self.name, self._fit if self.name == "scan_er1000"
                             else self._ensemble)
        elapsed = clock() - start
        if ok is None:
            return None
        setup = sum(s[4] - s[3] for s in tracer.spans[mark:]
                    if s[2] in SETUP_SPANS)
        return elapsed, setup

    def _fit(self):
        fit_json, scan_csv = self.out_stem + "-fit.json", \
            self.out_stem + "-scan.csv"
        argv = ["fit", "--network", self.net_path, "--hashtag", TARGET_CSV,
                "--grid", SCAN_GRID, "--runs", str(SCAN_RUNS),
                "--seed", str(self.seed), "--threads", "1",
                "--out", fit_json, "--scan-out", scan_csv]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.hs.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hashsim fit exited {code}")
        with open(fit_json, "rb") as fh:
            fit_bytes = fh.read()
        with open(scan_csv, "rb") as fh:
            scan_bytes = fh.read()
        report = json.loads(fit_bytes)
        misses = [key for key, want in PLANTED.items()
                  if abs(report[key] - want) > RECOVERY_TOLERANCE[key]]
        if misses or report["good"] is not True:
            raise RuntimeError(f"fit missed the planted triplet {PLANTED}: "
                               f"{report}")
        rows = scan_bytes.decode().splitlines()[1:]
        if len(rows) != SCAN_TRIPLETS or not all(
                math.isfinite(float(v)) for r in rows
                for v in r.split(",")[3:]):
            raise RuntimeError("scan CSV has missing or non-finite rows")
        self.fit_report = report
        return True, fit_bytes + scan_bytes

    def _ensemble(self):
        lam, eta, dt, runs = ENSEMBLES[self.name]
        params = self.hs.ModelParams(lam=lam, eta_star=eta, delta_t=dt)
        profile = self.hs.engine.run_ensemble(self.net, params, self.seed,
                                              runs)
        buf = io.StringIO()
        profile.to_csv(buf)
        return True, buf.getvalue().encode()

    def iteration(self, tracer: tracing.Tracer):
        """Set-up plus operation, as one user of the workload sees it."""
        start = clock()
        if self.name != "scan_er1000" and self.setup() is None:
            return None
        if self.op(tracer) is None:
            return None
        return clock() - start


def measure(seconds: float, fn) -> list:
    """Call fn as many times as fit `seconds` best; keep non-None results.

    Calls fn at least once, and again while the next call is expected to
    end less than half a call past the budget, so a run whose calls take
    several seconds lasts `seconds` give or take half a call.
    """
    samples, durations, start = [], [], clock()
    while True:
        t0 = clock()
        value = fn()
        durations.append(clock() - t0)
        if value is not None:
            samples.append(value)
        if clock() - start + statistics.median(durations) / 2 > seconds:
            return samples


def end_to_end(wl: Workload, seconds: float) -> tuple[dict, dict]:
    checks = wl.checks
    tracer = tracing.Tracer()
    tracing.install_checks(tracer, checks.profile)
    try:
        setups = [t for t in (wl.setup() for _ in
                              range(SETUP_REPEATS[wl.name])) if t is not None]
        ops = measure(seconds, lambda: wl.op(tracer))
    finally:
        tracer.uninstall()
    if wl.name == "scan_er1000":
        # each fit loads the network and the target itself
        walls = [w for w, _ in ops]
        setups += [s for _, s in ops]
        computes = [w - s for w, s in ops]
        wall = statistics.median(walls) if walls else math.nan
    else:
        computes = [w for w, _ in ops]
        wall = (statistics.median(setups) + statistics.median(computes)
                if setups and computes else math.nan)
    setup = statistics.median(setups) if setups else math.nan
    compute = statistics.median(computes) if computes else math.nan
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = {"setup_s": setups, "compute_s": computes,
               "ops_s": [w for w, _ in ops]}
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "sim_runs_per_s": (wl.runs_per_op / compute, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, samples


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: tracing.Tracer) -> dict:
    tot = tracing.span_totals(tracer.spans)
    cnt = tracer.counts

    def t(name, key="s"):
        return float(tot.get(name, {}).get(key, 0.0))

    triplets = tracing.triplet_times(tracer.spans)
    day_steps = cnt["engine.day_steps"]
    user_day_steps = cnt["engine.user_day_steps"]
    return {
        "network.load_s": (t("network.load"), "s"),
        "network.from_edges_s": (t("network.from_edges"), "s"),
        "network.parse_s": (t("network.load", "self_s"), "s"),
        "network.lines": (cnt["network.lines"], "count"),
        "network.edges": (cnt["network.edges"], "count"),
        "rng.stream_matrix_s": (t("rng.stream_matrix"), "s"),
        "rng.stream_matrix_calls": (t("rng.stream_matrix", "calls"), "count"),
        "rng.uniforms_s": (t("rng.uniforms"), "s"),
        "rng.uniforms_calls": (t("rng.uniforms", "calls"), "count"),
        "rng.draws": (cnt["rng.draws"], "count"),
        "engine.ensemble_s": (t("engine.ensemble"), "s"),
        "engine.ensemble_calls": (t("engine.ensemble", "calls"), "count"),
        "engine.self_s": (t("engine.ensemble", "self_s"), "s"),
        "engine.aggregate_s": (t("engine.aggregate"), "s"),
        "engine.aggregate_calls": (t("engine.aggregate", "calls"), "count"),
        "engine.aggregate_bytes_computed":
            (cnt["engine.aggregate_bytes_computed"], "bytes"),
        "engine.binomial_s": (t("engine.binomial"), "s"),
        "engine.gate_passes": (cnt["engine.gate_passes"], "count"),
        "engine.user_arrays_s": (t("engine.user_arrays"), "s"),
        "engine.user_arrays_calls": (t("engine.user_arrays", "calls"),
                                     "count"),
        "engine.day_steps": (day_steps, "count"),
        "engine.day_steps_skipped":
            (t("engine.interest", "calls") - day_steps, "count"),
        "engine.active_frac": (cnt["engine.acted_user_days"] / user_day_steps
                               if user_day_steps else 0.0, "frac"),
        "metric.distance_s": (t("metric.distance"), "s"),
        "metric.distance_calls": (t("metric.distance", "calls"), "count"),
        "metric.normalize_s": (t("metric.normalize"), "s"),
        "fitter.scan_s": (t("fitter.scan"), "s"),
        "fitter.self_s": (t("fitter.scan", "self_s"), "s"),
        "fitter.triplets": (t("fitter.triplet_seed", "calls"), "count"),
        "fitter.triplet_seed_s": (t("fitter.triplet_seed"), "s"),
        "fitter.triplet_p50_s": (percentile(triplets, 50), "s"),
        # with 81 triplets, 12 lie beyond p85 (at least 10 are needed)
        "fitter.triplet_p85_s": (percentile(triplets, 85), "s"),
        "hashtags.read_s": (t("hashtags.read"), "s"),
        "cli.main_s": (t("cli.main"), "s"),
        "cli.self_s": (t("cli.main", "self_s"), "s"),
    }


def traced(wl: Workload, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced iterations; report traced medians."""
    checks = wl.checks
    plain, layered, traced_walls, spans = [], [], [], []

    def iterate(install, walls):
        tracer = tracing.Tracer()
        install(tracer, checks.profile)
        try:
            wall = wl.iteration(tracer)
        finally:
            tracer.uninstall()
        if wall is not None:
            walls.append(wall)
        return tracer, wall

    def pair():
        # alternate which side goes first, so neither always pays warm-up
        first_plain = len(spans) % 2 == 0
        if first_plain:
            iterate(tracing.install_checks, plain)
        tracer, wall = iterate(tracing.install_layers, traced_walls)
        if wall is not None:
            layered.append(layer_metrics(tracer))
            spans.append(tracer.spans)
        if not first_plain:
            iterate(tracing.install_checks, plain)

    measure(seconds, pair)
    metrics = {}
    if layered:
        for name, (_, unit) in layered[0].items():
            metrics[name] = (statistics.median(m[name][0] for m in layered),
                             unit)
    if plain and traced_walls:
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(plain) - 1.0,
            "frac")
    return metrics, {"untraced_iteration_s": plain, "spans": spans}


def machine_context(hashsim) -> dict:
    def getconf(key):
        try:
            out = subprocess.run(["getconf", key], capture_output=True,
                                 text=True, check=True, timeout=10).stdout
            return int(out.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False,
                              timeout=10)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.dirname(hashsim.__file__)
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".csv")):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    src.update(fh.read())
    return {
        "git_sha": git_sha,
        "source_sha256": src.hexdigest(),
        "hashsim_version": hashsim.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "l2_cache_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }


def working_set(name: str, stats: dict) -> int:
    runs = SCAN_RUNS if name == "scan_er1000" else ENSEMBLES[name][3]
    return runs * (stats["edges"] * AGG_BYTES_PER_EDGE
                   + stats["nodes"] * AGG_BYTES_PER_USER)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchmarks/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        hashsim = import_hashsim()
        net_path, stats = network_input(args.workload, args.seed)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    checks = Checks()
    wl = Workload(hashsim, args.workload, args.seed, net_path, checks)
    if args.trace:
        metrics, detail = traced(wl, args.seconds)
    else:
        metrics, detail = end_to_end(wl, args.seconds)

    context = machine_context(hashsim)
    context["network"] = stats
    context["agg_working_set_bytes"] = working_set(args.workload, stats)
    values = {k: {"value": v if math.isfinite(v) else None, "unit": u}
              for k, (v, u) in metrics.items()}
    correct = (checks.failed == 0 and checks.attempted > 0
               and all(m["value"] is not None for m in values.values()))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "context": context, "output_sha256": checks.digests,
        "fit": wl.fit_report, "errors": checks.errors,
        "correct": correct, "attempted": checks.attempted,
        "failed": checks.failed, "metrics": values,
        "samples": {k: v for k, v in detail.items() if k != "spans"},
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s",
                                  "end_s", "thread"],
                       "iterations": detail["spans"]}, fh)

    summary = "" if args.trace else " ".join(
        f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
    print(f"{args.workload} seed={args.seed}: {summary} failed_frac="
          f"{checks.failed / max(checks.attempted, 1):.6g} frac "
          f"({checks.failed}/{checks.attempted})")
    for err in checks.errors:
        print(f"error: {err}")
    print(json.dumps({"context": context, "output_sha256": checks.digests}))
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
