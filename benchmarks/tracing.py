"""Outside-in tracing of hashsim's public functions, from the benchmark only.

`install_layers` rebinds each listed function in every loaded `hashsim.*`
module namespace that holds it (so `from .engine import run_ensemble` in
the fitter is caught as well as `engine.run_ensemble`), and binds a timing
proxy to the `np` name of `hashsim.engine` so that `np.bincount`, the
exposure aggregation, is timed as the engine sees it. `uninstall` restores
every binding. The hashsim sources are not modified.

Spans are (id, parent id, name, start, end, thread id), kept in memory and
written out by the caller when the run ends. A per-thread stack supplies the
parent, so spans nest correctly under a thread pool. Counters are updated
under a lock.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def count(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name: str, fn, after=None):
        """Return fn timed as span `name`; after(args, kwargs, result) may count."""
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              threading.get_ident()))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def rebind(self, original, replacement) -> None:
        """Point every hashsim module binding of `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hashsim"
                                   or mod_name.startswith("hashsim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _NumpyProxy:
    """Stands in for numpy inside one module; only `bincount` is traced."""

    def __init__(self, bincount):
        self.bincount = bincount

    def __getattr__(self, name):
        value = getattr(np, name)
        setattr(self, name, value)  # later lookups skip __getattr__
        return value


def _params(args, kwargs):
    """The ModelParams argument of run_ensemble(net, params, base_seed, runs)."""
    return args[1] if len(args) > 1 else kwargs["params"]


def install_checks(tracer: Tracer, on_profile) -> None:
    """The minimal binding for untraced runs.

    Times the two set-up calls (for setup_s inside `hashsim fit`) and hands
    every ensemble profile to `on_profile(params, profile)` for the
    correctness checks: three rebinds, a few hundred calls per fit.
    """
    from hashsim import engine, hashtags, network

    tracer.rebind(network.load_edge_list,
                  tracer.wrap("network.load", network.load_edge_list))
    tracer.rebind(hashtags.read_hashtag_csv,
                  tracer.wrap("hashtags.read", hashtags.read_hashtag_csv))
    tracer.rebind(engine.run_ensemble,
                  tracer.wrap("engine.ensemble", engine.run_ensemble,
                              lambda a, k, r: on_profile(_params(a, k), r)))


def install_layers(tracer: Tracer, on_profile) -> None:
    """Wrap the public function of every layer named in benchmarks/README.md."""
    from hashsim import cli, engine, fitter, hashtags, metric, network, rng

    c = tracer.count

    def after_from_edges(args, kwargs, net):
        c("network.lines", len(args[1]))  # args[0] is the class
        c("network.edges", net.edge_count)

    def after_uniforms(args, kwargs, u):
        c("rng.draws", np.size(u))
        if args[2] == 0:  # slot 0, the exposure draw, is made once per day
            c("engine.day_steps", 1)
            c("engine.user_day_steps", np.size(u))

    def after_ensemble(args, kwargs, profile):
        runs = args[3] if len(args) > 3 else kwargs["runs"]
        c("engine.acted_user_days", runs * float(profile.distinct_users.sum()))
        on_profile(_params(args, kwargs), profile)

    def after_binomial(args, kwargs, k):
        c("engine.gate_passes", np.size(args[0]))

    def after_bincount(args, kwargs, out):
        x = np.asarray(args[0])
        w = kwargs.get("weights", args[1] if len(args) > 1 else None)
        c("engine.aggregate_bytes_computed",
          x.nbytes + (np.asarray(w).nbytes if w is not None else 0)
          + out.nbytes)

    from_edges = network.FollowNetwork.__dict__["from_edges"].__func__
    tracer.set(network.FollowNetwork, "from_edges", classmethod(
        tracer.wrap("network.from_edges", from_edges, after_from_edges)))

    layers = [
        (network.load_edge_list, "network.load", None),
        (rng.stream_matrix, "rng.stream_matrix", None),
        (rng.uniforms, "rng.uniforms", after_uniforms),
        (engine.run_ensemble, "engine.ensemble", after_ensemble),
        (engine.binomial_count, "engine.binomial", after_binomial),
        (engine.user_arrays, "engine.user_arrays", None),
        (engine.interest, "engine.interest", None),
        (metric.normalize, "metric.normalize", None),
        (metric.distance, "metric.distance", None),
        (fitter.grid_scan, "fitter.scan", None),
        (fitter.triplet_seed, "fitter.triplet_seed", None),
        (hashtags.read_hashtag_csv, "hashtags.read", None),
        (cli.main, "cli.main", None),
    ]
    for fn, name, after in layers:
        tracer.rebind(fn, tracer.wrap(name, fn, after))
    tracer.set(engine, "np", _NumpyProxy(
        tracer.wrap("engine.aggregate", np.bincount, after_bincount)))


def span_totals(spans) -> dict:
    """Per span name: total duration, self time and call count.

    Self time is a span's duration minus its direct children's durations;
    children of one span run on its thread and nest inside it.
    """
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for sid, _, name, start, end, _ in spans:
        t = totals[name]
        t["s"] += end - start
        t["self_s"] += end - start - child_time[sid]
        t["calls"] += 1
    return dict(totals)


def triplet_times(spans) -> list:
    """Wall time of each scan triplet, in scan order per thread.

    A triplet starts at its `fitter.triplet_seed` call and ends at the end of
    the last span its thread opens before the next triplet starts (the
    ensemble and the two distance calls).
    """
    scans = [s for s in spans if s[2] == "fitter.scan"]
    if not scans:
        return []
    lo, hi = min(s[3] for s in scans), max(s[4] for s in scans)
    inner = {"fitter.triplet_seed", "engine.ensemble", "metric.normalize",
             "metric.distance"}
    by_thread = defaultdict(list)
    for s in spans:
        if s[2] in inner and lo <= s[3] and s[4] <= hi:
            by_thread[s[5]].append(s)
    times = []
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: s[3])
        start = end = None
        for s in thread_spans:
            if s[2] == "fitter.triplet_seed":
                if start is not None:
                    times.append(end - start)
                start = end = s[3]
            end = max(end, s[4]) if end is not None else s[4]
        if start is not None:
            times.append(end - start)
    return times
