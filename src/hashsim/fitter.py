"""Monte Carlo grid scan over (delta_t, eta_star, lambda) against target profiles.

The scan is a two-round race (successive halving; Jamieson & Talwalkar,
AISTATS 2016). Round one scores every triplet at RACE_RUNS runs. Round
two re-scores the best RACE_KEEP_PERCENT of the grid, at least
RACE_FLOOR triplets, at the grid's runs, and the winner is taken among
them alone. A grid of runs <= RACE_RUNS, or one too small to leave any
triplet out, is scored in one round at its runs.

A round works in (delta_t, eta_star) groups, which are independent and
run serially or on threads. Every lambda of a group shares one seed,
hashed from base_seed, delta_t and eta_star, and so shares the simulated
days -delta_t..0, where interest is 1 whatever lambda is: the group
simulates them once (engine.peak_state) and continues each of its lambda
from there through day +7. Neighbouring lambda then differ by the
parameter, not by independent noise (common random numbers). The seed
depends on the values, not the grid position, so a triplet scores the
same in any grid and any round that scores it at the same runs, serial
and threaded scans return identical results, and a triplet can be
recomputed alone with one run_ensemble.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .behavior import MAX_DELTA_T, ModelParams
from .engine import N_DAYS, peak_state, run_ensemble
from .metric import DEFAULT_THETA, check_theta, distance, normalize
from .network import FollowNetwork

GOOD_FIT_LIMIT = 0.08

# The race: runs per triplet in round one, and the share of the grid (at
# least RACE_FLOOR triplets) re-scored at the grid's runs in round two.
# Over 120 planted targets (half off the grid) on a 1,000-user graph and
# a 288-triplet grid at 50 runs with lambda by 0.5, the raced winner was
# the exhaustive one every time, also with 5 runs in round one. On a
# 1,312-triplet grid with the default lambda step of 0.1 it missed the
# exhaustive winner for 4 of 120 targets, all near ties (the two winners'
# means within 2 sd over 6 fresh seed sets), 2 of them exact ties. Fewer
# runs in round one, or fewer survivors, need such a check on more
# targets first.
RACE_RUNS = 10
RACE_KEEP_PERCENT = 5
RACE_FLOOR = 16

COMBINE_MAX = "max"
COMBINE_MEAN = "mean"


def _default_lambda_axis() -> np.ndarray:
    return np.round(np.arange(41) * 0.1, 10)


def _default_eta_axis() -> np.ndarray:
    return np.arange(1, 61, dtype=float)


def _default_dt_axis() -> np.ndarray:
    return np.arange(0, MAX_DELTA_T + 1, dtype=int)


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Scan axes; the defaults enumerate 41 x 60 x 8 = 19,680 triplets.

    runs must be an int >= 1 (a NumPy integer too, not a bool or float).
    """

    lambda_axis: np.ndarray = field(default_factory=_default_lambda_axis)
    eta_axis: np.ndarray = field(default_factory=_default_eta_axis)
    dt_axis: np.ndarray = field(default_factory=_default_dt_axis)
    runs: int = 50

    def __post_init__(self):
        # + 0.0 stores a -0 lambda as 0, so it is written as 0
        lam = np.asarray(self.lambda_axis, dtype=float) + 0.0
        eta = np.asarray(self.eta_axis, dtype=float)
        dt = np.asarray(self.dt_axis, dtype=float)
        for name, axis in (("lambda", lam), ("eta", eta), ("dt", dt)):
            if axis.size == 0:
                raise ValueError(f"{name} axis is empty")
            if not np.all(np.diff(axis) > 0):  # NaN fails too
                raise ValueError(f"{name} axis must be strictly ascending")
        rng.check_seeds(0, self.runs)  # grid_scan checks its base seed
        # ModelParams owns the domain; on ascending axes, valid endpoints
        # make every interior lambda and eta valid
        for d in dt:
            ModelParams(lam=lam[0], eta_star=eta[0], delta_t=d)
        ModelParams(lam=lam[-1], eta_star=eta[-1], delta_t=dt[0])
        # triplet_seed rounds eta * 10^6 to an int, which inf is not
        if not math.isfinite(float(eta[-1]) * 1_000_000):
            raise ValueError(f"eta axis must keep eta * 10^6 finite "
                             f"(eta up to ~1.8e302), got {eta[-1]:g}")
        object.__setattr__(self, "lambda_axis", lam)
        object.__setattr__(self, "eta_axis", eta)
        object.__setattr__(self, "dt_axis", dt.astype(int))

    @property
    def size(self) -> int:
        return (self.lambda_axis.size * self.eta_axis.size
                * self.dt_axis.size)


@dataclass(frozen=True)
class FitResult:
    params: ModelParams
    delta_tweets: float
    delta_users: float
    objective: float
    # one row (lam, eta_star, delta_t, d_tweets, d_users) per triplet, in
    # scan order: delta_t, then eta_star, then lambda ascending, and the
    # runs each row was scored at
    scan: tuple = field(default=(), repr=False)
    scan_runs: tuple = field(default=(), repr=False)

    @property
    def good(self) -> bool:
        """Both profile distances within the goodness cut."""
        return (self.delta_tweets <= GOOD_FIT_LIMIT
                and self.delta_users <= GOOD_FIT_LIMIT)


def triplet_seed(base_seed: int, delta_t: int, eta_star: float,
                 lam: float) -> int:
    """Deterministic triplet seed, from base_seed, delta_t and eta_star.

    lam is not read: every lambda of a (delta_t, eta_star) group gets the
    same seed, so the group shares its pre-peak days and its random
    numbers. Value-based (not position-based), so a triplet scores
    identically in any grid that contains it; scans are reproducible and
    restartable point by point.
    """
    with np.errstate(over="ignore"):
        key = rng.mix64(rng.as_u64(round(eta_star * 1_000_000)) + rng._GOLDEN)
        key = rng.mix64(key ^ rng.as_u64(int(delta_t) + 1))
        return int(rng.mix64(key ^ rng.as_u64(base_seed)) >> np.uint64(1))


def race_survivors(grid: GridSpec) -> int:
    """Triplets that round two re-scores at grid.runs; 0 for one round."""
    keep = max(-(-grid.size * RACE_KEEP_PERCENT // 100), RACE_FLOOR)
    return keep if grid.runs > RACE_RUNS and keep < grid.size else 0


def check_targets(target_tweets: np.ndarray,
                  target_users: np.ndarray) -> None:
    """Raise ValueError unless both targets are finite 15-day arrays.

    An all-zero target is refused too: an all-zero count series has no
    profile shape to fit (metric.normalize returns zeros for it). A NaN
    day would drop out of every distance's mask instead of failing.
    """
    for target in (target_tweets, target_users):
        if np.shape(target) != (N_DAYS,):
            raise ValueError(f"target profiles must have exactly {N_DAYS} "
                             f"days, got shape {np.shape(target)}")
        if not np.all(np.isfinite(target)):
            raise ValueError("target profiles must be finite")
    if not (np.any(target_tweets) and np.any(target_users)):
        raise ValueError("target profiles must not be all-zero")


def grid_scan(net: FollowNetwork, target_tweets: np.ndarray,
              target_users: np.ndarray, grid: GridSpec | None = None,
              base_seed: int = 0, theta: float = DEFAULT_THETA,
              combine: str = COMBINE_MAX, threads: int = 1) -> FitResult:
    """Race every triplet and return the best fit at grid.runs.

    The targets are 15-day fraction arrays (metric.normalize of the tweet
    and user counts). A target that check_targets refuses, a bad theta,
    threads < 1 or a base_seed that is not an int (a bool or a float)
    raises ValueError before anything is simulated. The
    objective combines the tweet- and user-profile distances (max by
    default); ties break toward smaller eta_star, then lambda, then
    delta_t, independent of evaluation order. Round one scores every
    triplet at RACE_RUNS runs; round two re-scores the race_survivors(grid)
    best of them, by that order, at grid.runs, each as the one-round scan
    would. The winner is the best row at grid.runs. The result's scan holds
    every triplet's latest score and scan_runs its run count.
    """
    grid = grid or GridSpec()
    check_targets(target_tweets, target_users)
    check_theta(theta)
    if combine not in (COMBINE_MAX, COMBINE_MEAN):
        raise ValueError(f"unknown combine mode {combine!r}")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    rng.check_seeds(base_seed, grid.runs)

    def evaluate_group(task):
        """Score some lambda of one (delta_t, eta_star) group at runs."""
        dt, eta, lams, runs = task
        rows, snapshot = [], None
        for lam in lams:
            params = ModelParams(lam=lam, eta_star=eta, delta_t=dt)
            seed = triplet_seed(base_seed, dt, eta, lam)
            if snapshot is None:
                snapshot = peak_state(net, params, seed, runs)
            prof = run_ensemble(net, params, seed, runs, start=snapshot)
            d_t = distance(normalize(prof.activities), target_tweets, theta)
            d_u = distance(normalize(prof.distinct_users), target_users, theta)
            rows.append((lam, eta, dt, d_t, d_u))
        return rows

    def objective(row):
        d_t, d_u = row[3], row[4]
        return max(d_t, d_u) if combine == COMBINE_MAX else (d_t + d_u) / 2.0

    def order(i):
        return objective(rows[i]), rows[i][1], rows[i][0], rows[i][2]

    # map() submits every group at once and each submit may start a thread,
    # so more workers than CPUs would only add OS threads
    workers = min(threads, os.cpu_count() or 1)

    def score(tasks):
        """The rows of every (delta_t, eta_star, lambdas, runs) task."""
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                scored = list(pool.map(evaluate_group, tasks))
        else:
            scored = map(evaluate_group, tasks)
        return [row for group in scored for row in group]

    lams = grid.lambda_axis.tolist()
    groups = [(dt, eta) for dt in grid.dt_axis.tolist()
              for eta in grid.eta_axis.tolist()]
    keep = race_survivors(grid)
    runs = [RACE_RUNS if keep else grid.runs] * grid.size
    rows = score([(dt, eta, lams, runs[0]) for dt, eta in groups])
    if keep:
        # in scan order, so that a group's survivors share one task
        survivors = sorted(sorted(range(grid.size), key=order)[:keep])
        kept = {}
        for i in survivors:
            kept.setdefault(i // len(lams), []).append(lams[i % len(lams)])
        tasks = [(*groups[g], group_lams, grid.runs)
                 for g, group_lams in kept.items()]
        for i, row in zip(survivors, score(tasks)):
            rows[i], runs[i] = row, grid.runs

    best = min((i for i in range(grid.size) if runs[i] == grid.runs),
               key=order)
    lam, eta, dt, d_t, d_u = rows[best]
    return FitResult(
        params=ModelParams(lam=lam, eta_star=eta, delta_t=dt),
        delta_tweets=d_t,
        delta_users=d_u,
        objective=objective(rows[best]),
        scan=tuple(rows),
        scan_runs=tuple(runs),
    )
