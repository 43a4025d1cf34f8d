"""Day-by-day stochastic simulation over the 15-day window around the peak.

The update is synchronous by day: every decision on day d reads only state
through day d-1, so user order cannot matter. All randomness comes from the
counter-based streams in hashsim.rng, addressed by (run seed, user, day,
slot); slot 0 is the exposure draw, slot 1 the tweet draw, slot 2 the
retweet-count draw.

Exposure is state, not a per-day recomputation. For every (run, user) the
engine keeps y (summed follower counts of the leaders active more recently
than the user) and eta (their number) as float64 arrays of shape
(runs, users). A day's actors change them only locally: an actor's own y
and eta drop to 0, and each follower that did not act gains F_j and 1 from
every actor j it had not yet counted. The update is applied before the next
simulated day, in one of two directions (Beamer, Asanovic & Patterson,
"Direction-optimizing BFS", SC 2012):

- push walks the follower CSR (the transpose of the leader CSR, built once
  per network) from the actors, when their out-edge volume sum(F_j) is at
  most _PUSH_MAX_FRAC of runs x E;
- pull recomputes y and eta from `last` over every edge, as a segmented sum
  over the follower-sorted leader CSR, in chunks of runs so that no more
  than _PULL_CHUNK_EDGES (run, edge) pairs are held at once.

y and eta are integer sums below 2**53, so both directions give the same
float64 bits as a from-scratch recomputation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import rng
from .behavior import ModelParams, interest
from .network import FollowNetwork

DAY_OFFSETS = np.arange(-7, 8)
N_DAYS = 15
PEAK_INDEX = 7
_NEVER = np.int16(-100)  # "no activity yet"; below every real day offset

# Push a day's actors to their followers when their out-edge volume is at
# most this fraction of runs x E; otherwise pull. A push costs 3-5x more per
# (actor, follower) pair than a pull per (run, edge); of 0.15-0.5, 0.3 was
# fastest on both a 1k-node ER scan and a dense 20k-node heavy-tailed graph.
_PUSH_MAX_FRAC = 0.3
# A pull works on at most this many (run, edge) pairs at a time (~13 bytes
# of temporaries each).
_PULL_CHUNK_EDGES = 1 << 21

PROFILE_CSV_HEADER = "day,activities,distinct_users"


@dataclass(frozen=True)
class ActivityProfile:
    """15-day series of activity counts (tweets + retweets) and distinct users.

    Entries are integers for a single run and real means for ensembles; both
    are stored as float64. Index 7 is the peak day (offset 0).
    """

    activities: np.ndarray
    distinct_users: np.ndarray

    def __post_init__(self):
        acts = np.asarray(self.activities, dtype=float)
        dist = np.asarray(self.distinct_users, dtype=float)
        if acts.shape != (N_DAYS,) or dist.shape != (N_DAYS,):
            raise ValueError(f"profiles must have exactly {N_DAYS} days")
        if np.any(acts < 0) or np.any(dist < 0):
            raise ValueError("profile entries must be nonnegative")
        if np.any(dist > acts):
            raise ValueError("distinct_users cannot exceed activities")
        acts.flags.writeable = False
        dist.flags.writeable = False
        object.__setattr__(self, "activities", acts)
        object.__setattr__(self, "distinct_users", dist)

    @property
    def days(self) -> np.ndarray:
        return DAY_OFFSETS

    @property
    def peak_offset_index(self) -> int:
        return PEAK_INDEX

    @property
    def total_activities(self) -> float:
        return float(self.activities.sum())

    @property
    def peak_day(self) -> int:
        return int(DAY_OFFSETS[int(np.argmax(self.activities))])

    def to_csv(self, dest) -> None:
        lines = [PROFILE_CSV_HEADER]
        for day, a, u in zip(DAY_OFFSETS, self.activities,
                             self.distinct_users):
            lines.append(f"{day},{a:.10g},{u:.10g}")
        payload = "\n".join(lines) + "\n"
        if hasattr(dest, "write"):
            dest.write(payload)
        else:
            with open(os.fspath(dest), "w", encoding="utf-8") as fh:
                fh.write(payload)

    @classmethod
    def from_csv(cls, src) -> "ActivityProfile":
        if hasattr(src, "read"):
            text = src.read()
        else:
            with open(os.fspath(src), "r", encoding="utf-8") as fh:
                text = fh.read()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0].strip() != PROFILE_CSV_HEADER:
            raise ValueError(f"expected header {PROFILE_CSV_HEADER!r}")
        if len(lines) != N_DAYS + 1:
            raise ValueError(f"expected {N_DAYS} data rows")
        acts, dist = [], []
        for expected_day, line in zip(DAY_OFFSETS, lines[1:]):
            fields = line.split(",")
            if len(fields) != 3 or int(fields[0]) != expected_day:
                raise ValueError(f"bad profile row {line!r}")
            counts = float(fields[1]), float(fields[2])
            if not all(map(math.isfinite, counts)):
                raise ValueError(f"non-finite count in profile row {line!r}")
            acts.append(counts[0])
            dist.append(counts[1])
        return cls(np.array(acts), np.array(dist))


def binomial_count(u, n, p) -> np.ndarray:
    """Inverse-CDF Binomial(n, p) samples, one uniform per entry.

    Returns the smallest k with CDF(k) >= u, i.e. the number of successes
    in n independent trials of probability p realized from a single uniform.
    Deterministic, so results are reproducible across platforms.
    """
    u = np.asarray(u, dtype=float)
    n = np.asarray(n, dtype=np.int64)
    p = np.asarray(p, dtype=float)
    u, n, p = np.broadcast_arrays(u, n, p)
    out = np.zeros(u.shape, dtype=np.int64)
    out[p >= 1.0] = n[p >= 1.0]
    idx = np.nonzero((p > 0.0) & (p < 1.0))
    if idx[0].size == 0:
        return out
    uu, nn, pp = u[idx], n[idx], p[idx]
    ratio = pp / (1.0 - pp)
    pmf = (1.0 - pp) ** nn
    cdf = pmf.copy()
    k = np.zeros(uu.shape, dtype=np.int64)
    active = (uu > cdf) & (k < nn)
    while active.any():
        pmf = np.where(active, pmf * (nn - k) / (k + 1) * ratio, pmf)
        k = np.where(active, k + 1, k)
        cdf = np.where(active, cdf + pmf, cdf)
        active = (uu > cdf) & (k < nn)
    out[idx] = k
    return out


def user_arrays(net: FollowNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized activeness and hesitancy for every user.

    An edgeless network (f_max == 0) gets all-zero activeness rather than an
    error: no one can ever be exposed.
    """
    f = net.follower_count.astype(float)
    l = net.leader_count.astype(float)
    h = 1.0 / (l + f + 1.0)
    if net.f_max == 0:
        return np.zeros(net.user_count), h
    denom = net.l_max + f
    second = np.where(denom == 0, 1.0, 1.0 - l / np.maximum(denom, 1.0))
    return (f / net.f_max) * second, h


class _Exposure:
    """Exposure of every (run, user), kept current with the `last` matrix.

    y[r, i] sums F_j over the leaders j of i with last[r, j] > last[r, i],
    and eta[r, i] counts them. Both are integer sums below 2**53, so every
    order of summation gives the same float64 bits.
    """

    def __init__(self, net: FollowNetwork, runs: int):
        self.net = net
        self.y = np.zeros((runs, net.user_count))
        self.eta = np.zeros((runs, net.user_count))

    def update(self, last_old, acted, last_new) -> None:
        """Bring the state from last_old to last_new, which adds `acted`."""
        runs = acted.shape[0]
        volume = int(acted.sum(axis=0) @ self.net.follower_count)
        if volume <= _PUSH_MAX_FRAC * runs * self.net.edge_count:
            self._push(last_old, acted)
        else:
            self._pull(last_new)

    def _push(self, last_old, acted) -> None:
        """Add one day's actors to the exposure of their followers.

        A follower i gains F_j and 1 from an actor j, unless j already
        counted for it (last_old[j] > last_old[i]). Actors then drop to
        zero, since no leader can be more recent than today.
        """
        net, n = self.net, self.net.user_count
        indptr, follower_ids = net.follower_csr
        r, j = np.nonzero(acted)
        count = net.follower_count[j]
        # (actor, follower) pairs: follower i and the flat (run, i) index
        pos = np.arange(count.sum()) + np.repeat(
            indptr[j] - (np.cumsum(count) - count), count)
        flat = np.repeat(r * n, count) + follower_ids[pos]
        last_j = np.repeat(last_old[r, j], count)
        keep = last_j <= np.take(last_old, flat)
        flat = flat[keep]
        np.add.at(self.y.reshape(-1), flat,
                  np.repeat(count.astype(float), count)[keep])
        np.add.at(self.eta.reshape(-1), flat, 1.0)
        self.y[acted] = 0.0
        self.eta[acted] = 0.0

    def _pull(self, last) -> None:
        """Recompute the state from `last` over every edge, in run chunks.

        Edges are sorted by follower, so each user's leaders form one
        segment and a segmented sum gives y and eta. A chunk covers at
        most _PULL_CHUNK_EDGES (run, edge) pairs, so the memory a pull
        needs is bounded by that budget, not by runs x E.
        """
        net = self.net
        runs = last.shape[0]
        chunk = max(1, _PULL_CHUNK_EDGES // net.edge_count)
        has_leaders = net.leader_count > 0
        starts = net.leader_indptr[:-1][has_leaders]
        edge_f = net.follower_count[net.leader_ids].astype(float)
        for lo in range(0, runs, chunk):
            rows = last[lo:lo + chunk]
            recent = rows[:, net.leader_ids] > np.repeat(
                rows, net.leader_count, axis=1)
            self.y[lo:lo + chunk, has_leaders] = np.add.reduceat(
                np.where(recent, edge_f, 0.0), starts, axis=1)
            self.eta[lo:lo + chunk, has_leaders] = np.add.reduceat(
                recent.view(np.int8), starts, axis=1, dtype=np.int64)


def _simulate_batch(net: FollowNetwork, params: ModelParams, seeds,
                    end_offset: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one run per seed; returns (activities, distinct) of shape (runs, 15)."""
    n = net.user_count
    runs = len(seeds)
    a_vec, h_vec = user_arrays(net)
    infl = net.influence
    eta_star = float(params.eta_star)
    sigma = float(params.sigma)

    streams = rng.stream_matrix(seeds, n)
    last = np.full((runs, n), _NEVER, dtype=np.int16)
    acts = np.zeros((runs, N_DAYS))
    dist = np.zeros((runs, N_DAYS))
    exposure = _Exposure(net, runs) if net.edge_count else None
    # (last before, actors) of the latest day with actors, applied to the
    # exposure only when a later day needs it
    pending = None
    any_activity = False

    for day_index, d in enumerate(DAY_OFFSETS):
        if d < -params.delta_t:
            continue
        if d > end_offset:
            break
        tau = interest(float(d), params.lam)
        t_vec = np.clip(sigma * tau - h_vec, 0.0, 1.0)  # tweet == retweet prob
        if not np.any(t_vec > 0.0):
            continue  # nobody can post today; state cannot change

        # exogenous injection
        u_exp = rng.uniforms(streams, day_index, 0)
        u_twt = rng.uniforms(streams, day_index, 1)
        rho = a_vec * params.chi(float(d))
        tweeted = (u_exp < rho) & (u_twt < t_vec)

        # endogenous spreading
        retweets = np.zeros((runs, n), dtype=np.int64)
        if any_activity and exposure is not None:
            if pending is not None:
                exposure.update(*pending, last)
                pending = None
            y, eta = exposure.y, exposure.eta
            gate = (y > 0) & (y >= eta_star * infl)
            gi = np.nonzero(gate)
            if gi[0].size:
                y_g, eta_g, infl_g = y[gi], eta[gi], infl[gi[1]]
                with np.errstate(divide="ignore", invalid="ignore"):
                    nu = np.floor(np.sqrt((eta_g / eta_star)
                                          * (y_g / (eta_star * infl_g))))
                nu = np.where(infl_g == 0, 1,
                              np.maximum(nu, 1.0)).astype(np.int64)
                r_total = t_vec[gi[1]]
                r_each = 1.0 - (1.0 - r_total) ** (1.0 / nu)
                u_rt = rng.uniforms(streams, day_index, 2)[gi]
                retweets[gi] = binomial_count(u_rt, nu, r_each)

        acted = tweeted | (retweets > 0)
        acts[:, day_index] = tweeted.sum(axis=1) + retweets.sum(axis=1)
        dist[:, day_index] = acted.sum(axis=1)
        if acted.any():
            pending = (last, acted)
            last = np.where(acted, np.int16(d), last)
            any_activity = True
    return acts, dist


def run_simulation(net: FollowNetwork, params: ModelParams, seed: int,
                   end_offset: int = 7) -> ActivityProfile:
    """One stochastic run; deterministic for a fixed seed."""
    acts, dist = _simulate_batch(net, params, [seed], end_offset)
    return ActivityProfile(acts[0], dist[0])


def run_ensemble(net: FollowNetwork, params: ModelParams, base_seed: int,
                 runs: int, end_offset: int = 7) -> ActivityProfile:
    """Mean profile over runs with seeds base_seed .. base_seed + runs - 1."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    seeds = [base_seed + k for k in range(runs)]
    acts, dist = _simulate_batch(net, params, seeds, end_offset)
    return ActivityProfile(acts.mean(axis=0), dist.mean(axis=0))
