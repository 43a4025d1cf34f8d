"""Day-by-day stochastic simulation over the 15-day window around the peak.

The update is synchronous by day: every decision on day d reads only state
through day d-1, so user order cannot matter. All randomness comes from the
counter-based streams in hashsim.rng, addressed by (run seed, user, day,
slot); slot 0 is the exposure draw, slot 1 the tweet draw, slot 2 the
retweet-count draw. Each slot is drawn only at the addresses whose draw can
change the result: slot 0 where the exposure probability rho and the action
probability t are both positive (a uniform in [0, 1) is never below 0),
slot 1 where slot 0 fell below rho, and slot 2 at the (run, user) pairs
that pass the retweet gate. A draw is a function of its address alone, so
a subset of addresses gets the same bits as the full (runs, users) matrix
would have there, and the output bytes do not depend on which addresses
are drawn.

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
- pull recomputes y and eta from `last` over every edge, as one segmented
  sum over the follower-sorted leader CSR of per-edge int64 weights that
  pack F_j above a count of 1, in chunks of runs so that no more than
  _PULL_CHUNK_EDGES (run, edge) pairs are held at once.

y and eta are integer sums below 2**53, so both directions give the same
float64 bits as a from-scratch recomputation.

Interest is 1 on every day up to the peak, so days -delta_t..0 do not
depend on lambda. peak_state simulates them once and returns the batch's
state (BatchState); run_ensemble(..., start=snapshot) continues a copy of
it through days 1..end_offset, with the same bytes as a run from day
-delta_t.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .behavior import (ModelParams, action_probability, activeness,
                       exposure_probability, hesitancy, interest,
                       per_retweet_probability, retweet_count, retweet_gate)
from .network import FollowNetwork

DAY_OFFSETS = np.arange(-7, 8)
N_DAYS = 15
_FIRST_DAY, _LAST_DAY = int(DAY_OFFSETS[0]), int(DAY_OFFSETS[-1])
_NEVER = np.int16(-100)  # "no activity yet"; below every real day offset

# Push a day's actors to their followers when their out-edge volume is at
# most this fraction of runs x E; otherwise pull. A push costs several times
# more per (actor, follower) pair than a pull per (run, edge); of 0.1-0.5,
# no value was clearly faster than 0.3 on both a 1k-node ER scan and a
# dense 20k-node heavy-tailed graph.
_PUSH_MAX_FRAC = 0.3
# A pull works on at most this many (run, edge) pairs at a time (at most
# ~9 bytes of temporaries each: the bool comparison and its int64 weights).
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


def binomial_count(u, n, p) -> np.ndarray:
    """Inverse-CDF Binomial(n, p) samples, one uniform per entry.

    Returns the smallest k with CDF(k) >= u, i.e. the number of successes
    in n independent trials of probability p realized from a single uniform.
    Deterministic: the same bytes on the same numpy build and CPU features.

    The engine passes one slot-2 uniform per (run, user) pair that passed
    the retweet gate, drawn at that pair's address only. Step k advances
    only the entries still live (u > CDF(k-1) and k <= n); the others are
    final. All live entries share the same k, and each one goes through
    the same float64 operations in the same order as in a loop over every
    entry, so an entry's count does not depend on the entries drawn with
    it.
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
    pmf = (1.0 - pp) ** nn
    k_out = np.zeros(uu.shape, dtype=np.int64)
    live = np.nonzero((uu > pmf) & (nn > 0))[0]
    # from here on the arrays hold the live entries only
    uu, nn, pp, pmf = uu[live], nn[live], pp[live], pmf[live]
    ratio = pp / (1.0 - pp)
    cdf = pmf.copy()
    k = 0
    while live.size:
        pmf = pmf * (nn - k) / (k + 1) * ratio
        k += 1
        cdf += pmf
        more = (uu > cdf) & (k < nn)
        k_out[live[~more]] = k
        live = live[more]
        uu, nn, ratio, pmf, cdf = (uu[more], nn[more], ratio[more],
                                   pmf[more], cdf[more])
    out[idx] = k_out
    return out


def user_arrays(net: FollowNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized activeness and hesitancy for every user.

    An edgeless network (f_max == 0) gets all-zero activeness rather than an
    error: no one can ever be exposed.
    """
    f = net.follower_count.astype(float)
    l = net.leader_count.astype(float)
    h = hesitancy(l, f)
    if net.f_max == 0:
        return np.zeros(net.user_count), h
    return activeness(f, l, net.f_max, net.l_max), h


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

    def copy(self) -> _Exposure:
        twin = copy.copy(self)
        twin.y, twin.eta = self.y.copy(), self.eta.copy()
        return twin

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
        segment. Each edge j -> i weighs (F_j << b) | 1, and one segmented
        sum of the weights of the recent edges packs y above eta: eta <=
        l_max < 2**b and y <= E, so the two fields never carry into each
        other. A chunk covers at most _PULL_CHUNK_EDGES (run, edge) pairs,
        so the memory a pull needs is bounded by that budget, not by
        runs x E.
        """
        net = self.net
        shift = net.l_max.bit_length()
        if (net.edge_count + 1) << shift >= 1 << 63:
            raise ValueError("network too large to pack y and eta in int64")
        weights = net.follower_count[net.leader_ids] << shift
        weights |= 1
        runs = last.shape[0]
        chunk = max(1, _PULL_CHUNK_EDGES // net.edge_count)
        has_leaders = net.leader_count > 0
        starts = net.leader_indptr[:-1][has_leaders]
        for lo in range(0, runs, chunk):
            rows = last[lo:lo + chunk]
            recent = (np.take(rows, net.leader_ids, axis=1)
                      > np.repeat(rows, net.leader_count, axis=1))
            packed = np.add.reduceat(recent * weights, starts, axis=1)
            self.y[lo:lo + chunk, has_leaders] = packed >> shift
            self.eta[lo:lo + chunk, has_leaders] = packed & ((1 << shift) - 1)


def _inject(streams, day_index: int, rho, t_vec, acted) -> None:
    """Exogenous stimulus: mark in `acted` who is exposed and tweets today.

    u < rho and u < t hold only where rho and t are positive, so slot 0 is
    drawn only there and slot 1 only where slot 0 passed. The day's
    temporaries die on return, before the next exposure update.
    """
    can_post = np.nonzero((t_vec > 0.0) & (rho > 0.0))[0]
    u_exp = rng.uniforms(streams[:, can_post], day_index, 0)
    run, j = np.nonzero(u_exp < rho[can_post])
    user = can_post[j]
    tweeted = rng.uniforms(streams[run, user], day_index, 1) < t_vec[user]
    acted[run[tweeted], user[tweeted]] = True


def _spread(streams, day_index: int, exposure: _Exposure, eta_star: float,
            infl, t_vec, acted) -> np.ndarray:
    """Endogenous stimulus: mark in `acted` who retweets today.

    Slot 2 is drawn only at the (run, user) pairs that pass the gate, and
    the day's temporaries die on return, as in _inject. Pairs are handled
    by flat index into the (runs, users) arrays, which numpy gathers and
    scatters faster than (row, column) pairs. Returns each run's retweet
    count.
    """
    counts = np.zeros(acted.shape[0], dtype=np.int64)
    flat = np.flatnonzero(retweet_gate(exposure.y, eta_star, infl))
    if flat.size:
        run = flat // acted.shape[1]
        user = flat - run * acted.shape[1]
        nu = retweet_count(exposure.eta.reshape(-1)[flat],
                           exposure.y.reshape(-1)[flat], eta_star, infl[user])
        r_each = per_retweet_probability(t_vec[user], nu)
        u_rt = rng.uniforms(streams.reshape(-1)[flat], day_index, 2)
        retweets = binomial_count(u_rt, nu, r_each)
        np.add.at(counts, run, retweets)
        acted.reshape(-1)[flat[retweets > 0]] = True
    return counts


def _day_range(first: int, end_offset) -> range:
    """Indices into DAY_OFFSETS of the days first..end_offset.

    end_offset must be an integer day offset of the window. Both ends are
    clamped to the window, so the range never indexes past DAY_OFFSETS.
    """
    try:
        valid = (math.isfinite(end_offset) and end_offset == int(end_offset)
                 and _FIRST_DAY <= end_offset <= _LAST_DAY)
    except (TypeError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"end_offset must be an integer in [{_FIRST_DAY}, "
                         f"{_LAST_DAY}], got {end_offset!r}")
    return range(max(int(first), _FIRST_DAY) - _FIRST_DAY,
                 min(int(end_offset), _LAST_DAY) - _FIRST_DAY + 1)


@dataclass(eq=False)
class BatchState:
    """A batch of runs between two simulated days.

    peak_state returns one taken at the end of the peak day, and
    run_ensemble(start=...) continues copies of it. streams, a_vec, h_vec,
    last and pending are never written in place (a day replaces last), so
    copies share them; the exposure and the tallies are copied.
    """

    net: FollowNetwork
    params: ModelParams
    seeds: tuple
    streams: np.ndarray
    a_vec: np.ndarray
    h_vec: np.ndarray
    last: np.ndarray
    acts: np.ndarray
    dist: np.ndarray
    exposure: Optional[_Exposure]
    # (last before, actors) of the latest day with actors, applied to the
    # exposure only when a later day needs it
    pending: Optional[tuple] = None
    any_activity: bool = False

    @classmethod
    def initial(cls, net: FollowNetwork, params: ModelParams,
                seeds) -> BatchState:
        """The state before the first day: nobody has acted."""
        seeds = tuple(seeds)
        runs = len(seeds)
        a_vec, h_vec = user_arrays(net)
        return cls(net=net, params=params, seeds=seeds,
                   streams=rng.stream_matrix(seeds, net.user_count),
                   a_vec=a_vec, h_vec=h_vec,
                   last=np.full((runs, net.user_count), _NEVER,
                                dtype=np.int16),
                   acts=np.zeros((runs, N_DAYS)),
                   dist=np.zeros((runs, N_DAYS)),
                   exposure=(_Exposure(net, runs) if net.edge_count
                             else None))

    def branch(self, params: ModelParams) -> BatchState:
        """An independent copy that goes on with `params`."""
        exposure = None if self.exposure is None else self.exposure.copy()
        return dataclasses.replace(self, params=params,
                                   acts=self.acts.copy(),
                                   dist=self.dist.copy(), exposure=exposure)

    def settle(self) -> None:
        """Apply the pending actors to the exposure."""
        if self.pending is not None and self.exposure is not None:
            self.exposure.update(*self.pending, self.last)
        self.pending = None

    def simulate(self, days: range) -> None:
        """Simulate the days with these indices into DAY_OFFSETS, in order."""
        params, h_vec = self.params, self.h_vec
        infl = self.net.influence
        eta_star = float(params.eta_star)
        sigma = float(params.sigma)
        for day_index in days:
            d = DAY_OFFSETS[day_index]
            tau = interest(float(d), params.lam)
            t_vec = action_probability(sigma, tau, h_vec)  # tweet == retweet
            if not np.any(t_vec > 0.0):
                continue  # nobody can post today; state cannot change

            acted = np.zeros(self.last.shape, dtype=bool)
            rho = exposure_probability(self.a_vec, float(d), params)
            _inject(self.streams, day_index, rho, t_vec, acted)
            day_acts = acted.sum(axis=1)
            if self.any_activity and self.exposure is not None:
                self.settle()
                day_acts += _spread(self.streams, day_index, self.exposure,
                                    eta_star, infl, t_vec, acted)

            self.acts[:, day_index] = day_acts
            self.dist[:, day_index] = acted.sum(axis=1)
            if acted.any():
                self.pending = (self.last, acted)
                self.last = np.where(acted, np.int16(d), self.last)
                self.any_activity = True


def _simulate_batch(net: FollowNetwork, params: ModelParams, seeds,
                    end_offset: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Simulate one run per seed; returns (activities, distinct) of shape (runs, 15)."""
    days = _day_range(-params.delta_t, end_offset)
    state = BatchState.initial(net, params, seeds)
    state.simulate(days)
    return state.acts, state.dist


def _ensemble_seeds(base_seed: int, runs: int) -> tuple:
    if runs < 1:
        raise ValueError("runs must be >= 1")
    return tuple(base_seed + k for k in range(runs))


def peak_state(net: FollowNetwork, params: ModelParams, base_seed: int,
               runs: int) -> BatchState:
    """The runs of run_ensemble(net, params, base_seed, runs) after day 0.

    Interest is 1 on every day up to the peak, so nothing here depends on
    params.lam: run_ensemble(..., start=snapshot) continues the snapshot
    for any lam that shares the other parameters, with the same bytes as
    a run from day -delta_t.
    """
    state = BatchState.initial(net, params, _ensemble_seeds(base_seed, runs))
    state.simulate(_day_range(-params.delta_t, 0))
    state.settle()  # once here, rather than once per branch
    return state


def run_simulation(net: FollowNetwork, params: ModelParams, seed: int,
                   end_offset: int = 7) -> ActivityProfile:
    """One stochastic run; deterministic for a fixed seed."""
    acts, dist = _simulate_batch(net, params, [seed], end_offset)
    return ActivityProfile(acts[0], dist[0])


def run_ensemble(net: FollowNetwork, params: ModelParams, base_seed: int,
                 runs: int, end_offset: int = 7, *,
                 start: Optional[BatchState] = None) -> ActivityProfile:
    """Mean profile over runs with seeds base_seed .. base_seed + runs - 1.

    With `start` from peak_state, only days 1..end_offset are simulated.
    The snapshot must come from the same network, seeds and runs, and from
    params that differ at most in lam; otherwise ValueError.
    """
    seeds = _ensemble_seeds(base_seed, runs)
    if start is None:
        acts, dist = _simulate_batch(net, params, seeds, end_offset)
    else:
        if start.net is not net:
            raise ValueError("snapshot is of another network")
        if start.seeds != seeds:
            raise ValueError("snapshot has other seeds or runs")
        if dataclasses.replace(start.params, lam=params.lam) != params:
            raise ValueError("snapshot has other parameters than lam")
        days = _day_range(1, end_offset)
        if end_offset < 0:
            raise ValueError("a snapshot ends at day 0; end_offset must "
                             "be >= 0")
        state = start.branch(params)
        state.simulate(days)
        acts, dist = state.acts, state.dist
    return ActivityProfile(acts.mean(axis=0), dist.mean(axis=0))
