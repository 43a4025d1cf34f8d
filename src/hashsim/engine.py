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
  pack F_j above a count of 1.

y and eta are integer sums below 2**53, so both directions give the same
float64 bits as a from-scratch recomputation.

A day is simulated in blocks of consecutive runs, each of at most
_BLOCK_EDGES (run, edge) pairs, or one run when a single run has more
edges. The quantities that depend on the user alone (interest, action
and exposure probabilities, who can post) are computed once per day; then
each block draws its tweets, applies the previous day's actors to its
exposure (choosing push or pull for itself) and draws its retweets. So
the temporaries of a day are bounded by the budget, not by runs x users
or runs x E, while the state itself still holds a few arrays of shape
(runs, users). Runs are independent, draws are addressed and y and eta
are exact, so the blocks give the same bytes as one block of every run.

Interest is 1 on every day up to the peak, so days -delta_t..0 do not
depend on lambda. Every batch takes one path: peak_state simulates those
days and returns the batch's state (BatchState), and run_ensemble
continues it through days 1..7. Given start=snapshot, run_ensemble
continues a copy of that snapshot instead of building one, so a scan
simulates the pre-peak days once for every lambda that shares the other
parameters.
"""

from __future__ import annotations

import copy
import dataclasses
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .behavior import (MAX_DELTA_T, ModelParams, action_probability,
                       activeness, exposure_probability, hesitancy, interest,
                       per_retweet_probability, retweet_count, retweet_gate)
from .network import FollowNetwork

DAY_OFFSETS = np.arange(-MAX_DELTA_T, MAX_DELTA_T + 1)
N_DAYS = DAY_OFFSETS.size
PEAK_INDEX = MAX_DELTA_T  # DAY_OFFSETS[PEAK_INDEX] is the peak day, 0
_NEVER = np.int16(-100)  # "no activity yet"; below every real day offset

# Push a day's actors to their followers when their out-edge volume is at
# most this fraction of runs x E; otherwise pull. A push costs several times
# more per (actor, follower) pair than a pull per (run, edge); of 0.1-0.5,
# no value was clearly faster than 0.3 on both a 1k-node ER scan and a
# dense 20k-node heavy-tailed graph.
_PUSH_MAX_FRAC = 0.3
# A day works on blocks of at most this many (run, edge) pairs (at least one
# run). A pull holds ~9 bytes of temporaries per pair (the bool comparison
# and its int64 weights), and a push at most _PUSH_MAX_FRAC of the pairs.
_BLOCK_EDGES = 1 << 21

PROFILE_CSV_HEADER = "day,activities,distinct_users"


@dataclass(frozen=True)
class ActivityProfile:
    """15-day series of activity counts (tweets + retweets) and distinct users.

    Entries are integers for a single run and real means for ensembles; both
    are stored as float64. Index PEAK_INDEX is the peak day (offset 0).
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

    def update(self, rows: slice, last_old, acted, last_new) -> None:
        """Bring these rows from last_old to last_new, which adds `acted`.

        last_old, acted and last_new hold these rows only: one block.
        """
        net = self.net
        actors = np.flatnonzero(acted)
        volume = int(net.follower_count[actors % net.user_count].sum())
        if volume <= _PUSH_MAX_FRAC * acted.shape[0] * net.edge_count:
            self._push(rows, last_old, actors)
        else:
            self._pull(rows, last_new)

    def _push(self, rows: slice, last_old, actors) -> None:
        """Add one day's actors to the exposure of their followers.

        `actors` are flat indices into these rows. A follower i gains F_j
        and 1 from an actor j, unless j already counted for it
        (last_old[j] > last_old[i]). Actors then drop to zero, since no
        leader can be more recent than today.
        """
        net, n = self.net, self.net.user_count
        y, eta = self.y[rows].reshape(-1), self.eta[rows].reshape(-1)
        last_old = last_old.reshape(-1)
        indptr, follower_ids = net.follower_csr
        j = actors % n
        count = net.follower_count[j]
        # (actor, follower) pairs: follower i and the flat (run, i) index
        pos = np.arange(count.sum()) + np.repeat(
            indptr[j] - (np.cumsum(count) - count), count)
        flat = np.repeat(actors - j, count) + follower_ids[pos]
        last_j = np.repeat(last_old[actors], count)
        keep = last_j <= np.take(last_old, flat)
        flat = flat[keep]
        np.add.at(y, flat, np.repeat(count.astype(float), count)[keep])
        np.add.at(eta, flat, 1.0)
        y[actors] = 0.0
        eta[actors] = 0.0

    def _pull(self, rows: slice, last) -> None:
        """Recompute these rows from their `last` over every edge.

        Edges are sorted by follower, so each user's leaders form one
        segment. Each edge j -> i weighs (F_j << b) | 1, and one segmented
        sum of the weights of the recent edges packs y above eta: eta <=
        l_max < 2**b and y <= E, so the two fields never carry into each
        other. The rows are one block, so a pull holds at most
        _BLOCK_EDGES (run, edge) pairs, or one run's edges.
        """
        net = self.net
        shift = net.l_max.bit_length()
        if (net.edge_count + 1) << shift >= 1 << 63:
            raise ValueError("network too large to pack y and eta in int64")
        weights = net.follower_count[net.leader_ids] << shift
        weights |= 1
        has_leaders = net.leader_count > 0
        recent = (np.take(last, net.leader_ids, axis=1)
                  > np.repeat(last, net.leader_count, axis=1))
        packed = np.add.reduceat(recent * weights,
                                 net.leader_indptr[:-1][has_leaders], axis=1)
        self.y[rows, has_leaders] = packed >> shift
        self.eta[rows, has_leaders] = packed & ((1 << shift) - 1)


def _inject(streams, day_index: int, can_post, rho_post, t_vec,
            acted) -> None:
    """Exogenous stimulus: mark in `acted` who is exposed and tweets today.

    u < rho and u < t hold only where rho and t are positive, so slot 0 is
    drawn only at the users who can post (rho_post is rho there) and slot
    1 only where slot 0 passed. The day's temporaries die on return,
    before the next exposure update.
    """
    u_exp = rng.uniforms(streams[:, can_post], day_index, 0)
    hit = np.flatnonzero(u_exp < rho_post)
    run = hit // can_post.size
    user = can_post[hit - run * can_post.size]
    tweeted = rng.uniforms(streams[run, user], day_index, 1) < t_vec[user]
    acted[run[tweeted], user[tweeted]] = True


def _spread(streams, day_index: int, y, eta, eta_star: float, infl, t_vec,
            acted) -> np.ndarray:
    """Endogenous stimulus: mark in `acted` who retweets today.

    y and eta are the exposure of the same rows as streams and acted.
    Slot 2 is drawn only at the (run, user) pairs that pass the gate, and
    the day's temporaries die on return, as in _inject. Pairs are handled
    by flat index into the (rows, users) arrays, which numpy gathers and
    scatters faster than (row, column) pairs. Returns each row's retweet
    count.
    """
    counts = np.zeros(acted.shape[0], dtype=np.int64)
    flat = np.flatnonzero(retweet_gate(y, eta_star, infl))
    if flat.size:
        run = flat // acted.shape[1]
        user = flat - run * acted.shape[1]
        nu = retweet_count(eta.reshape(-1)[flat], y.reshape(-1)[flat],
                           eta_star, infl[user])
        r_each = per_retweet_probability(t_vec[user], nu)
        u_rt = rng.uniforms(streams.reshape(-1)[flat], day_index, 2)
        retweets = binomial_count(u_rt, nu, r_each)
        np.add.at(counts, run, retweets)
        acted.reshape(-1)[flat[retweets > 0]] = True
    return counts


@dataclass(eq=False)
class BatchState:
    """A batch of runs between two simulated days.

    peak_state returns one taken at the end of the peak day, and
    run_ensemble continues a copy of it. streams, a_vec, h_vec, last and
    pending are never written in place (a day replaces last), so copies
    share them; the exposure and the tallies are copied.
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
    exposure: _Exposure
    # (last before, actors) of the latest day with actors, applied to the
    # exposure only when a later day needs it
    pending: Optional[tuple] = None

    def branch(self, params: ModelParams) -> BatchState:
        """An independent copy that goes on with `params`."""
        return dataclasses.replace(self, params=params,
                                   acts=self.acts.copy(),
                                   dist=self.dist.copy(),
                                   exposure=self.exposure.copy())

    def _blocks(self) -> list:
        """Row slices of at most _BLOCK_EDGES (run, edge) pairs each.

        A block holds at least one run, so a run with more edges than the
        budget is a block of its own.
        """
        size = max(1, _BLOCK_EDGES // max(1, self.net.edge_count))
        return [slice(lo, lo + size)
                for lo in range(0, self.last.shape[0], size)]

    def _apply_pending(self, rows: slice) -> None:
        if self.pending is not None:
            last_old, acted = self.pending
            self.exposure.update(rows, last_old[rows], acted[rows],
                                 self.last[rows])

    def settle(self) -> None:
        """Apply the pending actors to the exposure, block by block."""
        for rows in self._blocks():
            self._apply_pending(rows)
        self.pending = None

    def simulate(self, days: range) -> None:
        """Simulate the days with these indices into DAY_OFFSETS, in order."""
        params, h_vec = self.params, self.h_vec
        infl, y, eta = self.net.influence, self.exposure.y, self.exposure.eta
        eta_star = float(params.eta_star)
        sigma = float(params.sigma)
        blocks = self._blocks()
        for day_index in days:
            d = DAY_OFFSETS[day_index]
            tau = interest(float(d), params.lam)
            t_vec = action_probability(sigma, tau, h_vec)  # tweet == retweet
            if not np.any(t_vec > 0.0):
                continue  # nobody can post today; state cannot change
            rho = exposure_probability(self.a_vec, float(d), params)
            can_post = np.nonzero((t_vec > 0.0) & (rho > 0.0))[0]
            rho_post = rho[can_post]

            acted = np.zeros(self.last.shape, dtype=bool)
            for rows in blocks:
                streams, block = self.streams[rows], acted[rows]
                _inject(streams, day_index, can_post, rho_post, t_vec, block)
                tweets = block.sum(axis=1)
                self._apply_pending(rows)
                self.acts[rows, day_index] = tweets + _spread(
                    streams, day_index, y[rows], eta[rows], eta_star, infl,
                    t_vec, block)
                self.dist[rows, day_index] = block.sum(axis=1)
            self.pending = None
            if acted.any():
                self.pending = (self.last, acted)
                self.last = np.where(acted, np.int16(d), self.last)


def peak_state(net: FollowNetwork, params: ModelParams, base_seed: int,
               runs: int) -> BatchState:
    """The runs of run_ensemble(net, params, base_seed, runs) after day 0.

    Interest is 1 on every day up to the peak, so nothing here depends on
    params.lam: run_ensemble(..., start=snapshot) continues the snapshot
    for any lam that shares the other parameters.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    seeds = tuple(base_seed + k for k in range(runs))
    a_vec, h_vec = user_arrays(net)
    state = BatchState(net=net, params=params, seeds=seeds,
                       streams=rng.stream_matrix(seeds, net.user_count),
                       a_vec=a_vec, h_vec=h_vec,
                       last=np.full((runs, net.user_count), _NEVER,
                                    dtype=np.int16),
                       acts=np.zeros((runs, N_DAYS)),
                       dist=np.zeros((runs, N_DAYS)),
                       exposure=_Exposure(net, runs))
    state.simulate(range(PEAK_INDEX - int(params.delta_t), PEAK_INDEX + 1))
    state.settle()  # once here, rather than once per branch
    return state


def run_simulation(net: FollowNetwork, params: ModelParams,
                   seed: int) -> ActivityProfile:
    """One stochastic run; deterministic for a fixed seed."""
    return run_ensemble(net, params, seed, 1)


def run_ensemble(net: FollowNetwork, params: ModelParams, base_seed: int,
                 runs: int, *,
                 start: Optional[BatchState] = None) -> ActivityProfile:
    """Mean profile over runs with seeds base_seed .. base_seed + runs - 1.

    Each run is its peak state continued through days 1..7. Without
    `start` the peak state is built here; with `start` from peak_state, a
    copy of it is continued, with the same bytes. The snapshot must come
    from the same network, seeds and runs, and from params that differ at
    most in lam; otherwise ValueError.
    """
    if start is None:
        state = peak_state(net, params, base_seed, runs)
    else:
        if start.net is not net:
            raise ValueError("snapshot is of another network")
        if start.seeds != tuple(base_seed + k for k in range(runs)):
            raise ValueError("snapshot has other seeds or runs")
        if dataclasses.replace(start.params, lam=params.lam) != params:
            raise ValueError("snapshot has other parameters than lam")
        state = start.branch(params)
    state.simulate(range(PEAK_INDEX + 1, N_DAYS))
    return ActivityProfile(state.acts.mean(axis=0), state.dist.mean(axis=0))
