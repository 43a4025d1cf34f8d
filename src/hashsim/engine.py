"""Day-by-day stochastic simulation over the 15-day window around the peak.

The update is synchronous by day: every decision on day d reads only state
through day d-1, so user order cannot matter. All randomness comes from the
counter-based streams in hashsim.rng, addressed by (run seed, user, day,
slot); slot 0 is the exposure draw, slot 1 the tweet draw, slot 2 the
retweet-count draw. Each slot is drawn only at the addresses whose draw can
change the result: slot 0 where the exposure probability rho and the action
probability t are both positive (a uniform in [0, 1) is never below 0),
slot 1 where slot 0 fell below rho, and slot 2 at the (run, user) pairs
that pass the retweet gate and whose t is positive that day (t = 0 makes
the per-retweet probability 0, so every retweet draw there is 0). A draw
is a function of its address alone, so a subset of addresses gets the
same bits as the full (runs, users) matrix would have there, and the
output bytes do not depend on which addresses are drawn.

Exposure is state, not a per-day recomputation. For every (run, user) the
engine keeps y (summed follower counts of the leaders active more recently
than the user) and eta (their number) packed in one int64, (y << b) | eta
with b = l_max.bit_length(), in an array of shape (runs, users). eta <=
l_max < 2**b and y <= E, so the fields never carry into each other, and a
packed sum of per-leader weights (F_j << b) | 1 adds to both at once. A
day's actors change the state only locally: an actor's own exposure drops
to 0, and each follower that did not act gains the weight of every actor j
it had not yet counted. The update is applied within the day, after the
day's retweets are drawn, in one of two directions (Beamer, Asanovic &
Patterson, "Direction-optimizing BFS", SC 2012):

- push walks, from the actors, the follower CSR of the followers that
  can ever pass the gate (FollowNetwork.follower_csr at k =
  behavior.gate_min_leaders(eta_star) = floor(eta_star), fetched once
  when an ensemble or a snapshot starts), when the pairs it lists for
  them are at most _PUSH_MAX_FRAC of the block's runs x E, and scatters
  their weights in one np.add.at;
- pull recomputes the packed rows of every user from `last` over every
  edge, as one segmented sum over the follower-sorted leader CSR of the
  per-edge weights (FollowNetwork.pull_plan, built once per network on
  the first pull), in one call.

y and eta are integer sums below 2**53, so a pull gives the same values
as a from-scratch recomputation, and nu converts them to float64 exactly.
The gate is one int64 comparison per (run, user): packed >= gate_min <<
b, where behavior.gate_min is the least integer y that passes
behavior.retweet_gate. As 0 <= eta < 2**b, that holds exactly when y >=
gate_min, and so exactly when the gate passes. A user whose t is 0 that
day gets the cap E + 1, which no y reaches.

A push leaves out the users with fewer than k leaders, so packed is
exact only for the others. For a user with fewer than k leaders it is at
most the exact value and below that user's gate_min, so the gate, nu and
every output byte are as with exact values. Proof: the exact y and eta
of a user only grow from one of its own actions to the next, and its
action sets both to 0. packed follows it exactly at every pull and every
action of the user, and in between a push adds to it what it adds to the
exact value, or, for a user left out, nothing. So packed's y and eta are
at most the exact ones, which are at most the sums over all of the
user's leaders, and gate_min_leaders proves that such a user's sum of
F_j is below its gate_min. Every user that can pass the gate has at
least k leaders, so its packed value, and its nu, are exact.

Only the updates that a later day reads are made. Someone can post on day
d exactly when sigma * tau(d) > min(h), since t = clip(sigma * tau - h, 0,
1) and a - b > 0 exactly when a > b for finite floats; a day on which
nobody can post is skipped, as it changes nothing. A day at or before the
peak is always applied, as every branch of the peak state reads it,
whatever its lambda. After the peak, a day is applied only if someone can
post on the next simulated day: tau never rises after the peak, so
nobody tomorrow means nobody on any later day. A block without actors
has nothing to apply.

Runs never interact, so an ensemble is simulated one block of
consecutive runs at a time, and each block goes through all its days
before the next block starts. A block (BatchState) holds at most
_BLOCK_EDGES (run, edge) pairs, or one run when a single run has more
edges; wide blocks share a day's Python work among many runs. Its state
is about 20 bytes per (run, user): the stream root and the packed
exposure (8 each), `last` (2) and, during a day, its replacement (2).
That one budget bounds every stage of a day, each done in one call: the
pull holds ~10 B per (run, edge) pair of the block, a push at most
_PUSH_MAX_FRAC as many pairs at ~21 B each, so less than the pull it
replaces, and the exposure and retweet draws a few bytes per (run, user)
(who acted, the gate's comparison, the slot-0 to slot-2 draws and the
gated pairs). The one exception is a single run with more edges than the
budget: its block is that run, and a pull holds ~10 B per edge, the size
of the network's own per-edge arrays. Block width changes no byte:
packed sums are integers and add exactly in any order, and push and pull
agree wherever the gate can pass. What a day reads that does not depend
on the run (tau, who can post and their rho, the gate, whether the day
is skipped or applied) is computed once per call, by _days, and every
block reads it; t is recomputed only at the users a block gathers.
Runs are independent, draws are addressed and y and eta are exact, so
the blocks give the same bytes as one block of every run.

Interest is 1 on every day up to the peak, so days -delta_t..0 do not
depend on lambda. Every block takes one path: it is built and simulated
through day 0 (its peak state), then continued through days 1..7, and
run_ensemble keeps only its totals: acts and dist, the block's int64
sums over its runs of each day's activities and distinct users. Without
a snapshot, run_ensemble builds each block's peak state just before
continuing it, so one block is alive at a time and an ensemble holds
nothing per run. Integer sums below 2**53 add exactly in any order, so
the mean, their sum over the blocks divided by runs, has the bytes of a
mean over every run's row. peak_state returns the peak state of every
block, as a tuple; given start=snapshot, run_ensemble continues a copy
of one block at a time instead, so a scan simulates the pre-peak days
once for every lambda that shares the other parameters, and holds the
snapshot (about 18 bytes per (run, user)) while it does. A block holds
only its runs' state, and keeps the params it was built with: no block
reads lambda, which reaches a continuation only through the _days list
of the post-peak days.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import rng
from .behavior import (MAX_DELTA_T, ModelParams, action_probability,
                       activeness, exposure_probability, gate_min,
                       gate_min_leaders, hesitancy, interest,
                       per_retweet_probability, retweet_count)
from .network import FollowNetwork

DAY_OFFSETS = np.arange(-MAX_DELTA_T, MAX_DELTA_T + 1)
N_DAYS = DAY_OFFSETS.size
PEAK_INDEX = MAX_DELTA_T  # DAY_OFFSETS[PEAK_INDEX] is the peak day, 0
_NEVER = np.int16(-100)  # "no activity yet"; below every real day offset

# Push a day's actors to their followers when the (actor, follower) pairs
# that the push lists are at most this fraction of the block's runs x E;
# otherwise pull. A push holds ~21 B per listed pair and a pull ~10 B per
# (run, edge), so below ~0.45 a push holds less than the pull it replaces,
# and the block bounds both. On a 2-vCPU x86-64 VM, 0.2 / 0.3 / 0.4 took
# 4.53 / 4.26 / 3.94 s for three 50-run ensembles on the dense 20k-node
# graph, 2.88 / 2.86 / 2.81 s for five 1k-node ER fits (81 triplets, 50
# runs) and 2.78 / 2.74 / 2.77 s for an 11-lambda, 10-run group on a
# SNAP-sized graph at eta* 5 (3.03 / 3.09 / 2.93 s at eta* 1); medians of
# 3 interleaved rounds. No value was faster on all three, so 0.3 stays.
_PUSH_MAX_FRAC = 0.3
# The one memory budget of a day: a block holds at most this many (run,
# edge) pairs, or one run when a single run has more edges. It sets how
# many runs share each day's Python work and bounds every stage of a day:
# the pull (~10 B per pair, ~10 MB), the push (at most _PUSH_MAX_FRAC of
# the pairs) and the per-(run, user) draws. 2^20 keeps a 50-run block of
# a 1k-node ER fit (~1M pairs) whole, and makes 3-run blocks on the dense
# 20k-node graph.
_BLOCK_EDGES = 1 << 20

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
        if not (np.all(np.isfinite(acts)) and np.all(np.isfinite(dist))):
            raise ValueError("profile entries must be finite")
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

    This is sequential-search inversion (Devroye, Non-Uniform Random
    Variate Generation, 1986, ch. X). The engine passes one slot-2 uniform
    per (run, user) pair that passed the retweet gate with t > 0, drawn at
    that pair's address only. Step k advances only the entries still live
    (u > CDF(k-1) and k <= n); the others are final. All live entries
    share the same k, and each one goes through the same float64
    operations in the same order as in a loop over every entry (pmf * (n -
    k) / (k + 1) * ratio, then cdf += pmf, then the test (u > cdf) & (k <
    n)), so an entry's count does not depend on the entries drawn with it.
    The entries are handled flat, with no gather of those with 0 < p < 1:
    p >= 1 gives n, and an entry with p <= 0 (or NaN) never goes live. The
    live set is compacted, by one np.flatnonzero and integer gathers, only
    on a step where some entry stops; that step first writes k to every
    live entry, which is final for the ones that stop and is overwritten
    later for the others.
    """
    u, n, p = np.broadcast_arrays(np.asarray(u, dtype=float),
                                  np.asarray(n, dtype=np.int64),
                                  np.asarray(p, dtype=float))
    shape = u.shape
    u, n, p = u.ravel(), n.ravel(), p.ravel()
    out = np.where(p >= 1.0, n, 0)
    # CDF(0) = (1 - p)**n; clipped, p <= 0 gives 1 and no entry goes past it
    pmf = np.clip(1.0 - p, 0.0, 1.0) ** n
    live = np.flatnonzero((u > pmf) & (n > 0) & (p < 1.0))
    # from here on the arrays hold the live entries only
    uu, nn, ratio, pmf = u[live], n[live], p[live], pmf[live]
    ratio /= 1.0 - ratio  # p / (1 - p), with no live copy of p kept
    cdf = pmf.copy()
    k = 0
    while live.size:
        pmf *= nn - k
        pmf /= k + 1
        pmf *= ratio
        k += 1
        cdf += pmf
        more = uu > cdf
        more &= nn > k
        if np.count_nonzero(more) < live.size:
            out[live] = k  # final for the entries that stop here
            keep = np.flatnonzero(more)
            live, uu, nn, ratio, pmf, cdf = (live[keep], uu[keep], nn[keep],
                                             ratio[keep], pmf[keep],
                                             cdf[keep])
    return out.reshape(shape)


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


def _push(net: FollowNetwork, packed, shift: int, last, actors, count,
          followers) -> None:
    """Add one day's actors to the exposure of their capable followers.

    followers is net.follower_csr(gate_min_leaders(eta_star)), which lists
    only the followers that can ever pass the gate, and count[k] the size
    of the list of the actor whose flat index is actors[k]. packed
    (updated in place) and last (as it was before today) are one block's
    rows, and `actors` are flat indices into them. A listed follower i
    gains (F_j << shift) | 1 from an actor j, unless j already counted for
    it (last[j] > last[i]). Actors then drop to zero, since no leader can
    be more recent than today. Every (actor, follower) pair is made in one
    call: BatchState.simulate pushes only when they are at most
    _PUSH_MAX_FRAC of the block's (run, edge) pairs, so a push holds less
    than a pull of the same block, and pulls otherwise.
    """
    packed = packed.reshape(-1)
    last = last.reshape(-1)
    indptr, follower_ids = followers
    j = actors % net.user_count
    # (actor, follower) pairs: follower i and the flat (run, i) index
    pos = np.repeat(indptr[j] - (np.cumsum(count) - count), count)
    pos += np.arange(pos.size)
    flat = follower_ids[pos]
    del pos
    flat += np.repeat(actors - j, count)
    weight = np.repeat((net.follower_count[j] << shift) | 1, count)
    weight *= np.repeat(last[actors], count) <= last[flat]
    np.add.at(packed, flat, weight)
    packed[actors] = 0


def _pull(net: FollowNetwork, packed, last) -> None:
    """Recompute one block's packed rows from its `last` over every edge.

    Edges are sorted by follower, so each user's leaders form one segment,
    and one segmented sum of the weights of the recent edges gives each
    packed value (FollowNetwork.pull_plan), in one call. The rows are one
    block, so a pull holds ~10 B per (run, edge) pair of at most
    _BLOCK_EDGES pairs, or of one run's edges where a run has more.
    """
    weights, starts, users = net.pull_plan
    recent = (np.take(last, net.leader_ids, axis=1)
              > np.repeat(last, net.leader_count, axis=1))
    packed[:, users] = np.add.reduceat(recent * weights, starts, axis=1)


class _Day(NamedTuple):
    """What one simulated day reads besides a block's state.

    None of it depends on the run, so _days computes it once per call and
    every block of the call reads the same arrays. It holds no array of t,
    which would add 8 bytes per user for each distinct (tau, chi): t(users)
    recomputes t at the users a block gathers, with the same bytes, as t
    is elementwise.
    """

    index: int  # into DAY_OFFSETS
    update: bool  # whether a later day reads today's actors
    tau: float
    sigma: float
    h_vec: np.ndarray
    can_post: np.ndarray  # the users with t > 0 and rho > 0
    rho_post: np.ndarray  # rho at can_post
    gate: np.ndarray  # gate_min << shift, or the cap where t is 0

    def t(self, users) -> np.ndarray:
        """The action probability of these users today."""
        return action_probability(self.sigma, self.tau, self.h_vec[users])


def _days(net: FollowNetwork, params: ModelParams, days: range) -> list:
    """The _Day of each of these days (indices into DAY_OFFSETS) that runs.

    A day on which nobody can post is left out, as it changes nothing.
    Days with the same tau and chi (the days up to the peak, without
    coverage) share their arrays.
    """
    a_vec, h_vec = user_arrays(net)
    shift = net.l_max.bit_length()
    # eta <= l_max < 2**shift and y <= E, and the gate's cap is E + 1
    closed = (net.edge_count + 1) << shift
    if closed >= 1 << 63:
        raise ValueError("network too large to pack y and eta in int64")
    sigma = float(params.sigma)
    gate = gate_min(float(params.eta_star), net.influence,
                    net.edge_count) << shift
    taus = [interest(float(DAY_OFFSETS[i]), params.lam) for i in days]
    # t = clip(sigma * tau - h, 0, 1) > 0 exactly when sigma * tau > h
    h_min = h_vec.min()
    posts = [sigma * tau > h_min for tau in taus]
    plan, shared = [], {}
    for k, day_index in enumerate(days):
        if not posts[k]:
            continue
        # every branch reads the peak day's actors; after it, a later day
        # reads today's only if someone can post tomorrow
        update = (day_index <= PEAK_INDEX
                  or k + 1 < len(posts) and posts[k + 1])
        d = float(DAY_OFFSETS[day_index])
        key = (taus[k], params.chi(d))
        if key not in shared:
            t_vec = action_probability(sigma, taus[k], h_vec)
            rho = exposure_probability(a_vec, d, params)
            can_post = np.flatnonzero((t_vec > 0.0) & (rho > 0.0))
            # t = 0 makes r = 0 and every binomial draw 0: keep those closed
            shared[key] = (can_post, rho[can_post],
                           np.where(t_vec > 0.0, gate, closed))
        plan.append(_Day(day_index, update, taus[k], sigma, h_vec,
                         *shared[key]))
    return plan


def _inject(streams, day: _Day, acted) -> None:
    """Exogenous stimulus: mark in `acted` who is exposed and tweets today.

    acted holds the rows of one block, as streams does. u < rho and u < t
    hold only where rho and t are positive, so slot 0 is drawn only at the
    users who can post and slot 1 only where slot 0 passed. The
    temporaries die on return, before the block's retweets are drawn.
    """
    u_exp = rng.uniforms(streams[:, day.can_post], day.index, 0)
    hit = np.flatnonzero(u_exp < day.rho_post)
    run = hit // day.can_post.size
    user = day.can_post[hit - run * day.can_post.size]
    tweeted = rng.uniforms(streams[run, user], day.index, 1) < day.t(user)
    acted[run[tweeted], user[tweeted]] = True


def _spread(streams, day: _Day, packed, shift: int, eta_star: float, infl,
            acted) -> int:
    """Endogenous stimulus: mark in `acted` who retweets today.

    packed is the exposure (y << shift) | eta of the same rows as streams
    and acted. day.gate holds, per user, gate_min(eta_star, infl, E) <<
    shift, or (E + 1) << shift where t is 0 today, so packed >= gate is the
    retweet gate for the users who can retweet, in one int64 comparison
    (the module docstring says why it is exact). Slot 2 is drawn only at
    the (run, user) pairs that pass it, all of a day's in one call: they
    are per-(run, user) work, which the block bounds, as it bounds the
    exposure draw. The gathered exposure and user ids die before the
    binomial draw, and the rest on return, as in _inject. Pairs are
    handled by flat index into the (rows, users) arrays, which numpy
    gathers and scatters faster than (row, column) pairs. Returns the
    day's retweets, summed over the rows.
    """
    flat = np.flatnonzero(packed >= day.gate)
    if not flat.size:
        return 0
    user = flat % acted.shape[1]
    gated = packed.reshape(-1)[flat]
    nu = retweet_count(gated & ((1 << shift) - 1), gated >> shift,
                       eta_star, infl[user])
    r_each = per_retweet_probability(day.t(user), nu)
    del gated, user
    u_rt = rng.uniforms(streams.reshape(-1)[flat], day.index, 2)
    retweets = binomial_count(u_rt, nu, r_each)
    acted.reshape(-1)[flat[retweets > 0]] = True
    return int(retweets.sum())


@dataclass(eq=False)
class BatchState:
    """One block of consecutive runs between two simulated days.

    A block holds at most _BLOCK_EDGES (run, edge) pairs, the one budget
    that bounds each stage of its days, or one run when a run has more
    edges, whose pull then holds ~10 B per edge of that run. peak_state
    returns the blocks taken at the end of the peak day, and run_ensemble
    continues each block or a copy of it.
    packed[r, i] is the exposure (y << shift) | eta of user i in run r: y
    sums F_j over the leaders j of i with last[r, j] > last[r, i], and eta
    counts them. shift is net.l_max.bit_length(), so eta <= l_max fits
    below y. packed agrees with last after every day whose actors a later
    day can read (the module docstring gives the rule), exactly for the
    users with at least floor(eta_star) leaders, and for the others at
    most and below their gate_min. acts[d] and dist[d] sum, over the
    block's runs, the activities and distinct users of day d (int64, 0
    on a day not simulated yet). followers is the push's follower CSR,
    which every block of a peak_state call shares. params are the ones
    the block was built with; no block reads lam, which reaches a
    continuation only through the days it is given. streams and last are
    never written in place (a day replaces last), so copies share them;
    packed and the totals are copied.
    """

    net: FollowNetwork
    params: ModelParams
    seeds: tuple
    streams: np.ndarray
    last: np.ndarray
    packed: np.ndarray
    acts: np.ndarray
    dist: np.ndarray
    followers: tuple

    def branch(self) -> BatchState:
        """An independent copy, to go on with the days of any lam."""
        return dataclasses.replace(self, packed=self.packed.copy(),
                                   acts=self.acts.copy(),
                                   dist=self.dist.copy())

    def simulate(self, days: list) -> tuple:
        """Simulate these days (a _days list), in order; return the totals.

        The totals are acts and dist, the block's day sums over its runs.
        """
        net, packed = self.net, self.packed
        shift = net.l_max.bit_length()
        eta_star = float(self.params.eta_star)
        push_max = _PUSH_MAX_FRAC * self.streams.shape[0] * net.edge_count
        for day in days:
            acted = np.zeros(self.streams.shape, dtype=bool)
            _inject(self.streams, day, acted)
            self.acts[day.index] = np.count_nonzero(acted) + _spread(
                self.streams, day, packed, shift, eta_star, net.influence,
                acted)
            self.dist[day.index] = np.count_nonzero(acted)
            last = self.last.copy()  # branches share self.last
            np.putmask(last, acted, np.int16(DAY_OFFSETS[day.index]))
            if day.update and acted.any():
                actors = np.flatnonzero(acted)
                # the actors' list sizes, for the direction test and the push
                count = np.diff(self.followers[0])[actors % net.user_count]
                if count.sum() <= push_max:
                    _push(net, packed, shift, self.last, actors, count,
                          self.followers)
                else:
                    _pull(net, packed, last)
            self.last = last
        return self.acts, self.dist


def _peak_blocks(net: FollowNetwork, params: ModelParams, base_seed: int,
                 runs: int):
    """peak_state's blocks, each built and simulated when it is asked for.

    A caller that drops a block before it asks for the next one holds one
    block at a time. All share the pre-peak days' _days list and the
    push's follower CSR.
    """
    rng.check_seeds(base_seed, runs)
    days = _days(net, params,
                 range(PEAK_INDEX - int(params.delta_t), PEAK_INDEX + 1))
    followers = net.follower_csr(gate_min_leaders(float(params.eta_star)))
    size = max(1, _BLOCK_EDGES // max(1, net.edge_count))

    def block(lo: int) -> BatchState:
        seeds = tuple(range(lo, min(lo + size, base_seed + runs)))
        shape = (len(seeds), net.user_count)
        state = BatchState(net=net, params=params, seeds=seeds,
                           streams=rng.stream_matrix(seeds, net.user_count),
                           last=np.full(shape, _NEVER, dtype=np.int16),
                           packed=np.zeros(shape, dtype=np.int64),
                           acts=np.zeros(N_DAYS, dtype=np.int64),
                           dist=np.zeros(N_DAYS, dtype=np.int64),
                           followers=followers)
        state.simulate(days)
        return state
    return map(block, range(base_seed, base_seed + runs, size))


def peak_state(net: FollowNetwork, params: ModelParams, base_seed: int,
               runs: int) -> tuple:
    """The runs of run_ensemble(net, params, base_seed, runs) after day 0.

    Returns one BatchState per block of runs, in seed order. Interest is 1
    on every day up to the peak, so nothing here depends on params.lam:
    run_ensemble(..., start=snapshot) continues the snapshot for any lam
    that shares the other parameters. base_seed and runs are checked as
    in run_ensemble.
    """
    return tuple(_peak_blocks(net, params, base_seed, runs))


def run_ensemble(net: FollowNetwork, params: ModelParams, base_seed: int,
                 runs: int, *,
                 start: Optional[tuple] = None) -> ActivityProfile:
    """Mean profile over runs with seeds base_seed .. base_seed + runs - 1.

    Each run is its peak state continued through days 1..7, one block of
    runs at a time, and only each block's day totals are kept: they are
    added up, and the mean is their sum divided by runs. Without `start`
    each block's peak state is built here, just before it is continued;
    with `start` from peak_state, a copy of each of its blocks is
    continued, with the same bytes. Every block of the snapshot must come
    from this network and from params that differ at most in lam, and the
    blocks together must hold these seeds, at least one, in order;
    otherwise ValueError. base_seed and runs must be ints, bools and
    floats refused, and runs >= 1 (rng.check_seeds), else ValueError
    before anything is simulated.
    """
    if start is None:
        blocks = _peak_blocks(net, params, base_seed, runs)
    else:
        rng.check_seeds(base_seed, runs)
        if any(block.net is not net for block in start):
            raise ValueError("snapshot is of another network")
        seeds = [seed for block in start for seed in block.seeds]
        if not seeds or seeds != list(range(base_seed, base_seed + runs)):
            raise ValueError("snapshot has other seeds or runs")
        if any(dataclasses.replace(block.params, lam=params.lam) != params
               for block in start):
            raise ValueError("snapshot has other parameters than lam")
        blocks = (block.branch() for block in start)
    days = _days(net, params, range(PEAK_INDEX + 1, N_DAYS))
    totals = np.zeros((2, N_DAYS), dtype=np.int64)  # acts and dist
    # map drops each block as soon as it returns its totals; a generator
    # expression would hold it until the next one is built
    for block_totals in map(lambda state: state.simulate(days), blocks):
        totals += block_totals
    return ActivityProfile(*(totals / runs))
