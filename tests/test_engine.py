import dataclasses
import functools
import importlib.util
import io
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hashsim import (ActivityProfile, FollowNetwork, GridSpec,
                     HashtagCsvError, ModelParams, binomial_count, engine,
                     generate_synthetic, grid_scan, normalize,
                     read_hashtag_csv, rng, run_ensemble)
from hashsim.behavior import (action_probability, gate_min,
                              gate_min_leaders, interest, retweet_gate)
from reference import (binomial_cdf, binomial_reference, edge_followers,
                       simulate_reference)

PARAMS = ModelParams(lam=0.5, eta_star=2, delta_t=3)


class TestBinomialCount:
    def test_edge_probabilities(self):
        n = np.array([5, 5, 5])
        assert binomial_count([0.3, 0.999, 0.0], n, [0.0] * 3).tolist() == [
            0, 0, 0]
        assert binomial_count([0.3, 0.999, 0.0], n, [1.0] * 3).tolist() == [
            5, 5, 5]

    def test_inverse_cdf_hand_case(self):
        # Binomial(2, 0.5): CDF = 0.25, 0.75, 1.0
        u = [0.1, 0.25, 0.26, 0.75, 0.76]
        out = binomial_count(u, [2] * 5, [0.5] * 5)
        assert out.tolist() == [0, 0, 1, 1, 2]

    def test_at_least_one_success_probability(self):
        # with r = 1 - (1-R)^(1/n), P(k >= 1) must equal R exactly
        n, r_total = 4, 0.6
        r = 1.0 - (1.0 - r_total) ** (1.0 / n)
        u = np.linspace(0, 1, 200001)[:-1]
        k = binomial_count(u, np.full(u.shape, n), np.full(u.shape, r))
        assert np.mean(k >= 1) == pytest.approx(r_total, abs=1e-4)

    def test_mean_matches_np(self):
        u = np.linspace(0, 1, 100001)[:-1]
        k = binomial_count(u, np.full(u.shape, 10), np.full(u.shape, 0.3))
        assert k.mean() == pytest.approx(3.0, abs=0.01)

    # n reaches 300 (nu reaches 292 on a dense 20k-node graph), and p near
    # 0.5 makes entries stop at many different k; u runs up
    # to the largest uniform below 1, where the CDF may never get past u,
    # and sits on or just above a CDF value, where one ulp moves k
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                  st.sampled_from([0.0, 1.0 - 2.0 ** -53, 1.0 - 1e-12]),
                  st.tuples(st.integers(0, 300), st.booleans())),
        st.integers(0, 300),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                  st.floats(1e-9, 1e-3), st.floats(0.4, 0.6))),
        min_size=1, max_size=80))
    def test_equals_per_entry_loop(self, entries):
        cases = []
        for u, n, p in entries:
            if isinstance(u, tuple):  # on CDF(k), or one ulp above it
                k, above = u
                cdf = list(binomial_cdf(n, p)) if 0.0 < p < 1.0 else [0.5]
                u = cdf[min(k, len(cdf) - 1)]
                if above:
                    u = float(np.nextafter(u, 2.0))
            cases.append((u, n, p))
        u, n, p = map(list, zip(*cases))
        want = [binomial_reference(*case) for case in cases]
        assert binomial_count(u, n, p).tolist() == want


    @pytest.mark.parametrize("n, p", [
        (7, 0.3),                               # scalar n and p
        (np.arange(50) % 13, 0.45),             # scalar p
        (9, np.linspace(0.0, 1.0, 50)),         # scalar n, p = 0 and 1
        (300, 0.5)])
    def test_broadcast_inputs(self, n, p):
        u = np.random.default_rng(0).random((4, 50))
        u[0, :3] = [0.0, 1.0 - 2.0 ** -53, 0.5]
        got = binomial_count(u, n, p)
        assert got.shape == u.shape and got.dtype == np.int64
        want = [binomial_reference(float(a), int(b), float(c))
                for a, b, c in zip(*(x.ravel() for x in
                                     np.broadcast_arrays(u, n, p)))]
        assert got.ravel().tolist() == want

    def test_entries_stop_at_many_steps(self):
        # n up to 300 and p near 0.5: entries stop at over a hundred
        # different k, so the live set is compacted on many steps
        gen = np.random.default_rng(5)
        n = gen.integers(0, 301, 3000)
        p = gen.uniform(0.4, 0.6, 3000)
        u = gen.random(3000)
        want = [binomial_reference(*case)
                for case in zip(u.tolist(), n.tolist(), p.tolist())]
        assert len(set(want)) > 100
        assert binomial_count(u, n, p).tolist() == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 64 - 1), min_size=1,
                max_size=5),
       st.integers(1, 40), st.integers(0, 14), st.integers(0, 2),
       st.data())
def test_uniforms_at_a_subset_equal_the_full_draw(seeds, users, day, slot,
                                                 data):
    # the engine draws each slot only at the (run, user) addresses whose
    # result can change; counter-based draws make that the same bits
    streams = rng.stream_matrix(seeds, users)
    size = data.draw(st.integers(0, 30))

    def index(high):
        return np.array(data.draw(st.lists(st.integers(0, high - 1),
                                           min_size=size, max_size=size)),
                        dtype=np.int64)

    rows, cols = index(len(seeds)), index(users)
    full = rng.uniforms(streams, day, slot)
    assert np.array_equal(rng.uniforms(streams[rows, cols], day, slot),
                          full[rows, cols])
    assert np.array_equal(rng.uniforms(streams[:, cols], day, slot),
                          full[:, cols])


class TestActivityProfile:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ActivityProfile(np.zeros(14), np.zeros(14))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_non_finite_entry_rejected(self, bad, column):
        series = [np.full(15, 2.0), np.ones(15)]
        series[column][6] = bad
        with pytest.raises(ValueError, match="finite"):
            ActivityProfile(*series)

    def test_negative_entry_rejected(self):
        acts = np.ones(15)
        dist = np.zeros(15)
        dist[4] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            ActivityProfile(acts, dist)

    def test_distinct_cannot_exceed_activities(self):
        acts = np.zeros(15)
        dist = np.zeros(15)
        dist[3] = 1.0
        with pytest.raises(ValueError):
            ActivityProfile(acts, dist)

    def test_csv_round_trip(self, tmp_path):
        # to_csv writes 10 significant digits: exact for one run's counts
        # and for means over 20 runs (multiples of 0.05)
        net = generate_synthetic("star", 31)
        single = run_ensemble(net, PARAMS, 5, 1)
        mean = run_ensemble(net, PARAMS, 5, 20)
        assert np.any(mean.activities % 1)
        for prof in (single, mean):
            path = tmp_path / "profile.csv"
            prof.to_csv(path)
            again = read_hashtag_csv(path)
            assert isinstance(again, ActivityProfile)
            for a, b in ((prof.activities, again.activities),
                         (prof.distinct_users, again.distinct_users)):
                assert a.tobytes() == b.tobytes()

    def test_csv_header_enforced(self):
        with pytest.raises(HashtagCsvError):
            read_hashtag_csv(io.StringIO("day,x,y\n"))


class TestSingleRun:
    def test_edgeless_network_is_silent(self):
        net = generate_synthetic("uniform-random", 50, edge_prob=0.0, seed=1)
        prof = run_ensemble(net, PARAMS, 9, 1)
        assert not np.any(prof.activities)
        assert not np.any(prof.distinct_users)

    def test_star_high_threshold_blocks_spokes(self, star11):
        # spokes see Y=10 < eta_star*I = 2*10; only the hub can ever act
        for seed in range(8):
            prof = run_ensemble(star11, ModelParams(lam=0.2, eta_star=2,
                                                    delta_t=7), seed, 1)
            assert np.all(prof.distinct_users <= 1)

    def test_star_gate_boundary_lets_spokes_retweet(self, star11):
        # eta_star=1: Y=10 >= 1*10 on any day after hub activity
        ens = run_ensemble(star11, ModelParams(lam=0.2, eta_star=1,
                                               delta_t=7), 0, 50)
        assert ens.distinct_users.max() > 1.0

    def test_determinism_bitwise(self, er200):
        a = run_ensemble(er200, PARAMS, 77, 1)
        b = run_ensemble(er200, PARAMS, 77, 1)
        assert np.array_equal(a.activities, b.activities)
        assert np.array_equal(a.distinct_users, b.distinct_users)

    def test_different_seeds_differ(self, er200):
        a = run_ensemble(er200, PARAMS, 1, 1)
        b = run_ensemble(er200, PARAMS, 2, 1)
        assert not np.array_equal(a.activities, b.activities)

    def test_zero_before_injection_every_delta(self, star101):
        for delta_t in range(8):
            params = ModelParams(lam=0.3, eta_star=1, delta_t=delta_t)
            prof = run_ensemble(star101, params, 3, 1)
            cutoff = 7 - delta_t
            assert not np.any(prof.activities[:cutoff])

    def test_causality_truncation(self, er200):
        # the peak state is the full run cut after day 0: a one-run block's
        # totals are that run's, and a block of three holds their sums
        cut = engine.PEAK_INDEX + 1
        for runs in (1, 3):
            full = run_ensemble(er200, PARAMS, 13, runs)
            (state,) = engine.peak_state(er200, PARAMS, 13, runs)
            assert state.seeds == tuple(range(13, 13 + runs))
            assert np.array_equal(state.acts[:cut] / runs,
                                  full.activities[:cut])
            assert np.array_equal(state.dist[:cut] / runs,
                                  full.distinct_users[:cut])
            assert not np.any(state.acts[cut:])
            assert not np.any(state.dist[cut:])
            assert np.any(full.activities[cut:])

    def test_distinct_bounded_by_activities_and_users(self, er200):
        prof = run_ensemble(er200, PARAMS, 4, 1)
        assert np.all(prof.distinct_users <= prof.activities)
        assert np.all(prof.distinct_users <= er200.user_count)


def exposure_by_definition(net, last):
    """y and eta straight from their definition, one edge at a time."""
    y = np.zeros(last.shape, dtype=np.int64)
    eta = np.zeros(last.shape, dtype=np.int64)
    for r in range(last.shape[0]):
        for i, j in zip(edge_followers(net), net.leader_ids):
            if last[r, j] > last[r, i]:
                y[r, i] += net.follower_count[j]
                eta[r, i] += 1
    return y, eta


def unpacked(state):
    """The y and eta fields of a state's packed (y << shift) | eta."""
    shift = state.net.l_max.bit_length()
    return state.packed >> shift, state.packed & ((1 << shift) - 1)


def no_exposure(net, runs):
    """Zero packed exposure of `runs` runs of net, as a BatchState holds it."""
    return SimpleNamespace(
        net=net, packed=np.zeros((runs, net.user_count), dtype=np.int64))


def push(net, packed, shift, last, actors, followers):
    """engine._push, given the actors' list sizes, as BatchState gives them."""
    j = actors % net.user_count
    engine._push(net, packed, shift, last, actors,
                 followers[0][j + 1] - followers[0][j], followers)


def assert_exposure_by_definition(state, net, last):
    y, eta = unpacked(state)
    want_y, want_eta = exposure_by_definition(net, last)
    assert np.array_equal(y, want_y)
    assert np.array_equal(eta, want_eta)


@st.composite
def exposure_steps(draw):
    """A small graph, a `last` matrix, a day after it and that day's actors."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=40))
    followers, leaders = zip(*pairs)
    net = FollowNetwork.from_edges(followers, leaders, n)
    runs = draw(st.integers(1, 4))
    day = draw(st.integers(-6, 7))
    times = st.sampled_from([int(engine._NEVER)] + list(range(-7, day)))
    last_old = np.array(draw(st.lists(times, min_size=runs * n,
                                      max_size=runs * n)),
                        dtype=np.int16).reshape(runs, n)
    acted = np.array(draw(st.lists(st.booleans(), min_size=runs * n,
                                   max_size=runs * n))).reshape(runs, n)
    return net, last_old, acted, np.where(acted, np.int16(day), last_old)


@st.composite
def push_days(draw):
    """A small graph and who acts on each of a few consecutive days."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          min_size=1, max_size=40))
    followers, leaders = zip(*pairs)
    net = FollowNetwork.from_edges(followers, leaders, n)
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 3)), n)
    size = int(np.prod(shape))
    acted = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return net, np.array(acted).reshape(shape)


class TestExposure:
    @settings(max_examples=200, deadline=None)
    @given(exposure_steps())
    def test_push_after_pull_equals_pull(self, step):
        net, last_old, acted, last_new = step
        if net.edge_count == 0:
            return
        pushed = no_exposure(net, last_old.shape[0])
        engine._pull(net, pushed.packed, last_old)
        assert_exposure_by_definition(pushed, net, last_old)
        push(net, pushed.packed, net.l_max.bit_length(), last_old,
             np.flatnonzero(acted), net.follower_csr(1))
        pulled = no_exposure(net, last_old.shape[0])
        engine._pull(net, pulled.packed, last_new)
        for state in (pushed, pulled):
            assert_exposure_by_definition(state, net, last_new)

    @settings(max_examples=200, deadline=None)
    @given(push_days(), st.floats(1.0, 14.0))
    def test_pruned_pushes_are_exact_where_the_gate_can_pass(self, days,
                                                             eta_star):
        # pushes to the users with >= floor(eta_star) leaders only: theirs
        # is the exposure by definition, and the others' stays at most
        # that and below their gate_min
        net, acted = days
        shift = net.l_max.bit_length()
        followers = net.follower_csr(gate_min_leaders(eta_star))
        capable = net.leader_count >= gate_min_leaders(eta_star)
        least = gate_min(eta_star, net.influence, net.edge_count)
        state = no_exposure(net, acted.shape[1])
        last = np.full(acted.shape[1:], engine._NEVER, dtype=np.int16)
        for day, today in enumerate(acted):
            push(net, state.packed, shift, last, np.flatnonzero(today),
                 followers)
            last = np.where(today, np.int16(day), last)
            y, eta = unpacked(state)
            want_y, want_eta = exposure_by_definition(net, last)
            assert np.array_equal(y[:, capable], want_y[:, capable])
            assert np.array_equal(eta[:, capable], want_eta[:, capable])
            assert np.all(y <= want_y) and np.all(eta <= want_eta)
            assert np.all(y[:, ~capable] < least[~capable])

    def test_pull_counts_past_int8(self):
        # one user follows 300 leaders that are all more recent than it
        net = FollowNetwork.from_edges(np.zeros(300, dtype=np.int64),
                                       np.arange(1, 301), 301)
        last = np.zeros((1, 301), dtype=np.int16)
        last[0, 0] = engine._NEVER
        state = no_exposure(net, 1)
        engine._pull(net, state.packed, last)
        y, eta = unpacked(state)
        assert eta[0, 0] == 300
        assert y[0, 0] == 300
        assert_exposure_by_definition(state, net, last)

    @pytest.mark.parametrize("leaders", [255, 256])
    def test_pull_packing_boundary(self, leaders):
        # users 0..99 follow the same leaders, so eta reaches l_max (255
        # fills its 8-bit field, 256 sets the top bit of a 9-bit one) and
        # y reaches E, the largest value above it
        followers = 100
        net = FollowNetwork.from_edges(
            np.repeat(np.arange(followers), leaders),
            np.tile(np.arange(followers, followers + leaders), followers),
            followers + leaders)
        assert net.l_max == leaders
        last = np.zeros((2, net.user_count), dtype=np.int16)
        last[:, :followers] = engine._NEVER
        last[1, followers::3] = engine._NEVER
        never = np.full(last.shape, engine._NEVER, dtype=np.int16)
        acted = last == 0
        pulled = no_exposure(net, 2)
        engine._pull(net, pulled.packed, last)
        y, eta = unpacked(pulled)
        assert eta[0, 0] == leaders
        assert y[0, 0] == net.edge_count
        assert_exposure_by_definition(pulled, net, last)
        # the same state pushed from nothing: the leaders act on day 0
        pushed = no_exposure(net, 2)
        push(net, pushed.packed, net.l_max.bit_length(), never,
             np.flatnonzero(acted), net.follower_csr(1))
        assert np.array_equal(pushed.packed, pulled.packed)

    def test_state_rejects_networks_too_large_to_pack(self):
        # shift 3: (E + 1) << 3 must stay below 2**63. A one-user network
        # stands in for the edges: nobody can post, so no day reads them.
        # Both entries check it, before any block is built
        one = FollowNetwork.from_edges(np.zeros(0, dtype=np.int64),
                                       np.zeros(0, dtype=np.int64), 1)
        fields = {f.name: getattr(one, f.name)
                  for f in dataclasses.fields(one)}
        fields["follower_csr"] = one.follower_csr
        fits = SimpleNamespace(**dict(fields, l_max=7,
                                      edge_count=(1 << 60) - 2))
        net = SimpleNamespace(**dict(fields, l_max=7,
                                     edge_count=(1 << 60) - 1))
        assert fits.l_max.bit_length() == 3
        assert len(engine.peak_state(fits, PARAMS, 0, 1)) == 1
        assert not np.any(run_ensemble(fits, PARAMS, 0, 1).activities)
        for entry in (engine.peak_state, run_ensemble):
            with pytest.raises(ValueError, match="too large"):
                entry(net, PARAMS, 0, 1)

    def test_pull_plan_is_built_once_per_network(self, monkeypatch):
        builds = count_plan_builds(monkeypatch)
        calls = count_directions(monkeypatch)
        monkeypatch.setattr(engine, "_BLOCK_EDGES", 1)  # a pull per run
        pushes_only = sparse_push_network()
        run_ensemble(pushes_only, ModelParams(lam=0.3, eta_star=8,
                                              delta_t=7), 1, 3)
        assert calls["push"] > 0 and calls["pull"] == 0
        assert builds == []
        assert "pull_plan" not in vars(pushes_only)
        # the hub's days pull, in every run of both networks
        stars = [generate_synthetic("star", 60), generate_synthetic("star", 9)]
        params = ModelParams(lam=0.3, eta_star=1, delta_t=7)
        for net in stars + stars:
            run_ensemble(net, params, 3, 4)
        assert calls["pull"] > 2 * 2 * 4
        assert list(map(id, builds)) == list(map(id, stars))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("budget", [engine._BLOCK_EDGES, 1])
    def test_follower_csr_is_built_once_per_group(self, monkeypatch, threads,
                                                   budget):
        # three eta_star groups of three lambda: every group pushes, and
        # its blocks and branches share one fetch of the CSR at its
        # floor(eta_star), also when the groups run on two threads
        target = normalize(run_ensemble(
            sparse_push_network(), ModelParams(lam=0.5, eta_star=3,
                                               delta_t=2), 1, 4).activities)
        net = sparse_push_network()  # nothing cached yet
        calls = {"follower_csr": [], "_build_follower_csr": []}

        def spy(name):
            original = getattr(FollowNetwork, name)

            def counted(net, min_leaders):
                calls[name].append(min_leaders)
                return original(net, min_leaders)
            monkeypatch.setattr(FollowNetwork, name, counted)
        spy("follower_csr")
        spy("_build_follower_csr")
        monkeypatch.setattr(engine, "_BLOCK_EDGES", budget)
        directions = count_directions(monkeypatch)
        grid = GridSpec(lambda_axis=[0.0, 0.5, 1.0],
                        eta_axis=[2.0, 3.5, 5.0], dt_axis=[2], runs=3)
        grid_scan(net, target, target, grid, threads=threads)
        assert directions["push"] > 0
        assert sorted(calls["follower_csr"]) == [2, 3, 5]
        assert sorted(calls["_build_follower_csr"]) == [2, 3, 5]


def count_plan_builds(monkeypatch):
    """The networks whose FollowNetwork.pull_plan is built, once per build."""
    builds = []
    build = FollowNetwork.pull_plan.func

    def counted(net):
        builds.append(net)
        return build(net)
    plan = functools.cached_property(counted)
    plan.__set_name__(FollowNetwork, "pull_plan")
    monkeypatch.setattr(FollowNetwork, "pull_plan", plan)
    return builds


def sparse_push_network():
    """ER200 plus a hub that everyone follows: every exposure update pushes.

    The hub sets f_max, so other users are rarely exposed, and each day's
    frontier stays under a quarter of the edges.
    """
    er = generate_synthetic("uniform-random", 200, edge_prob=0.03, seed=1)
    spokes = np.arange(1, 200)
    return FollowNetwork.from_edges(
        np.concatenate((edge_followers(er), spokes)),
        np.concatenate((er.leader_ids, np.zeros_like(spokes))), 200)


def count_directions(monkeypatch):
    calls = {"push": 0, "pull": 0}

    def spy(name):
        original = getattr(engine, "_" + name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(engine, "_" + name, wrapper)

    spy("push")
    spy("pull")
    return calls


def continued(net, params, blocks):
    """Continue the blocks of a peak_state through day +7, in place.

    Returns the day totals of every block, one row per block in seed
    order: (acts, dist). In blocks of one run a row is one run's profile.
    """
    days = engine._days(net, params,
                        range(engine.PEAK_INDEX + 1, engine.N_DAYS))
    acts, dist = zip(*(block.simulate(days) for block in blocks))
    return np.stack(acts), np.stack(dist)


def assert_totals_match_reference(net, params, seeds, acts, dist,
                                  refs=None):
    """Each block's totals are the sums of the oracle's runs of its seeds.

    seeds, acts and dist hold one entry per block. refs, if given, keeps
    the oracle's runs by seed from one call to the next.
    """
    assert len(seeds) == len(acts) == len(dist)
    refs = {} if refs is None else refs
    for block_seeds, block_acts, block_dist in zip(seeds, acts, dist):
        for seed in block_seeds:
            if seed not in refs:
                refs[seed] = simulate_reference(net, params, seed)
        runs = [refs[seed] for seed in block_seeds]
        assert np.array_equal(block_acts, sum(r.activities for r in runs))
        assert np.array_equal(block_dist,
                              sum(r.distinct_users for r in runs))


class TestAgainstReference:
    def test_star_hub_frontier_pulls(self, monkeypatch):
        # the hub's out-edges are all edges, so a day it acts is pulled
        net = generate_synthetic("star", 60)
        params = ModelParams(lam=0.3, eta_star=1, delta_t=7)
        calls = count_directions(monkeypatch)
        for seed in (3, 4):
            ref = simulate_reference(net, params, seed)
            eng = run_ensemble(net, params, seed, 1)
            assert np.array_equal(eng.activities, ref.activities)
            assert np.array_equal(eng.distinct_users, ref.distinct_users)
        assert calls["pull"] > 0

    def test_sparse_high_threshold_pushes(self, monkeypatch):
        # every update pushes, with the oracle's bytes
        net = sparse_push_network()
        params = ModelParams(lam=0.3, eta_star=8, delta_t=7)
        ref = simulate_reference(net, params, 1)
        calls = count_directions(monkeypatch)
        eng = run_ensemble(net, params, 1, 1)
        assert np.array_equal(eng.activities, ref.activities)
        assert np.array_equal(eng.distinct_users, ref.distinct_users)
        assert calls["push"] > 0 and calls["pull"] == 0
        # someone posted twice in a day, so retweets happened
        assert eng.activities.sum() > eng.distinct_users.sum()

    def test_pruned_pushes_match_reference(self, monkeypatch):
        # at eta_star 6.5 the users with fewer than 6 leaders get no push:
        # a sixth of the edges, while capable users still retweet
        net = sparse_push_network()
        params = ModelParams(lam=0.3, eta_star=6.5, delta_t=7)
        sizes, push = [], engine._push

        def spy(*args):
            sizes.append(args[-1][1].size)  # the follower CSR's ids
            return push(*args)
        monkeypatch.setattr(engine, "_push", spy)
        acts, dist = self.assert_rows_match_reference(monkeypatch, net,
                                                      params, [1, 2, 3])
        assert sizes and max(sizes) < net.edge_count
        assert np.all(acts.sum(axis=1) > dist.sum(axis=1))  # retweets

    def test_matches_slow_reference(self):
        net = generate_synthetic("uniform-random", 120, edge_prob=0.08,
                                 seed=3)
        params = ModelParams(lam=0.4, eta_star=3, delta_t=3)
        ref = simulate_reference(net, params, 12345)
        eng = run_ensemble(net, params, 12345, 1)
        assert np.array_equal(eng.activities, ref.activities)
        assert np.array_equal(eng.distinct_users, ref.distinct_users)

    # 8 of 150 users have no followers (activeness 0), and the lowest-degree
    # users cannot post after the peak (t = 0 for 3 users on day 1 and 90
    # on day 2), so the exposure draws skip users, and day 3 is skipped
    SPARSE = dict(kind="uniform-random", n=150, edge_prob=0.02, seed=4)
    SPARSE_SEEDS = [11, 12, 13, 14]

    def assert_rows_match_reference(self, monkeypatch, net, params, seeds):
        # once in one block of every run, whose totals are the sums of the
        # oracle's runs, once in blocks of one run, each the oracle's run
        refs = {}
        for budget in (engine._BLOCK_EDGES, 1):
            monkeypatch.setattr(engine, "_BLOCK_EDGES", budget)
            blocks = engine.peak_state(net, params, seeds[0], len(seeds))
            assert sum((block.seeds for block in blocks), ()) == tuple(seeds)
            assert len(blocks) == (1 if budget > 1 else len(seeds))
            acts, dist = continued(net, params, blocks)
            assert_totals_match_reference(
                net, params, [block.seeds for block in blocks], acts, dist,
                refs)
        return acts, dist  # one row per run

    def test_batch_rows_match_reference(self, monkeypatch):
        net = generate_synthetic(**self.SPARSE)
        params = ModelParams(lam=1.0, eta_star=1, delta_t=3)
        _, h = engine.user_arrays(net)
        t_after = action_probability(1.0, interest(2.0, params.lam), h)
        assert np.any(net.follower_count == 0)
        assert np.any(t_after == 0.0) and np.any(t_after > 0.0)
        acts, dist = self.assert_rows_match_reference(
            monkeypatch, net, params, self.SPARSE_SEEDS)
        assert np.all(acts.sum(axis=1) > dist.sum(axis=1))  # retweets

    def test_days_without_exposure_match_reference(self, monkeypatch):
        # chi = 0 from the peak on: no user can be exposed, so the slot-0
        # draw is empty, but retweets still spread on those days
        net = generate_synthetic(**self.SPARSE)
        params = ModelParams(lam=1.0, eta_star=1, delta_t=3,
                             coverage=lambda x: 1.0 if x < 0 else 0.0)
        acts, _ = self.assert_rows_match_reference(
            monkeypatch, net, params, self.SPARSE_SEEDS)
        assert np.all(acts[:, 7] > 0)

    def test_gated_pairs_with_t_zero_match_reference(self, monkeypatch):
        # at lam 2, t = 0 on day 1 for the users with l + f < 7, and some
        # of them pass the gate: the engine skips their slot-2 draw, while
        # the oracle draws it and gets 0 retweets (r = 0)
        net = generate_synthetic(**self.SPARSE)
        params = ModelParams(lam=2.0, eta_star=1, delta_t=3)
        _, h = engine.user_arrays(net)
        spread, uniforms = engine._spread, rng.uniforms
        slot2, seen = [], {"t_zero": 0, "t_positive": 0}

        def spy_uniforms(streams, day_index, slot):
            if slot == 2:
                slot2.append(np.size(streams))
            return uniforms(streams, day_index, slot)

        def spy_spread(*args):
            day, packed, shift, eta_star = args[1:5]
            day_index = day.index
            # the gate and t by their definitions
            gated = retweet_gate(packed >> shift, eta_star, net.influence)
            tau = interest(float(engine.DAY_OFFSETS[day_index]), params.lam)
            t = action_probability(params.sigma, tau, h)
            if day_index > engine.PEAK_INDEX:
                seen["t_zero"] += np.count_nonzero(gated & (t == 0.0))
            seen["t_positive"] += np.count_nonzero(gated & (t > 0.0))
            slot2.clear()
            out = spread(*args)
            assert sum(slot2) == np.count_nonzero(gated & (t > 0.0))
            return out
        monkeypatch.setattr(engine, "_spread", spy_spread)
        monkeypatch.setattr(rng, "uniforms", spy_uniforms)
        self.assert_rows_match_reference(monkeypatch, net, params,
                                         self.SPARSE_SEEDS)
        assert seen["t_zero"] > 0 and seen["t_positive"] > 0

    def test_user_order_is_irrelevant(self):
        net = generate_synthetic("uniform-random", 80, edge_prob=0.1, seed=9)
        params = ModelParams(lam=0.2, eta_star=2, delta_t=5)
        orders = [range(net.user_count - 1, -1, -1),
                  np.random.default_rng(1).permutation(net.user_count)]
        for order in orders:
            ref = simulate_reference(net, params, 555, user_order=order)
            eng = run_ensemble(net, params, 555, 1)
            assert np.array_equal(eng.activities, ref.activities)
            assert np.array_equal(eng.distinct_users, ref.distinct_users)


class TestEnsemble:
    @pytest.mark.parametrize("budget", [engine._BLOCK_EDGES, 1])
    def test_block_totals_add_up_exactly(self, monkeypatch, er200, budget):
        # the int64 day totals of seeds s..s+r-1 and s+r..s+2r-1 add up to
        # those of s..s+2r-1, and their sum / 2r has the mean's bytes; in
        # one-run blocks that is also the float64 mean over the runs' rows
        monkeypatch.setattr(engine, "_BLOCK_EDGES", budget)
        s, r = 40, 3

        def totals(base, runs):
            blocks = engine.peak_state(er200, PARAMS, base, runs)
            assert len(blocks) == (1 if budget > 1 else runs)
            return continued(er200, PARAMS, blocks)
        first, second, both = totals(s, r), totals(s + r, r), totals(s, 2 * r)
        mean = run_ensemble(er200, PARAMS, s, 2 * r)
        for k, want in enumerate((mean.activities, mean.distinct_users)):
            assert both[k].dtype == np.int64
            pooled = first[k].sum(axis=0) + second[k].sum(axis=0)
            assert np.array_equal(pooled, both[k].sum(axis=0))
            assert (pooled / (2 * r)).tobytes() == want.tobytes()
            if budget == 1:
                rows = both[k].astype(float)
                assert rows.mean(axis=0).tobytes() == want.tobytes()
        assert np.any(both[0].sum(axis=0) % (2 * r))  # an inexact division

    def test_zero_runs_rejected(self, star101):
        with pytest.raises(ValueError):
            run_ensemble(star101, PARAMS, 0, 0)

    @pytest.mark.parametrize("base_seed,runs", [(2.5, 3), (2.0, 3),
                                                (True, 3), (0, 2.5),
                                                (0, 3.0), (0, True)])
    def test_non_integer_seeds_and_runs_rejected(self, star101, base_seed,
                                                 runs):
        snapshot = engine.peak_state(star101, PARAMS, 0, 3)
        name = "runs" if base_seed == 0 else "base_seed"
        for entry in (engine.peak_state, run_ensemble,
                      functools.partial(run_ensemble, start=snapshot)):
            with pytest.raises(ValueError, match=name):
                entry(star101, PARAMS, base_seed, runs)

    def test_numpy_integer_seeds_and_runs(self, star101):
        want = run_ensemble(star101, PARAMS, 4, 3)
        snapshot = engine.peak_state(star101, PARAMS, np.int64(4),
                                     np.int32(3))
        for got in (run_ensemble(star101, PARAMS, np.int64(4), np.int32(3)),
                    run_ensemble(star101, PARAMS, np.uint8(4), np.int64(3),
                                 start=snapshot)):
            assert got.activities.tobytes() == want.activities.tobytes()
            assert (got.distinct_users.tobytes()
                    == want.distinct_users.tobytes())

    def test_edgeless_mean_is_zero(self):
        net = generate_synthetic("uniform-random", 30, edge_prob=0.0, seed=2)
        ens = run_ensemble(net, PARAMS, 0, 50)
        assert not np.any(ens.activities)

    def test_split_mean_exact_for_power_of_two(self, star101):
        # float division by 2^m is exact, so halves recombine bitwise
        whole = run_ensemble(star101, PARAMS, 100, 8)
        first = run_ensemble(star101, PARAMS, 100, 4)
        second = run_ensemble(star101, PARAMS, 104, 4)
        recombined = (first.activities + second.activities) / 2.0
        assert np.array_equal(whole.activities, recombined)

    def test_split_mean_close_for_general_k(self, star101):
        whole = run_ensemble(star101, PARAMS, 100, 6)
        first = run_ensemble(star101, PARAMS, 100, 3)
        second = run_ensemble(star101, PARAMS, 103, 3)
        recombined = (first.activities + second.activities) / 2.0
        assert np.allclose(whole.activities, recombined, rtol=1e-12, atol=0)

    def test_statistical_decay(self, star101):
        params = ModelParams(lam=2.0, eta_star=2, delta_t=2)
        ens = run_ensemble(star101, params, 900, 200)
        assert ens.activities[10] < ens.activities[8]  # day +3 < day +1

    def test_deterministic_degenerate_hub(self):
        # large star pre-peak: hub exposure is certain and hesitancy tiny,
        # so the hub posts essentially every pre-peak day
        net = generate_synthetic("star", 2001)
        params = ModelParams(lam=1.0, eta_star=60, delta_t=7)
        ens = run_ensemble(net, params, 0, 50)
        hub_days = ens.activities[:8]
        # hub success probability per day is 1 - 1/2001, so an occasional
        # miss is possible; the mean must still sit essentially at 1
        assert np.all(hub_days >= 0.95)
        assert hub_days.mean() >= 0.99
        assert np.all(ens.distinct_users <= 1.0)


def _coverage(x):
    return 1.0 if x <= 0 else 0.4


class TestBranchAtPeak:
    RUNS = 6

    @pytest.mark.parametrize("delta_t", [0, 7])
    @pytest.mark.parametrize("coverage", [None, _coverage])
    def test_branches_equal_plain_ensembles(self, monkeypatch, er200,
                                            delta_t, coverage):
        # lam = 40 leaves no user able to post after the peak, so every
        # post-peak day of that branch is skipped; a snapshot taken at lam
        # 40 still holds the peak day's actors for the other branches
        _, h = engine.user_arrays(er200)
        assert not np.any(action_probability(1.0, interest(1.0, 40.0), h))
        seed = 1234
        for budget in (engine._BLOCK_EDGES, 1):  # one block, 1-run blocks
            monkeypatch.setattr(engine, "_BLOCK_EDGES", budget)
            for snapshot_lam in (0.3, 40.0):
                snapshot = engine.peak_state(
                    er200, ModelParams(lam=snapshot_lam, eta_star=2,
                                       delta_t=delta_t, coverage=coverage),
                    seed, self.RUNS)
                for block in snapshot:
                    assert_exposure_by_definition(block, er200, block.last)
                for lam in (0.0, 0.5, 1.5, 40.0):
                    params = ModelParams(lam=lam, eta_star=2,
                                         delta_t=delta_t, coverage=coverage)
                    branched = run_ensemble(er200, params, seed, self.RUNS,
                                            start=snapshot)
                    plain = run_ensemble(er200, params, seed, self.RUNS)
                    assert np.array_equal(branched.activities,
                                          plain.activities)
                    assert np.array_equal(branched.distinct_users,
                                          plain.distinct_users)
        assert plain.activities[7] > 0

    def test_no_update_that_no_later_day_reads(self, monkeypatch):
        # at lam 0.4 someone can post up to day +6 and nobody after it. A
        # run acts on day +6, but no later day reads its actors, so no block
        # applies them; on day +5 some runs act and some do not, and only
        # the blocks with actors update
        net = generate_synthetic(**TestAgainstReference.SPARSE)
        params = ModelParams(lam=0.4, eta_star=1, delta_t=3)
        _, h = engine.user_arrays(net)
        tau = [interest(float(d), params.lam) for d in engine.DAY_OFFSETS]
        last_day = max(i for i in range(engine.N_DAYS)
                       if params.sigma * tau[i] > h.min())
        assert last_day == engine.PEAK_INDEX + 6
        spread, today, updates = engine._spread, [], []

        def spy_spread(*args):
            today.append(args[1].index)
            return spread(*args)

        def spy(name, has_actors):
            original = getattr(engine, name)

            def wrapper(*args):
                updates.append((today[-1], has_actors(args)))
                return original(*args)
            monkeypatch.setattr(engine, name, wrapper)

        monkeypatch.setattr(engine, "_spread", spy_spread)
        spy("_push", lambda args: args[4].size > 0)
        spy("_pull", lambda args: np.any(
            args[2] == engine.DAY_OFFSETS[today[-1]]))
        monkeypatch.setattr(engine, "_BLOCK_EDGES", 1)  # a block per run
        _, dist = continued(net, params, engine.peak_state(net, params, 11, 8))
        assert np.any(dist[:, last_day])
        assert not np.all(dist[:, last_day - 1])
        assert max(day for day, _ in updates) == last_day - 1
        assert all(has_actors for _, has_actors in updates)

    def test_edgeless_network_branches(self):
        net = generate_synthetic("uniform-random", 30, edge_prob=0.0, seed=2)
        snapshot = engine.peak_state(net, PARAMS, 0, 3)
        assert not np.any(run_ensemble(net, PARAMS, 0, 3,
                                       start=snapshot).activities)

    @pytest.mark.parametrize("change", [
        pytest.param(dict(net="other"), id="network"),
        pytest.param(dict(runs=5), id="runs"),
        pytest.param(dict(base_seed=8), id="seed"),
        pytest.param(dict(delta_t=2), id="delta_t"),
        pytest.param(dict(eta_star=3), id="eta_star"),
        pytest.param(dict(sigma=0.5), id="sigma"),
        pytest.param(dict(coverage=_coverage), id="coverage"),
        pytest.param(dict(runs=0), id="zero-runs"),
    ])
    def test_mismatched_snapshot_rejected(self, er200, change):
        snapshot = engine.peak_state(er200, PARAMS, 7, 4)
        net = generate_synthetic("uniform-random", 200, edge_prob=0.05,
                                 seed=7) if "net" in change else er200
        fields = {k: change.get(k, getattr(PARAMS, k)) for k in
                  ("eta_star", "delta_t", "sigma", "coverage")}
        params = ModelParams(lam=1.0, **fields)
        with pytest.raises(ValueError):
            run_ensemble(net, params, change.get("base_seed", 7),
                         change.get("runs", 4), start=snapshot)

    @pytest.mark.parametrize("tail", [
        pytest.param(dict(net="other"), id="network"),
        pytest.param(dict(eta_star=3), id="eta_star"),
        pytest.param(None, id="empty"),
    ])
    def test_every_block_of_a_snapshot_is_checked(self, er200, tail):
        # the first block matches and a second one from another network
        # or eta* is refused too; an empty snapshot holds no runs
        if tail is None:
            cases = [((), 0), ((), 6)]
        else:
            net = generate_synthetic("uniform-random", 200, edge_prob=0.05,
                                     seed=7) if "net" in tail else er200
            params = dataclasses.replace(PARAMS, **{
                k: v for k, v in tail.items() if k != "net"})
            snapshot = (engine.peak_state(er200, PARAMS, 0, 3)
                        + engine.peak_state(net, params, 3, 3))
            assert [s for block in snapshot for s in block.seeds] == list(
                range(6))
            cases = [(snapshot, 6)]
        for snapshot, runs in cases:
            with pytest.raises(ValueError):
                run_ensemble(er200, PARAMS, 0, runs, start=snapshot)

    def test_integral_float_delta_t_simulates_as_int(self, er200):
        as_int = ModelParams(lam=0.5, eta_star=2, delta_t=2)
        as_float = ModelParams(lam=0.5, eta_star=2, delta_t=2.0)
        snapshot = engine.peak_state(er200, as_float, 3, 4)
        pairs = [(run_ensemble(er200, as_int, 3, 1),
                  run_ensemble(er200, as_float, 3, 1)),
                 (run_ensemble(er200, as_int, 3, 4),
                  run_ensemble(er200, as_float, 3, 4)),
                 (run_ensemble(er200, as_int, 3, 4),
                  run_ensemble(er200, as_int, 3, 4, start=snapshot))]
        for want, got in pairs:
            assert np.array_equal(want.activities, got.activities)
            assert np.array_equal(want.distinct_users, got.distinct_users)
            assert np.any(want.activities[:engine.PEAK_INDEX])


class TestBlocks:
    """Runs are simulated in blocks of at most _BLOCK_EDGES (run, edge)."""

    PARAMS = ModelParams(lam=0.5, eta_star=1, delta_t=7)

    def outputs(self, er200):
        """Bytes of every path that simulates: plain, branched, scanned."""
        star = generate_synthetic("star", 60)  # the hub's days pull
        out = []
        for net in (er200, star):
            snapshot = engine.peak_state(net, self.PARAMS, 5, 6)
            out += [run_ensemble(net, self.PARAMS, 3, 1),
                    run_ensemble(net, self.PARAMS, 5, 6)]
            out += [run_ensemble(net, ModelParams(lam=lam, eta_star=1,
                                                  delta_t=7),
                                 5, 6, start=snapshot) for lam in (0.0, 1.5)]
        data = [a for p in out for a in (p.activities, p.distinct_users)]
        target = normalize(out[1].activities)
        grid = GridSpec(lambda_axis=np.array([0.0, 1.0]),
                        eta_axis=np.array([1.0, 3.0]),
                        dt_axis=np.array([0, 7]), runs=5)
        scan = grid_scan(er200, target, target, grid, base_seed=2).scan
        return data, scan

    def test_one_run_blocks_give_the_same_bytes(self, monkeypatch, er200):
        assert len(engine.peak_state(er200, self.PARAMS, 5, 6)) == 1
        data, scan = self.outputs(er200)
        # one block, then 1-run blocks
        for budget in (engine._BLOCK_EDGES, 1):
            monkeypatch.setattr(engine, "_BLOCK_EDGES", budget)
            blocks = 1 if budget > 1 else 6
            assert len(engine.peak_state(er200, self.PARAMS, 5, 6)) == blocks
            other_data, other_scan = self.outputs(er200)
            assert all(np.array_equal(a, b)
                       for a, b in zip(data, other_data))
            assert scan == other_scan

    def test_day_temporaries_are_bounded_by_the_chunk(self, monkeypatch):
        # the block is a day's one chunk. 200 users and ~10k or ~20k edges
        # at a budget of 2^16 (run, edge) pairs make blocks of 6 or 3 runs,
        # in ensembles of one block or of three. A day's temporaries above
        # the block state stay within a multiple of the budget whatever E
        # and the runs: the traced peak of a block's days is ~9.4 B per
        # budget pair, the pull's ~10 B per (run, edge) of the block. One
        # block of all the runs would hold ~26 B per budget pair in the
        # three-block ensembles. Coverage is low enough that some days push
        budget = 1 << 16
        monkeypatch.setattr(engine, "_BLOCK_EDGES", budget)
        calls = count_directions(monkeypatch)
        params = ModelParams(lam=0.0, eta_star=1, delta_t=2,
                             coverage=lambda x: 0.02)
        for edge_prob, size in ((0.25, 6), (0.5, 3)):
            net = generate_synthetic("uniform-random", 200,
                                     edge_prob=edge_prob, seed=1)
            assert budget // net.edge_count == size
            run_ensemble(net, params, 2, 1)  # builds the network's plans
            days = engine._days(net, params,
                                range(engine.PEAK_INDEX + 1, engine.N_DAYS))
            for blocks in (1, 3):
                snapshot = engine.peak_state(net, params, 2, blocks * size)
                assert len(snapshot) == blocks
                for block in snapshot:
                    tracemalloc.start()
                    try:
                        block.simulate(days)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak <= 12 * budget
        assert calls["pull"] and calls["push"]

    def test_one_binomial_call_per_block_day(self, monkeypatch):
        # a block-day draws all its gated pairs in one binomial_count call
        net = generate_synthetic(**TestAgainstReference.SPARSE)
        params = ModelParams(lam=1.0, eta_star=1, delta_t=3)
        gated, drawn = [], []
        spread, binomial = engine._spread, engine.binomial_count

        def spy_spread(*args):
            day, packed = args[1:3]
            gated.append(np.count_nonzero(packed >= day.gate))
            return spread(*args)

        def spy_binomial(u, n, p):
            drawn.append(np.size(u))
            return binomial(u, n, p)
        monkeypatch.setattr(engine, "_spread", spy_spread)
        monkeypatch.setattr(engine, "binomial_count", spy_binomial)
        run_ensemble(net, params, 11, 4)
        assert max(gated) > 1
        assert drawn == [n for n in gated if n]

    def test_no_call_gets_more_rows_than_the_budget(self, monkeypatch,
                                                    er200):
        # the memory contract: push, pull and spread see one block at a time
        seen = {"_push": [], "_pull": [], "_spread": []}

        def spy(owner, name, rows_of):
            original = getattr(owner, name)

            def wrapper(*args):
                seen[name].append(rows_of(args))
                return original(*args)
            monkeypatch.setattr(owner, name, wrapper)

        spy(engine, "_push", lambda args: args[1].shape[0])
        spy(engine, "_pull", lambda args: args[1].shape[0])
        spy(engine, "_spread", lambda args: args[0].shape[0])
        star = generate_synthetic("star", 60)
        for net in (er200, star):
            monkeypatch.setattr(engine, "_BLOCK_EDGES", 3 * net.edge_count + 1)
            run_ensemble(net, self.PARAMS, 5, 8)  # blocks of 3, 3 and 2
        assert all(seen.values())
        assert max(max(rows) for rows in seen.values()) == 3

    def test_one_block_is_alive_at_a_time(self, monkeypatch):
        # the memory contract of an ensemble without a snapshot: a block is
        # built, continued and dropped before the next one is built
        net = generate_synthetic(**TestAgainstReference.SPARSE)
        params = ModelParams(lam=1.0, eta_star=1, delta_t=3)
        simulate, alive = engine.BatchState.simulate, weakref.WeakSet()
        most, rows = [0], {}

        def spy(state, days):
            alive.add(state)
            most[0] = max(most[0], len(alive))
            acts, dist = simulate(state, days)
            rows[state.seeds] = acts.copy(), dist.copy()
            return acts, dist
        monkeypatch.setattr(engine.BatchState, "simulate", spy)
        monkeypatch.setattr(engine, "_BLOCK_EDGES", 3 * net.edge_count + 2)
        split = run_ensemble(net, params, 20, 7)
        assert most == [1]
        assert list(rows) == [(20, 21, 22), (23, 24, 25), (26,)]
        monkeypatch.setattr(engine, "_BLOCK_EDGES", 7 * net.edge_count)
        whole = run_ensemble(net, params, 20, 7)
        assert list(rows)[-1] == tuple(range(20, 27))
        assert split.activities.tobytes() == whole.activities.tobytes()
        assert split.distinct_users.tobytes() == whole.distinct_users.tobytes()
        # two blocks of three runs, and the last one of one run alone
        split_seeds = list(rows)[:3]
        assert_totals_match_reference(
            net, params, split_seeds, [rows[s][0] for s in split_seeds],
            [rows[s][1] for s in split_seeds])

    def test_memory_is_flat_in_runs(self, monkeypatch, er1000):
        # 1-run blocks: nothing of a run outlives it, as a block hands the
        # ensemble only its day totals, which are added up at once
        monkeypatch.setattr(engine, "_BLOCK_EDGES", 1)

        def peak(runs):
            tracemalloc.start()
            try:
                run_ensemble(er1000, self.PARAMS, 5, runs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # build the network's CSRs, and fill numpy's cache of small freed
        # buffers, which tracemalloc counts: it grows by ~9 KB over the
        # first 256 runs, with the sizes of their per-day temporaries
        run_ensemble(er1000, self.PARAMS, 5, 256)
        few, many = peak(8), peak(256)
        # the peak is ~496 KB at either run count; keeping even one run's
        # 240 B of float64 rows per run would add ~60 KB here, and a run's
        # state is ~20 B per user, 20 KB, so blocks that all stayed alive
        # would add ~5 MB
        assert many - few <= 4096


def test_benchmark_tracing_wraps_the_engine(star11):
    # benchmarks/run.py --trace 1 wraps these functions by name; a rename
    # (or an engine that stops calling them) must fail here, not there
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = engine.user_arrays, engine.interest, engine.np
    tracer = tracing.Tracer()
    profiles = []
    tracing.install_layers(tracer, lambda params, prof: profiles.append(prof))
    try:
        engine.run_ensemble(star11, PARAMS, 0, 2)
    finally:
        tracer.uninstall()
    assert (engine.user_arrays, engine.interest, engine.np) == originals
    names = {span[2] for span in tracer.spans}
    assert {"engine.ensemble", "engine.user_arrays", "engine.interest",
            "rng.stream_matrix", "rng.uniforms"} <= names
    assert len(profiles) == 1
