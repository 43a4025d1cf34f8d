import importlib.util
import io
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hashsim import (ActivityProfile, FollowNetwork, GridSpec,
                     HashtagCsvError, ModelParams, binomial_count, engine,
                     generate_synthetic, grid_scan, normalize,
                     read_hashtag_csv, rng, run_ensemble, run_simulation)
from hashsim.behavior import action_probability, interest
from reference import binomial_cdf, binomial_reference, simulate_reference

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

    # n reaches 300 (nu reaches 292 on a dense 20k-node graph); u runs up
    # to the largest uniform below 1, where the CDF may never get past u,
    # and sits on or just above a CDF value, where one ulp moves k
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                  st.sampled_from([0.0, 1.0 - 2.0 ** -53, 1.0 - 1e-12]),
                  st.tuples(st.integers(0, 300), st.booleans())),
        st.integers(0, 300),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0),
                  st.floats(1e-9, 1e-3))),
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

    def test_distinct_cannot_exceed_activities(self):
        acts = np.zeros(15)
        dist = np.zeros(15)
        dist[3] = 1.0
        with pytest.raises(ValueError):
            ActivityProfile(acts, dist)

    def test_csv_round_trip(self, tmp_path):
        prof = run_simulation(generate_synthetic("star", 31), PARAMS, 5)
        path = tmp_path / "profile.csv"
        prof.to_csv(path)
        again = read_hashtag_csv(path)
        assert np.array_equal(prof.activities, again.tweets)
        assert np.array_equal(prof.distinct_users, again.users)

    def test_csv_header_enforced(self):
        with pytest.raises(HashtagCsvError):
            read_hashtag_csv(io.StringIO("day,x,y\n"))


class TestSingleRun:
    def test_edgeless_network_is_silent(self):
        net = generate_synthetic("uniform-random", 50, edge_prob=0.0, seed=1)
        prof = run_simulation(net, PARAMS, 9)
        assert not np.any(prof.activities)
        assert not np.any(prof.distinct_users)

    def test_star_high_threshold_blocks_spokes(self, star11):
        # spokes see Y=10 < eta_star*I = 2*10; only the hub can ever act
        for seed in range(8):
            prof = run_simulation(star11, ModelParams(lam=0.2, eta_star=2,
                                                      delta_t=7), seed)
            assert np.all(prof.distinct_users <= 1)

    def test_star_gate_boundary_lets_spokes_retweet(self, star11):
        # eta_star=1: Y=10 >= 1*10 on any day after hub activity
        ens = run_ensemble(star11, ModelParams(lam=0.2, eta_star=1,
                                               delta_t=7), 0, 50)
        assert ens.distinct_users.max() > 1.0

    def test_determinism_bitwise(self, er200):
        a = run_simulation(er200, PARAMS, 77)
        b = run_simulation(er200, PARAMS, 77)
        assert np.array_equal(a.activities, b.activities)
        assert np.array_equal(a.distinct_users, b.distinct_users)

    def test_different_seeds_differ(self, er200):
        a = run_simulation(er200, PARAMS, 1)
        b = run_simulation(er200, PARAMS, 2)
        assert not np.array_equal(a.activities, b.activities)

    def test_zero_before_injection_every_delta(self, star101):
        for delta_t in range(8):
            params = ModelParams(lam=0.3, eta_star=1, delta_t=delta_t)
            prof = run_simulation(star101, params, 3)
            cutoff = 7 - delta_t
            assert not np.any(prof.activities[:cutoff])

    def test_causality_truncation(self, er200):
        # the peak state is the full run cut after day 0
        full = run_simulation(er200, PARAMS, 13)
        state = engine.peak_state(er200, PARAMS, 13, 1)
        cut = engine.PEAK_INDEX + 1
        assert np.array_equal(state.acts[0, :cut], full.activities[:cut])
        assert np.array_equal(state.dist[0, :cut], full.distinct_users[:cut])
        assert not np.any(state.acts[:, cut:])
        assert not np.any(state.dist[:, cut:])
        assert np.any(full.activities[cut:])

    def test_distinct_bounded_by_activities_and_users(self, er200):
        prof = run_simulation(er200, PARAMS, 4)
        assert np.all(prof.distinct_users <= prof.activities)
        assert np.all(prof.distinct_users <= er200.user_count)


def exposure_by_definition(net, last):
    """y and eta straight from their definition, one edge at a time."""
    y = np.zeros(last.shape)
    eta = np.zeros(last.shape)
    for r in range(last.shape[0]):
        for i, j in zip(net.edge_follower, net.leader_ids):
            if last[r, j] > last[r, i]:
                y[r, i] += net.follower_count[j]
                eta[r, i] += 1
    return y, eta


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


class TestExposure:
    @settings(max_examples=200, deadline=None)
    @given(exposure_steps())
    def test_push_after_pull_equals_pull(self, step):
        net, last_old, acted, last_new = step
        if net.edge_count == 0:
            return
        every = slice(None)
        pushed = engine._Exposure(net, last_old.shape[0])
        pushed._pull(every, last_old)
        pushed._push(every, last_old, np.flatnonzero(acted))
        pulled = engine._Exposure(net, last_old.shape[0])
        pulled._pull(every, last_new)
        y, eta = exposure_by_definition(net, last_new)
        for state in (pushed, pulled):
            assert np.array_equal(state.y, y)
            assert np.array_equal(state.eta, eta)

    def test_pull_counts_past_int8(self):
        # one user follows 300 leaders that are all more recent than it
        net = FollowNetwork.from_edges(np.zeros(300, dtype=np.int64),
                                       np.arange(1, 301), 301)
        last = np.zeros((1, 301), dtype=np.int16)
        last[0, 0] = engine._NEVER
        state = engine._Exposure(net, 1)
        state._pull(slice(None), last)
        assert state.eta[0, 0] == 300.0
        assert state.y[0, 0] == 300.0

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
        state = engine._Exposure(net, 2)
        state._pull(slice(None), last)
        assert state.eta[0, 0] == leaders
        assert state.y[0, 0] == net.edge_count
        y, eta = exposure_by_definition(net, last)
        assert np.array_equal(state.y, y)
        assert np.array_equal(state.eta, eta)

    def test_pull_rejects_networks_too_large_to_pack(self):
        net = SimpleNamespace(user_count=1, edge_count=1 << 60, l_max=7)
        with pytest.raises(ValueError, match="too large"):
            engine._Exposure(net, 1)._pull(slice(None),
                                           np.zeros((1, 1), dtype=np.int16))


def count_directions(monkeypatch):
    calls = {"push": 0, "pull": 0}

    def spy(name):
        original = getattr(engine._Exposure, "_" + name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        monkeypatch.setattr(engine._Exposure, "_" + name, wrapper)

    spy("push")
    spy("pull")
    return calls


class TestAgainstReference:
    def test_star_hub_frontier_pulls(self, monkeypatch):
        # the hub's out-edges are all edges, so a day it acts is pulled
        net = generate_synthetic("star", 60)
        params = ModelParams(lam=0.3, eta_star=1, delta_t=7)
        calls = count_directions(monkeypatch)
        for seed in (3, 4):
            eng = run_simulation(net, params, seed)
            ref = simulate_reference(net, params, seed)
            assert np.array_equal(eng.activities, ref.activities)
            assert np.array_equal(eng.distinct_users, ref.distinct_users)
        assert calls["pull"] > 0

    def test_sparse_high_threshold_pushes(self, monkeypatch):
        # a hub followed by everyone sets f_max, so other users are rarely
        # exposed: each day's frontier stays under a quarter of the edges
        er = generate_synthetic("uniform-random", 200, edge_prob=0.03,
                                seed=1)
        spokes = np.arange(1, 200)
        net = FollowNetwork.from_edges(
            np.concatenate((er.edge_follower, spokes)),
            np.concatenate((er.leader_ids, np.zeros_like(spokes))), 200)
        params = ModelParams(lam=0.3, eta_star=8, delta_t=7)
        calls = count_directions(monkeypatch)
        eng = run_simulation(net, params, 1)
        ref = simulate_reference(net, params, 1)
        assert np.array_equal(eng.activities, ref.activities)
        assert np.array_equal(eng.distinct_users, ref.distinct_users)
        assert calls["push"] > 0 and calls["pull"] == 0
        # someone posted twice in a day, so retweets happened
        assert eng.activities.sum() > eng.distinct_users.sum()

    def test_matches_slow_reference(self):
        net = generate_synthetic("uniform-random", 120, edge_prob=0.08,
                                 seed=3)
        params = ModelParams(lam=0.4, eta_star=3, delta_t=3)
        eng = run_simulation(net, params, 12345)
        ref = simulate_reference(net, params, 12345)
        assert np.array_equal(eng.activities, ref.activities)
        assert np.array_equal(eng.distinct_users, ref.distinct_users)

    # 8 of 150 users have no followers (activeness 0), and the lowest-degree
    # users cannot post after the peak (t = 0 for 3 users on day 1 and 90
    # on day 2), so the exposure draws skip users, and day 3 is skipped
    SPARSE = dict(kind="uniform-random", n=150, edge_prob=0.02, seed=4)
    SPARSE_SEEDS = [11, 12, 13, 14]

    def assert_rows_match_reference(self, monkeypatch, net, params, seeds):
        # once in one block of every run, once in blocks of one run
        for budget in (engine._BLOCK_EDGES, 1):
            monkeypatch.setattr(engine, "_BLOCK_EDGES", budget)
            state = engine.peak_state(net, params, seeds[0], len(seeds))
            assert state.seeds == tuple(seeds)
            assert len(state._blocks()) == (1 if budget > 1 else len(seeds))
            state.simulate(range(engine.PEAK_INDEX + 1, engine.N_DAYS))
            acts, dist = state.acts, state.dist
            for row, seed in enumerate(seeds):
                ref = simulate_reference(net, params, seed)
                assert np.array_equal(acts[row], ref.activities)
                assert np.array_equal(dist[row], ref.distinct_users)
        return acts, dist

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

    def test_user_order_is_irrelevant(self):
        net = generate_synthetic("uniform-random", 80, edge_prob=0.1, seed=9)
        params = ModelParams(lam=0.2, eta_star=2, delta_t=5)
        eng = run_simulation(net, params, 555)
        orders = [range(net.user_count - 1, -1, -1),
                  np.random.default_rng(1).permutation(net.user_count)]
        for order in orders:
            ref = simulate_reference(net, params, 555, user_order=order)
            assert np.array_equal(eng.activities, ref.activities)
            assert np.array_equal(eng.distinct_users, ref.distinct_users)


class TestEnsemble:
    def test_single_run_identity(self, star101):
        ens = run_ensemble(star101, PARAMS, 21, 1)
        one = run_simulation(star101, PARAMS, 21)
        assert np.array_equal(ens.activities, one.activities)

    def test_zero_runs_rejected(self, star101):
        with pytest.raises(ValueError):
            run_ensemble(star101, PARAMS, 0, 0)

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
    def test_branches_equal_plain_ensembles(self, er200, delta_t, coverage):
        # lam = 40 leaves no user able to post after the peak, so every
        # post-peak day of that branch is skipped
        _, h = engine.user_arrays(er200)
        assert not np.any(action_probability(1.0, interest(1.0, 40.0), h))
        seed = 1234
        snapshot = engine.peak_state(
            er200, ModelParams(lam=0.3, eta_star=2, delta_t=delta_t,
                               coverage=coverage), seed, self.RUNS)
        for lam in (0.0, 0.5, 1.5, 40.0):
            params = ModelParams(lam=lam, eta_star=2, delta_t=delta_t,
                                 coverage=coverage)
            branched = run_ensemble(er200, params, seed, self.RUNS,
                                    start=snapshot)
            plain = run_ensemble(er200, params, seed, self.RUNS)
            assert np.array_equal(branched.activities, plain.activities)
            assert np.array_equal(branched.distinct_users,
                                  plain.distinct_users)
        assert plain.activities[7] > 0

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

    def test_integral_float_delta_t_simulates_as_int(self, er200):
        as_int = ModelParams(lam=0.5, eta_star=2, delta_t=2)
        as_float = ModelParams(lam=0.5, eta_star=2, delta_t=2.0)
        snapshot = engine.peak_state(er200, as_float, 3, 4)
        pairs = [(run_simulation(er200, as_int, 3),
                  run_simulation(er200, as_float, 3)),
                 (run_ensemble(er200, as_int, 3, 4),
                  run_ensemble(er200, as_float, 3, 4)),
                 (run_ensemble(er200, as_int, 3, 4),
                  run_ensemble(er200, as_int, 3, 4, start=snapshot))]
        for want, got in pairs:
            assert np.array_equal(want.activities, got.activities)
            assert np.array_equal(want.distinct_users, got.distinct_users)
            assert np.any(want.activities[:engine.PEAK_INDEX])


class TestBlocks:
    """A day is simulated in blocks of runs, of at most _BLOCK_EDGES edges."""

    PARAMS = ModelParams(lam=0.5, eta_star=1, delta_t=7)

    def outputs(self, er200):
        """Bytes of every path that simulates: plain, branched, scanned."""
        star = generate_synthetic("star", 60)  # the hub's days pull
        out = []
        for net in (er200, star):
            snapshot = engine.peak_state(net, self.PARAMS, 5, 6)
            out += [run_simulation(net, self.PARAMS, 3),
                    run_ensemble(net, self.PARAMS, 5, 6)]
            out += [run_ensemble(net, ModelParams(lam=lam, eta_star=1,
                                                  delta_t=7),
                                 5, 6, start=snapshot) for lam in (0.0, 1.5)]
        data = [a for p in out for a in (p.activities, p.distinct_users)]
        target = normalize(out[1].activities)
        grid = GridSpec(lambda_axis=np.array([0.0, 1.0]),
                        eta_axis=np.array([1.0, 3.0]),
                        dt_axis=np.array([0, 7]), runs=5)
        scan = grid_scan(er200, target, target, grid, base_seed=2,
                         keep_scores=True).scan
        return data, scan

    def test_one_run_blocks_give_the_same_bytes(self, monkeypatch, er200):
        assert len(engine.peak_state(er200, self.PARAMS, 5, 6)._blocks()) == 1
        data, scan = self.outputs(er200)
        monkeypatch.setattr(engine, "_BLOCK_EDGES", 1)
        assert len(engine.peak_state(er200, self.PARAMS, 5, 6)._blocks()) == 6
        one_run_data, one_run_scan = self.outputs(er200)
        assert all(np.array_equal(a, b) for a, b in zip(data, one_run_data))
        assert scan == one_run_scan

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

        spy(engine._Exposure, "_push", lambda args: args[2].shape[0])
        spy(engine._Exposure, "_pull", lambda args: args[2].shape[0])
        spy(engine, "_spread", lambda args: args[0].shape[0])
        star = generate_synthetic("star", 60)
        for net in (er200, star):
            monkeypatch.setattr(engine, "_BLOCK_EDGES", 3 * net.edge_count + 1)
            run_ensemble(net, self.PARAMS, 5, 8)  # blocks of 3, 3 and 2
        assert all(seen.values())
        assert max(max(rows) for rows in seen.values()) == 3


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
