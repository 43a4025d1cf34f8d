import dataclasses
import itertools

import numpy as np
import pytest

from hashsim import (ActivityProfile, FitResult, GridSpec, ModelParams,
                     distance, generate_synthetic, grid_scan, normalize,
                     run_ensemble)
from hashsim import fitter
from hashsim.fitter import RACE_RUNS, race_survivors, triplet_seed


def _targets(net, params, seed, runs=20):
    prof = run_ensemble(net, params, seed, runs)
    return normalize(prof.activities), normalize(prof.distinct_users)


class TestGridSpec:
    def test_default_enumerates_paper_grid(self):
        grid = GridSpec()
        assert grid.lambda_axis.size == 41
        assert grid.eta_axis.size == 60
        assert grid.dt_axis.size == 8
        assert grid.size == 19680
        assert grid.lambda_axis[0] == 0.0 and grid.lambda_axis[-1] == 4.0
        assert grid.eta_axis[0] == 1 and grid.eta_axis[-1] == 60

    @pytest.mark.parametrize("kwargs", [
        dict(lambda_axis=np.array([])),
        dict(lambda_axis=np.array([1.0, 0.5])),
        dict(eta_axis=np.array([0.5])),
        dict(dt_axis=np.array([3, 9])),
        dict(runs=0),
        dict(runs=2.5),
        dict(runs=True),
        dict(lambda_axis=np.array([0.0, np.inf])),
        dict(eta_axis=np.array([np.nan])),
        dict(dt_axis=np.array([2.7])),
        dict(dt_axis=np.array([0.5, 1.5, 2.5])),
        dict(dt_axis=np.array([np.nan])),
        dict(eta_axis=np.array([2.0, 1e308])),
    ])
    def test_invalid_axes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


class TestGoodFit:
    def _result(self, d_t, d_u):
        return FitResult(params=ModelParams(lam=1, eta_star=2, delta_t=0),
                         delta_tweets=d_t, delta_users=d_u,
                         objective=max(d_t, d_u))

    def test_both_under(self):
        assert self._result(0.05, 0.07).good is True

    def test_one_over(self):
        assert self._result(0.05, 0.09).good is False

    def test_boundary_inclusive(self):
        assert self._result(0.08, 0.08).good is True


class TestGridScan:
    def test_self_consistency_at_identical_seeds(self, er200):
        params = ModelParams(lam=0.5, eta_star=3, delta_t=1)
        grid = GridSpec(lambda_axis=np.array([0.5]),
                        eta_axis=np.array([3.0]),
                        dt_axis=np.array([1]), runs=10)
        seed = 99
        target = run_ensemble(er200, params,
                              triplet_seed(seed, 1, 3.0, 0.5), 10)
        result = grid_scan(er200, normalize(target.activities),
                           normalize(target.distinct_users), grid,
                           base_seed=seed)
        assert result.objective == 0.0
        assert result.params == params

    def test_recovers_generating_triplet(self, er200):
        true = ModelParams(lam=0.5, eta_star=5, delta_t=1)
        tt, tu = _targets(er200, true, seed=123456, runs=30)
        grid = GridSpec(lambda_axis=np.array([0.0, 0.5, 1.0, 2.0]),
                        eta_axis=np.array([1.0, 5.0, 20.0, 50.0]),
                        dt_axis=np.array([0, 1, 3]), runs=30)
        result = grid_scan(er200, tt, tu, grid, base_seed=9)
        assert result.params.delta_t == 1
        assert result.params.lam == 0.5
        assert result.params.eta_star == 5.0
        assert result.objective <= 0.08
        assert result.good

    def test_tie_break_prefers_small_eta(self):
        # edgeless network: every triplet yields the same all-zero profile,
        # hence equal objectives; smallest eta_star (then lam, dt) must win
        net = generate_synthetic("uniform-random", 20, edge_prob=0.0, seed=0)
        target = normalize([1.0] * 15)
        grid = GridSpec(lambda_axis=np.array([0.5, 1.5]),
                        eta_axis=np.array([2.0, 4.0]),
                        dt_axis=np.array([0, 2]), runs=2)
        result = grid_scan(net, target, target, grid, base_seed=0)
        assert result.params.eta_star == 2.0
        assert result.params.lam == 0.5
        assert result.params.delta_t == 0

    def test_degenerate_target_rejected(self, er200):
        zero = normalize([0.0] * 15)
        with pytest.raises(ValueError):
            grid_scan(er200, zero, zero, GridSpec(runs=1))

    def test_returned_objective_is_grid_minimum(self, er200):
        # exhaustive oracle: recompute the full score table independently
        true = ModelParams(lam=1.0, eta_star=4, delta_t=2)
        tt, tu = _targets(er200, true, seed=777, runs=10)
        grid = GridSpec(lambda_axis=np.array([0.0, 1.0, 2.0]),
                        eta_axis=np.array([2.0, 4.0, 8.0]),
                        dt_axis=np.array([0, 2]), runs=10)
        result = grid_scan(er200, tt, tu, grid, base_seed=5)
        objectives = []
        for dt, eta, lam in itertools.product(grid.dt_axis.tolist(),
                                              grid.eta_axis.tolist(),
                                              grid.lambda_axis.tolist()):
            prof = run_ensemble(er200, ModelParams(lam=lam, eta_star=eta,
                                                   delta_t=dt),
                                triplet_seed(5, dt, eta, lam), 10)
            d_t = distance(normalize(prof.activities), tt)
            d_u = distance(normalize(prof.distinct_users), tu)
            objectives.append(max(d_t, d_u))
        assert result.objective == min(objectives)
        assert len(result.scan) == grid.size

    def test_scan_rows_come_in_documented_order(self, er200, monkeypatch):
        calls = {"triplet_seed": 0, "run_ensemble": 0}

        def counting(name):
            original = getattr(fitter, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(fitter, name, counting(name))
        true = ModelParams(lam=0.5, eta_star=3, delta_t=1)
        tt, tu = _targets(er200, true, seed=21, runs=2)
        grid = GridSpec(lambda_axis=np.array([0.0, 1.0]),
                        eta_axis=np.array([1.0, 2.0]),
                        dt_axis=np.array([0, 1]), runs=2)
        result = grid_scan(er200, tt, tu, grid, base_seed=1)
        assert [row[:3] for row in result.scan] == [
            (0.0, 1.0, 0), (1.0, 1.0, 0), (0.0, 2.0, 0), (1.0, 2.0, 0),
            (0.0, 1.0, 1), (1.0, 1.0, 1), (0.0, 2.0, 1), (1.0, 2.0, 1)]
        assert all(type(row[2]) is int for row in result.scan)
        assert calls == {"triplet_seed": 8, "run_ensemble": 8}
        assert repr(result) == repr(dataclasses.replace(result, scan=()))

    def test_threads_do_not_change_result(self, er200):
        true = ModelParams(lam=0.5, eta_star=3, delta_t=1)
        tt, tu = _targets(er200, true, seed=31, runs=5)
        grid = GridSpec(lambda_axis=np.array([0.0, 0.5, 1.0]),
                        eta_axis=np.array([1.0, 3.0]),
                        dt_axis=np.array([0, 1]), runs=5)
        serial = grid_scan(er200, tt, tu, grid, base_seed=2, threads=1)
        threaded = grid_scan(er200, tt, tu, grid, base_seed=2, threads=4)
        assert serial == threaded

    def test_thread_pool_is_capped_at_cpu_count(self, er200, monkeypatch):
        pools = []

        class SerialPool:  # records its size and starts no thread
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(fitter, "ThreadPoolExecutor", SerialPool)
        true = ModelParams(lam=0.5, eta_star=3, delta_t=1)
        tt, tu = _targets(er200, true, seed=31, runs=5)
        grid = GridSpec(lambda_axis=np.array([0.0, 0.5]),
                        eta_axis=np.array([3.0]),
                        dt_axis=np.array([1]), runs=5)
        serial = grid_scan(er200, tt, tu, grid, base_seed=2, threads=1)
        assert pools == []
        for cpus, expect in ((3, [3]), (None, [])):
            pools.clear()
            monkeypatch.setattr(fitter.os, "cpu_count", lambda: cpus)
            assert grid_scan(er200, tt, tu, grid, base_seed=2,
                             threads=100_000) == serial
            assert pools == expect

    def test_superset_never_worse(self, er200):
        true = ModelParams(lam=0.5, eta_star=3, delta_t=1)
        tt, tu = _targets(er200, true, seed=41, runs=5)
        small = GridSpec(lambda_axis=np.array([0.0, 1.0]),
                         eta_axis=np.array([2.0]),
                         dt_axis=np.array([0]), runs=5)
        big = GridSpec(lambda_axis=np.array([0.0, 0.5, 1.0]),
                       eta_axis=np.array([2.0, 3.0]),
                       dt_axis=np.array([0, 1]), runs=5)
        r_small = grid_scan(er200, tt, tu, small, base_seed=11)
        r_big = grid_scan(er200, tt, tu, big, base_seed=11)
        assert r_big.objective <= r_small.objective

    def test_combine_mean_mode(self, er200):
        true = ModelParams(lam=0.5, eta_star=3, delta_t=1)
        tt, tu = _targets(er200, true, seed=51, runs=5)
        grid = GridSpec(lambda_axis=np.array([0.5]),
                        eta_axis=np.array([3.0]), dt_axis=np.array([1]),
                        runs=5)
        result = grid_scan(er200, tt, tu, grid, base_seed=3, combine="mean")
        expected = (result.delta_tweets + result.delta_users) / 2.0
        assert result.objective == expected
        with pytest.raises(ValueError):
            grid_scan(er200, tt, tu, grid, base_seed=3, combine="median")


class TestCommonRandomNumbers:
    def test_triplet_seed_ignores_lambda_only(self):
        seed = triplet_seed(5, 2, 10.0, 0.5)
        assert all(triplet_seed(5, 2, 10.0, lam) == seed
                   for lam in (0.0, 0.25, 1.0, 4.0, 1e6))
        assert len({seed, triplet_seed(6, 2, 10.0, 0.5),
                    triplet_seed(5, 3, 10.0, 0.5),
                    triplet_seed(5, 2, 11.0, 0.5)}) == 4

    def test_lambdas_of_a_group_share_the_pre_peak_days(self, er200,
                                                        monkeypatch):
        seen = []

        def recording(net, params, base_seed, runs, *, start=None):
            prof = run_ensemble(net, params, base_seed, runs, start=start)
            seen.append((params, prof))
            return prof

        monkeypatch.setattr(fitter, "run_ensemble", recording)
        true = ModelParams(lam=0.5, eta_star=3, delta_t=2)
        tt, tu = _targets(er200, true, seed=61, runs=5)
        grid = GridSpec(lambda_axis=np.array([0.0, 0.5, 2.0]),
                        eta_axis=np.array([2.0, 3.0]),
                        dt_axis=np.array([0, 2]), runs=5)
        result = grid_scan(er200, tt, tu, grid, base_seed=4)
        assert [(p.lam, p.eta_star, p.delta_t) for p, _ in seen] == [
            row[:3] for row in result.scan]
        for k in range(0, len(seen), 3):
            group = [prof for _, prof in seen[k:k + 3]]
            assert group[0].activities[:8].any()
            for prof in group[1:]:
                assert np.array_equal(prof.activities[:8],
                                      group[0].activities[:8])
                assert np.array_equal(prof.distinct_users[:8],
                                      group[0].distinct_users[:8])
            # the branches differ after the peak
            assert not np.array_equal(group[0].activities,
                                      group[2].activities)

    def test_threads_beyond_groups_do_not_change_result(self, er200,
                                                        monkeypatch):
        monkeypatch.setattr(fitter.os, "cpu_count", lambda: 8)
        true = ModelParams(lam=0.5, eta_star=3, delta_t=1)
        tt, tu = _targets(er200, true, seed=71, runs=5)
        grid = GridSpec(lambda_axis=np.array([0.0, 0.5, 1.0, 2.0]),
                        eta_axis=np.array([3.0]),
                        dt_axis=np.array([0, 1]), runs=5)
        serial = grid_scan(er200, tt, tu, grid, base_seed=2, threads=1)
        threaded = grid_scan(er200, tt, tu, grid, base_seed=2, threads=8)
        assert serial == threaded


def _standalone_row(net, lam, eta, dt, runs, base_seed, tt, tu):
    """A scan row recomputed alone, as one run_ensemble call."""
    prof = run_ensemble(net, ModelParams(lam=lam, eta_star=eta, delta_t=dt),
                        triplet_seed(base_seed, dt, eta, lam), runs)
    return (lam, eta, dt, distance(normalize(prof.activities), tt),
            distance(normalize(prof.distinct_users), tu))


class TestRace:
    """Round one at RACE_RUNS, round two re-scores the best at grid.runs."""

    # 5 x 4 x 2 = 40 triplets: 16 survive
    GRID = GridSpec(lambda_axis=np.array([0.0, 0.5, 1.0, 2.0, 4.0]),
                    eta_axis=np.array([1.0, 3.0, 8.0, 20.0]),
                    dt_axis=np.array([0, 2]), runs=20)

    def test_rows_are_standalone_scores_at_their_runs(self, er200,
                                                      monkeypatch):
        peaks, real = [], fitter.peak_state

        def spy(net, params, base_seed, runs):
            peaks.append((params.delta_t, params.eta_star, runs))
            return real(net, params, base_seed, runs)

        monkeypatch.setattr(fitter, "peak_state", spy)
        tt, tu = _targets(er200, ModelParams(lam=1.0, eta_star=3, delta_t=2),
                          seed=81)
        result = grid_scan(er200, tt, tu, self.GRID, base_seed=6)
        # one peak state per group and round: every group in round one,
        # each group that holds a survivor in round two
        kept = sorted({(row[2], row[1], 20) for row, runs in
                       zip(result.scan, result.scan_runs) if runs == 20})
        assert peaks[:8] == [(dt, eta, RACE_RUNS) for dt in (0, 2)
                             for eta in (1.0, 3.0, 8.0, 20.0)]
        assert peaks[8:] == kept
        assert race_survivors(self.GRID) == 16
        assert result.scan_runs.count(20) == 16
        assert result.scan_runs.count(RACE_RUNS) == 40 - 16
        for row, runs in zip(result.scan, result.scan_runs):
            want = _standalone_row(er200, *row[:3], runs, 6, tt, tu)
            assert np.array(row).tobytes() == np.array(want).tobytes()
        # the survivors are the best 16 rows of round one
        first = [_standalone_row(er200, *row[:3], RACE_RUNS, 6, tt, tu)
                 for row in result.scan]
        order = sorted(range(40), key=lambda i: (
            max(first[i][3], first[i][4]), first[i][1], first[i][0],
            first[i][2]))
        assert sorted(order[:16]) == [i for i, runs in
                                      enumerate(result.scan_runs)
                                      if runs == 20]

    def test_planted_targets_win_as_in_the_exhaustive_scan(self, er1000):
        grid = GridSpec(lambda_axis=np.array([0.0, 0.5, 1.0, 2.0, 4.0]),
                        eta_axis=np.array([2.0, 5.0, 10.0, 20.0, 40.0]),
                        dt_axis=np.array([0, 2, 4]), runs=20)
        table = []  # the exhaustive scan's profiles, as acceptance 9 makes
        for dt, eta, lam in itertools.product(grid.dt_axis.tolist(),
                                              grid.eta_axis.tolist(),
                                              grid.lambda_axis.tolist()):
            prof = run_ensemble(er1000, ModelParams(lam=lam, eta_star=eta,
                                                    delta_t=dt),
                                triplet_seed(3, dt, eta, lam), 20)
            table.append(((lam, eta, dt), normalize(prof.activities),
                          normalize(prof.distinct_users)))
        planted = [(0.5, 10, 2), (2.0, 5, 0), (0.0, 40, 4), (1.0, 2, 4),
                   (0.7, 7.5, 1), (1.5, 30, 3), (3.0, 3, 0), (0.25, 15, 5)]
        for k, (lam, eta, dt) in enumerate(planted):
            tt, tu = _targets(er1000, ModelParams(lam=lam, eta_star=eta,
                                                  delta_t=dt),
                              seed=500 + k)
            objective, eta_w, lam_w, dt_w = min(
                (max(distance(a, tt), distance(u, tu)), t[1], t[0], t[2])
                for t, a, u in table)
            result = grid_scan(er1000, tt, tu, grid, base_seed=3)
            assert result.params == ModelParams(lam=lam_w, eta_star=eta_w,
                                                delta_t=dt_w)
            assert result.objective == objective

    def test_winner_is_a_row_at_full_runs(self, er200, monkeypatch):
        # round two scores every survivor far from any target, so that
        # rows of round one score better than all rows at grid.runs
        far = ActivityProfile(np.eye(15)[0], np.eye(15)[0])

        def far_at_full_runs(net, params, base_seed, runs, *, start=None):
            if runs == self.GRID.runs:
                return far
            return run_ensemble(net, params, base_seed, runs, start=start)

        monkeypatch.setattr(fitter, "run_ensemble", far_at_full_runs)
        tt, tu = _targets(er200, ModelParams(lam=1.0, eta_star=3, delta_t=2),
                          seed=81)
        result = grid_scan(er200, tt, tu, self.GRID, base_seed=6)
        objectives = [max(row[3], row[4]) for row in result.scan]
        full = [i for i, runs in enumerate(result.scan_runs) if runs == 20]
        first = [i for i, runs in enumerate(result.scan_runs) if runs != 20]
        assert min(objectives[i] for i in first) < result.objective
        assert result.objective == min(objectives[i] for i in full)
        assert (result.params.lam, result.params.eta_star,
                result.params.delta_t) in [result.scan[i][:3] for i in full]

    def test_threads_do_not_change_the_race(self, er200, monkeypatch):
        monkeypatch.setattr(fitter.os, "cpu_count", lambda: 2)
        tt, tu = _targets(er200, ModelParams(lam=0.5, eta_star=8, delta_t=0),
                          seed=91)
        serial = grid_scan(er200, tt, tu, self.GRID, base_seed=2, threads=1)
        threaded = grid_scan(er200, tt, tu, self.GRID, base_seed=2,
                             threads=2)
        assert serial.scan_runs.count(20) == 16
        assert serial == threaded

    @pytest.mark.parametrize("grid", [
        dataclasses.replace(GRID, runs=RACE_RUNS),
        dataclasses.replace(GRID, runs=3),
        GridSpec(lambda_axis=np.array([0.0, 0.5, 1.0, 2.0]),
                 eta_axis=np.array([1.0, 3.0]), dt_axis=np.array([0, 2]),
                 runs=20),
    ], ids=["runs-at-race-runs", "runs-below", "16-triplets"])
    def test_one_round_when_nothing_is_left_out(self, er200, monkeypatch,
                                                grid):
        calls = []

        def counting(net, params, base_seed, runs, *, start=None):
            calls.append(runs)
            return run_ensemble(net, params, base_seed, runs, start=start)

        monkeypatch.setattr(fitter, "run_ensemble", counting)
        tt, tu = _targets(er200, ModelParams(lam=0.5, eta_star=3, delta_t=2),
                          seed=17)
        result = grid_scan(er200, tt, tu, grid, base_seed=4)
        assert race_survivors(grid) == 0
        assert calls == [grid.runs] * grid.size
        assert result.scan_runs == (grid.runs,) * grid.size

    def test_survivor_count(self):
        def grid(lams, runs):
            return GridSpec(lambda_axis=np.arange(lams, dtype=float),
                            eta_axis=np.array([1.0]), dt_axis=np.array([0]),
                            runs=runs)

        assert race_survivors(grid(17, RACE_RUNS + 1)) == 16
        assert race_survivors(grid(17, RACE_RUNS)) == 0
        assert race_survivors(grid(16, 50)) == 0
        assert race_survivors(grid(320, 50)) == 16
        assert race_survivors(grid(321, 50)) == 17  # 5%, rounded up
        assert race_survivors(GridSpec()) == 984


class TestCheckedBeforeSimulating:
    """grid_scan refuses bad input before the first peak_state."""

    GRID = GridSpec(lambda_axis=np.array([0.5]), eta_axis=np.array([3.0]),
                    dt_axis=np.array([1]), runs=2)
    TARGET = normalize(np.arange(1.0, 16.0))

    @pytest.fixture
    def peak_calls(self, monkeypatch):
        calls, real = [], fitter.peak_state

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fitter, "peak_state", spy)
        return calls

    def test_valid_input_reaches_the_engine(self, er200, peak_calls):
        grid_scan(er200, self.TARGET, self.TARGET, self.GRID)
        assert len(peak_calls) == 1

    @pytest.mark.parametrize("day,value", [(3, np.nan), (0, np.inf),
                                           (14, -np.inf)])
    @pytest.mark.parametrize("which", [0, 1])
    def test_non_finite_target(self, er200, peak_calls, day, value, which):
        targets = [self.TARGET.copy(), self.TARGET.copy()]
        targets[which][day] = value
        with pytest.raises(ValueError, match="finite"):
            grid_scan(er200, *targets, self.GRID)
        assert peak_calls == []

    @pytest.mark.parametrize("shape", [(14,), (16,), (1, 15), ()])
    @pytest.mark.parametrize("which", [0, 1])
    def test_target_shape(self, er200, peak_calls, shape, which):
        targets = [self.TARGET, self.TARGET]
        targets[which] = np.full(shape, 0.1)
        with pytest.raises(ValueError, match="15 days"):
            grid_scan(er200, *targets, self.GRID)
        assert peak_calls == []

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -0.01])
    def test_theta(self, er200, peak_calls, theta):
        with pytest.raises(ValueError, match="theta"):
            grid_scan(er200, self.TARGET, self.TARGET, self.GRID,
                      theta=theta)
        assert peak_calls == []

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads(self, er200, peak_calls, threads):
        with pytest.raises(ValueError, match="threads"):
            grid_scan(er200, self.TARGET, self.TARGET, self.GRID,
                      threads=threads)
        assert peak_calls == []

    @pytest.mark.parametrize("base_seed", [2.5, 2.0, True])
    def test_base_seed(self, er200, peak_calls, base_seed):
        # 2.5 used to score as base seed 2, and True as 1
        with pytest.raises(ValueError, match="base_seed"):
            grid_scan(er200, self.TARGET, self.TARGET, self.GRID,
                      base_seed=base_seed)
        assert peak_calls == []

    def test_numpy_integers_are_ints(self, er200):
        grid = GridSpec(lambda_axis=self.GRID.lambda_axis,
                        eta_axis=self.GRID.eta_axis,
                        dt_axis=self.GRID.dt_axis, runs=np.int64(2))
        want = grid_scan(er200, self.TARGET, self.TARGET, self.GRID,
                         base_seed=3)
        got = grid_scan(er200, self.TARGET, self.TARGET, grid,
                        base_seed=np.int32(3))
        assert got.scan == want.scan and got.scan_runs == want.scan_runs
