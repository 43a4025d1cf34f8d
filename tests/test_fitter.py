import numpy as np
import pytest

from hashsim import (FitResult, GridSpec, ModelParams, distance,
                     generate_synthetic, grid_scan, normalize, run_ensemble)
from hashsim import fitter
from hashsim.fitter import triplet_seed


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

    def test_triplet_order_is_stable(self):
        grid = GridSpec(lambda_axis=np.array([0.0, 1.0]),
                        eta_axis=np.array([1.0, 2.0]),
                        dt_axis=np.array([0, 1]), runs=2)
        triplets = list(grid.triplets())
        assert len(triplets) == 8
        assert [t[0] for t in triplets] == list(range(8))
        assert triplets[0][1:] == (0, 1.0, 0.0)
        assert triplets[1][1:] == (0, 1.0, 1.0)
        assert triplets[-1][1:] == (1, 2.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(lambda_axis=np.array([])),
        dict(lambda_axis=np.array([1.0, 0.5])),
        dict(eta_axis=np.array([0.5])),
        dict(dt_axis=np.array([3, 9])),
        dict(runs=0),
        dict(lambda_axis=np.array([0.0, np.inf])),
        dict(eta_axis=np.array([np.nan])),
        dict(dt_axis=np.array([2.7])),
        dict(dt_axis=np.array([0.5, 1.5, 2.5])),
        dict(dt_axis=np.array([np.nan])),
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
        result = grid_scan(er200, tt, tu, grid, base_seed=5,
                           keep_scores=True)
        objectives = []
        for _, dt, eta, lam in grid.triplets():
            prof = run_ensemble(er200, ModelParams(lam=lam, eta_star=eta,
                                                   delta_t=dt),
                                triplet_seed(5, dt, eta, lam), 10)
            d_t = distance(normalize(prof.activities), tt)
            d_u = distance(normalize(prof.distinct_users), tu)
            objectives.append(max(d_t, d_u))
        assert result.objective == min(objectives)
        assert len(result.scan) == grid.size

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
        result = grid_scan(er200, tt, tu, grid, base_seed=4,
                           keep_scores=True)
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
        serial = grid_scan(er200, tt, tu, grid, base_seed=2, threads=1,
                           keep_scores=True)
        threaded = grid_scan(er200, tt, tu, grid, base_seed=2, threads=8,
                             keep_scores=True)
        assert serial == threaded
