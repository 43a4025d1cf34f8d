import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hashsim import (ModelParams, action_probability, activeness,
                     exposure_probability, hesitancy, interest,
                     per_retweet_probability, retweet_count, retweet_gate)
from hashsim.engine import user_arrays

TOL = 1e-12


class TestActiveness:
    def test_maximal_user(self):
        assert activeness(100, 0, 100, 50) == 1.0

    def test_no_followers_means_zero(self):
        assert activeness(0, 30, 100, 50) == 0.0

    def test_mid_case(self):
        assert abs(activeness(50, 25, 100, 50) - 0.375) < TOL

    def test_invalid_network(self):
        with pytest.raises(ValueError):
            activeness(0, 0, 0, 0)

    @given(st.integers(1, 500), st.integers(0, 200), st.integers(0, 500),
           st.integers(0, 200))
    def test_bounds_hold(self, f_max, l_max, f, l):
        f, l = min(f, f_max), min(l, l_max)
        assert 0.0 <= activeness(f, l, f_max, l_max) <= 1.0

    @given(st.integers(2, 300), st.integers(1, 100), st.integers(0, 300),
           st.integers(0, 100))
    def test_monotone_in_followers_and_leaders(self, f_max, l_max, f, l):
        f, l = min(f, f_max - 1), min(l, l_max)
        assert activeness(f + 1, l, f_max, l_max) >= activeness(
            f, l, f_max, l_max)
        if l + 1 <= l_max:
            assert activeness(f, l + 1, f_max, l_max) <= activeness(
                f, l, f_max, l_max)


class TestHesitancy:
    def test_isolated_user(self):
        assert hesitancy(0, 0) == 1.0

    def test_mid_case(self):
        assert abs(hesitancy(4, 5) - 0.1) < TOL

    def test_large_degrees_stay_positive(self):
        value = hesitancy(10**6, 10**6)
        assert 0.0 < value < 1e-5

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_strictly_decreasing_in_total_degree(self, l, f):
        assert hesitancy(l + 1, f) < hesitancy(l, f)
        assert hesitancy(l, f + 1) < hesitancy(l, f)


class TestInterest:
    def test_pre_peak_plateau(self):
        assert interest(-3, 2.0) == 1.0

    def test_boundary_day(self):
        assert interest(0, 5.0) == 1.0

    def test_decay_value(self):
        assert abs(interest(2, 0.5) - math.exp(-1)) < TOL

    @given(st.floats(-10, 10), st.floats(0, 5))
    def test_nonincreasing_and_bounded(self, x, lam):
        value = interest(x, lam)
        assert 0.0 < value <= 1.0
        assert interest(x + 0.5, lam) <= value

    @given(st.floats(-10, 10))
    def test_zero_rate_never_decays(self, x):
        assert interest(x, 0.0) == 1.0


class TestActionProbability:
    def test_direct_value(self):
        assert abs(action_probability(1.0, 1.0, 0.1) - 0.9) < TOL

    def test_negative_clamps_to_zero(self):
        assert action_probability(1.0, 0.05, 0.1) == 0.0

    def test_zero_interest(self):
        assert action_probability(0.0, 1.0, 0.5) == 0.0

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0.001, 1))
    def test_stays_in_unit_interval(self, sigma, tau, h):
        assert 0.0 <= action_probability(sigma, tau, h) <= 1.0


class TestExposureProbability:
    def test_default_coverage_is_identity(self):
        params = ModelParams(lam=1.0, eta_star=2, delta_t=0)
        assert exposure_probability(0.375, 5.0, params) == 0.375
        assert exposure_probability(0.0, 0.0, params) == 0.0
        assert exposure_probability(1.0, 5.0, params) == 1.0

    def test_custom_coverage_applies(self):
        params = ModelParams(lam=1.0, eta_star=2, delta_t=0,
                             coverage=lambda x: 0.5)
        assert exposure_probability(0.8, 1.0, params) == 0.4


class TestRetweetGate:
    def test_boundary_equality_passes(self):
        assert retweet_gate(12.0, 3.0, 4.0) is True

    def test_just_below_fails(self):
        assert retweet_gate(11.9, 3.0, 4.0) is False

    def test_zero_exposure_guard(self):
        assert retweet_gate(0.0, 1.0, 0.0) is False


class TestRetweetCount:
    def test_boundary_is_one(self):
        assert retweet_count(3, 3.0 * 5.0, 3.0, 5.0) == 1

    def test_direct_value(self):
        # sqrt((8/2) * (24/(2*3))) = sqrt(16) = 4
        assert retweet_count(8, 24.0, 2.0, 3.0) == 4

    def test_floor_zero_becomes_one(self):
        # sqrt((2/8) * 0.25) = 0.25 -> floor 0 -> 1
        assert retweet_count(2, 0.25 * 8.0 * 3.0, 8.0, 3.0) == 1

    def test_zero_influence_returns_one(self):
        assert retweet_count(5, 2.0, 4.0, 0.0) == 1

    @given(st.integers(1, 50), st.floats(0.1, 1000), st.floats(1, 60),
           st.floats(0.1, 100))
    def test_at_least_one_and_monotone(self, eta_i, y, eta_star, infl):
        count = retweet_count(eta_i, y, eta_star, infl)
        assert count >= 1
        assert retweet_count(eta_i + 1, y, eta_star, infl) >= count
        assert retweet_count(eta_i, y * 2, eta_star, infl) >= count


class TestPerRetweetProbability:
    def test_single_trial_identity(self):
        assert per_retweet_probability(0.37, 1) == 0.37

    def test_two_trial_value(self):
        assert abs(per_retweet_probability(0.75, 2) - 0.5) < TOL

    def test_zero_total(self):
        assert per_retweet_probability(0.0, 5) == 0.0

    @given(st.floats(0, 0.999999), st.integers(1, 100))
    def test_round_trip(self, r_total, n):
        r = per_retweet_probability(r_total, n)
        assert abs(1.0 - (1.0 - r) ** n - r_total) < TOL


class TestArrayInputs:
    """The engine calls the formulas on arrays; each entry must carry the
    same float64 bits as the scalar call on that entry. The one exception
    is the power in per_retweet_probability: numpy's vectorized power may
    differ from the scalar one in the last bits, which moves the result by
    at most a few units of 2**-53. A 1-element array takes the vectorized
    path, so the oracle calls it that way."""

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 100),
                              st.integers(0, 40), st.floats(0, 2000),
                              st.sampled_from([0.0, 1.0]) | st.floats(1, 100),
                              st.floats(0, 1)),
                    min_size=1, max_size=20),
           st.floats(1, 60), st.floats(0, 1))
    def test_elementwise_equals_scalar(self, rows, eta_star, tau):
        f, l, eta, y, infl, r = (np.array(col) for col in zip(*rows))
        f_max, l_max = int(f.max()) + 1, int(l.max())
        cases = [
            (activeness, (f, l, f_max, l_max), (1, 1, 0, 0), 0.0),
            (hesitancy, (l, f), (1, 1), 0.0),
            (action_probability, (1.0, tau, r), (0, 0, 1), 0.0),
            (retweet_gate, (y, eta_star, infl), (1, 0, 1), 0.0),
            (retweet_count, (eta, y, eta_star, infl), (1, 1, 0, 1), 0.0),
            (per_retweet_probability, (r, eta + 1), (1, 1),
             2 * np.spacing(1.0)),
        ]
        for fn, args, per_entry, tol in cases:
            vector = np.asarray(fn(*args))
            for k in range(len(rows)):
                scalar = fn(*(a[k].item() if e else a
                              for a, e in zip(args, per_entry)))
                assert (vector[k] == scalar
                        or abs(vector[k] - scalar) <= tol), fn.__name__
                assert type(scalar) is not np.ndarray, fn.__name__

    @given(st.lists(st.tuples(st.floats(0, 1), st.integers(1, 300)),
                    min_size=1, max_size=64))
    def test_per_retweet_probability_matches_one_element_calls(self, rows):
        r = np.array([row[0] for row in rows])
        nu = np.array([row[1] for row in rows])
        vector = per_retweet_probability(r, nu)
        for k, (r_k, nu_k) in enumerate(rows):
            single = per_retweet_probability(np.array([r_k]),
                                             np.array([nu_k]))[0]
            assert vector[k] == single

    def test_exposure_probability_on_arrays(self):
        params = ModelParams(lam=1.0, eta_star=2, delta_t=0,
                             coverage=lambda x: 0.5)
        rho = exposure_probability(np.array([0.8, 0.0, 1.0]), 1.0, params)
        assert rho.tolist() == [0.4, 0.0, 0.5]


class TestModelParams:
    @pytest.mark.parametrize("kwargs", [
        dict(lam=-0.1, eta_star=1, delta_t=0),
        dict(lam=0.0, eta_star=0.5, delta_t=0),
        dict(lam=0.0, eta_star=1, delta_t=8),
        dict(lam=0.0, eta_star=1, delta_t=-1),
        dict(lam=0.0, eta_star=1, delta_t=0, sigma=1.5),
        # JSON booleans would otherwise pass as 0 and 1
        dict(lam=False, eta_star=1, delta_t=0),
        dict(lam=0.0, eta_star=True, delta_t=0),
        dict(lam=0.0, eta_star=1, delta_t=True),
        dict(lam=0.0, eta_star=1, delta_t=0, sigma=np.True_),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=math.nan, eta_star=1, delta_t=0),
        dict(lam=math.inf, eta_star=1, delta_t=0),
        dict(lam=0.0, eta_star=math.nan, delta_t=0),
        dict(lam=0.0, eta_star=math.inf, delta_t=0),
        dict(lam=0.0, eta_star=1, delta_t=0, sigma=math.nan),
        dict(lam=0.0, eta_star=1, delta_t=2.5),
        dict(lam=0.0, eta_star=1, delta_t=math.nan),
        dict(lam=0.0, eta_star=1, delta_t=math.inf),
        dict(lam=10**400, eta_star=1, delta_t=0),
        dict(lam=0.0, eta_star=1, delta_t=10**400),
    ], ids=["lam-nan", "lam-inf", "eta-nan", "eta-inf", "sigma-nan",
            "dt-fraction", "dt-nan", "dt-inf", "lam-huge-int",
            "dt-huge-int"])
    def test_non_finite_or_non_integral_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_integral_float_delta_t_accepted(self):
        assert ModelParams(lam=0.0, eta_star=1, delta_t=2.0).delta_t == 2


def test_user_traits_consistent(star11):
    a_vec, h_vec = user_arrays(star11)
    assert star11.follower_count[0] == 10 and star11.leader_count[0] == 0
    assert a_vec[0] == 1.0
    assert h_vec[0] == hesitancy(0, 10)
    assert star11.influence[4] == 10.0
    assert a_vec[4] == 0.0
