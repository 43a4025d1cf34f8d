import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hashsim import (FollowNetwork, ModelParams, action_probability,
                     activeness, exposure_probability, generate_synthetic,
                     hesitancy, interest, per_retweet_probability,
                     retweet_count, retweet_gate)
from hashsim.behavior import gate_min, gate_min_leaders
from hashsim.engine import user_arrays
from reference import edge_followers, retweet_count_reference

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

    # the engine skips a day, and the exposure update before it, on the
    # predicate sigma * tau > min(h). tau runs down to subnormal values
    # and 0 (exp(-745) is subnormal, exp(-746) is 0), and one h may sit on
    # sigma * tau or one ulp to either side of it
    @settings(max_examples=500)
    @given(st.one_of(st.just(0.0), st.floats(0, 1)),
           st.one_of(st.just(0.0), st.floats(0, 1),
                     st.floats(700, 800).map(lambda z: math.exp(-z))),
           st.lists(st.floats(0, 1), min_size=1, max_size=6),
           st.sampled_from([None, -1, 0, 1]), st.data())
    def test_someone_can_post_exactly_when_sigma_tau_exceeds_min_h(
            self, sigma, tau, h, tie, data):
        h = np.array(h)
        if tie is not None:
            i = data.draw(st.integers(0, h.size - 1))
            h[i] = sigma * tau
            if tie:  # one ulp below or above
                h[i] = np.nextafter(h[i], tie * np.inf)
        assert (sigma * tau > h.min()) == np.any(
            action_probability(sigma, tau, h) > 0)


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


def _near_integer(m, side):
    """The float m, or the float one ulp below or above it."""
    m = float(m)
    return m if side == 0 else float(np.nextafter(m, side * np.inf))


# thresholds eta_star * influence: exact integers (eta_star 1 or 2 and an
# integral influence), one ulp either side of one, arbitrary reals, zero
# influence, eta_star 1e300, and products that overflow to inf
_GATE_CASE = st.one_of(
    st.tuples(st.sampled_from([1.0, 2.0]),
              st.builds(_near_integer, st.integers(0, 2**40),
                        st.sampled_from([-1, 0, 1]))),
    st.tuples(st.floats(1, 1e6), st.floats(0, 1e6)),
    st.tuples(st.floats(1, 60), st.just(0.0)),
    st.tuples(st.just(1e300), st.sampled_from([0.0, 1e-300, 1.0, 1e10])),
    st.tuples(st.floats(1e200, 1e300), st.floats(1e200, 1e300)))


class TestGateMin:
    """((y << shift) | eta) >= gate_min(...) << shift is the retweet gate."""

    @staticmethod
    def assert_packed_gate(eta_star, infl, edges, shift, ys, etas):
        least = gate_min(eta_star, infl, edges)
        assert isinstance(least, np.int64) and 1 <= least <= edges + 1
        gate = least << np.int64(shift)
        for y in ys:
            want = bool(retweet_gate(np.int64(y), eta_star, infl))
            for eta in etas:
                packed = np.int64((y << shift) | eta)
                assert bool(packed >= gate) == want, (y, eta)

    @settings(max_examples=400, deadline=None)
    @given(_GATE_CASE, st.integers(0, 20), st.data())
    def test_packed_comparison_is_the_gate(self, case, shift, data):
        eta_star, infl = case
        # y <= E < 2**53, and (E + 1) << shift stays below 2**63
        edges = data.draw(st.integers(
            0, min(2**53 - 1, (1 << (63 - shift)) - 2)))
        least = int(gate_min(eta_star, infl, edges))
        near = st.integers(max(0, least - 2), min(edges, least + 1))
        ys = data.draw(st.lists(st.integers(0, edges) | near
                                | st.sampled_from([0, edges]),
                                min_size=1, max_size=8))
        etas = data.draw(st.lists(st.integers(0, (1 << shift) - 1)
                                  | st.just((1 << shift) - 1),
                                  min_size=1, max_size=3))
        self.assert_packed_gate(eta_star, infl, edges, shift, ys, etas)

    @pytest.mark.parametrize("eta_star, infl, want", [
        (3.0, 4.0, 12),                                  # exact integer
        (1.0, float(np.nextafter(12.0, 0.0)), 12),       # one ulp below
        (1.0, float(np.nextafter(12.0, 13.0)), 13),      # one ulp above
        (1.0, float(2**40 + 1), 2**40 + 1),
        (1.0, float(np.nextafter(2.0**40, 0.0)), 2**40),
        (2.0, 0.0, 1),                                   # no leaders
        (1e300, 1e-300, 1),
        (1e300, 1.0, 2**41 + 1),                         # capped
        (1e300, 1e10, 2**41 + 1),                        # overflows to inf
    ])
    def test_hand_cases(self, eta_star, infl, want):
        edges = 2**41
        assert gate_min(eta_star, infl, edges) == want
        ys = [0, edges] + [y for y in range(want - 2, want + 2)
                           if 0 <= y <= edges]
        self.assert_packed_gate(eta_star, infl, edges, 11, ys,
                                [0, 1, 2**11 - 1])

    def test_array_input_is_elementwise(self):
        infl = np.array([0.0, 0.5, 4.0, np.nextafter(4.0, 5.0), 1e300])
        least = gate_min(3.0, infl, 100)
        assert least.dtype == np.int64
        assert least.tolist() == [1, 2, 12, 13, 101]
        assert least.tolist() == [gate_min(3.0, x, 100) for x in infl]
        # an overflow to inf is capped, without a warning
        capped = gate_min(1e300, np.array([1e10, 0.0]), 100)
        assert capped.tolist() == [101, 1]


# eta_star in [1, 60]: integers, x.5 and one ulp on either side of integers
_ETA_STARS = st.one_of(
    st.integers(1, 60).map(float),
    st.integers(1, 59).map(lambda k: k + 0.5),
    st.integers(2, 60).map(lambda k: float(np.nextafter(k, 0.0))),
    st.integers(1, 60).map(lambda k: float(np.nextafter(k, 61.0))))


class TestGateMinLeaders:
    @settings(max_examples=300, deadline=None)
    @given(_ETA_STARS, st.integers(2, 150), st.floats(0.5, 1.5),
           st.integers(0, 2**32 - 1))
    def test_fewer_leaders_never_pass_the_gate(self, eta_star, n, spread,
                                               seed):
        # random graphs whose mean leader count is near floor(eta_star):
        # the summed follower counts of all of a user's leaders, the most
        # y can reach, stay below its gate_min when it has fewer leaders
        k = gate_min_leaders(eta_star)
        assert k == math.floor(eta_star)
        net = generate_synthetic("uniform-random", n, seed=seed,
                                 edge_prob=min(1.0, spread * k / (n - 1)))
        reach = np.zeros(n, dtype=np.int64)
        np.add.at(reach, edge_followers(net),
                  net.follower_count[net.leader_ids])
        least = gate_min(eta_star, net.influence, net.edge_count)
        below = net.leader_count < k
        assert np.all(reach[below] < least[below])
        if eta_star == k:
            # k leaders with one follower each open the gate together,
            # so an integer eta_star admits no higher cut
            one = FollowNetwork.from_edges(np.zeros(k, dtype=np.int64),
                                           np.arange(1, k + 1), k + 1)
            assert one.leader_count[0] == k
            assert gate_min(eta_star, one.influence[0], k) == k
            assert retweet_gate(k, eta_star, one.influence[0])


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

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 2**40),
                              st.one_of(st.just(0.0),
                                        st.floats(1e-3, 1e6))),
                    min_size=1, max_size=40),
           st.floats(1.0, 100.0))
    # influence 0 with y > 0 and with y = 0, a value below 1 bumped to 1,
    # and an exact square
    @example([(5, 2, 0.0), (0, 0, 0.0), (1, 2, 3.0), (8, 24, 3.0)], 2.0)
    def test_equals_the_reference_formula(self, entries, eta_star):
        # as the engine calls it: int64 eta and y, float64 influence
        eta, y, infl = (np.array(column) for column in zip(*entries))
        want = [retweet_count_reference(int(e), float(v), eta_star, float(i))
                for e, v, i in entries]
        got = retweet_count(eta, y, eta_star, infl)
        assert got.dtype == np.int64
        assert got.tolist() == want


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
