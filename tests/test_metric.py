import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hashsim import distance, normalize


def distance_reference(a, b, theta):
    """Direct loop over the metric definition, kept independent of the
    vectorized implementation."""
    total = 0.0
    for p_i, q_i in zip(a, b):
        if p_i + q_i > theta:
            total += ((p_i - q_i) / max(p_i, q_i)) ** 2
    return math.sqrt(total) / len(a)


def _profile(values):
    return np.asarray(values, dtype=float)


class TestNormalize:
    def test_single_day_mass(self):
        counts = [0.0] * 15
        counts[9] = 30.0
        prof = normalize(counts)
        assert prof[9] == 1.0
        assert prof.sum() == 1.0

    def test_uniform(self):
        prof = normalize([1.0] * 15)
        assert np.allclose(prof, 1 / 15)

    def test_all_zero_is_degenerate(self):
        prof = normalize([0.0] * 15)
        assert not np.any(prof)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize([1.0, -0.5] + [0.0] * 13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            normalize([bad] + [1.0] * 14)

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=30))
    def test_sums_to_one_or_degenerate(self, counts):
        prof = normalize(counts)
        if not np.any(prof):
            assert sum(counts) == 0
        else:
            assert abs(prof.sum() - 1.0) < 1e-12


class TestDistance:
    def test_identity_is_zero(self):
        p = normalize([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9])
        assert distance(p, p) == 0.0

    def test_two_delta_profiles(self):
        p = _profile([1.0] + [0.0] * 14)
        q = _profile([0.0, 1.0] + [0.0] * 13)
        assert abs(distance(p, q) - math.sqrt(2) / 15) < 1e-12

    def test_masking_drops_small_terms(self):
        p = _profile([0.98, 0.02] + [0.0] * 13)
        q = _profile([0.98, 0.0, 0.02] + [0.0] * 12)
        assert distance(p, q) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = normalize(rng.random(15))
            q = normalize(rng.random(15))
            assert distance(p, q) == distance(q, p)

    def test_upper_bound(self):
        p = _profile([1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        q = _profile([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
        value = distance(normalize(p), normalize(q))
        assert value <= 1 / math.sqrt(15) + 1e-15

    def test_raising_theta_never_increases(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = normalize(rng.random(15))
            q = normalize(rng.random(15))
            thetas = [0.0, 0.02, 0.04, 0.1, 0.5]
            values = [distance(p, q, t) for t in thetas]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_agrees_with_reference_loop(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            p = normalize(rng.random(15))
            q = normalize(rng.random(15))
            expected = distance_reference(p, q, 0.04)
            assert abs(distance(p, q, 0.04) - expected) <= 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            distance(_profile([1.0]), _profile([0.5, 0.5]))

    def test_negative_theta_rejected(self):
        p = normalize([1.0] * 15)
        with pytest.raises(ValueError):
            distance(p, p, -0.01)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        p = normalize([1.0] * 15)
        q = normalize([2.0] + [1.0] * 14)
        with pytest.raises(ValueError, match="finite"):
            distance(p, q, theta)

    def test_any_length_accepted(self):
        p = normalize([1.0, 3.0])
        q = normalize([2.0, 2.0])
        assert distance(p, q, 0.0) == distance_reference(
            p, q, 0.0)
