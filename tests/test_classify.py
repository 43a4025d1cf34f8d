import itertools
import math

import numpy as np
import pytest

from hashsim import (ClassBoundaries, GridSpec, classify_params,
                     classify_profile, normalize)


class TestClassifyParams:
    def test_spread_region(self):
        assert str(classify_params(0.2, 5, 6)) == "S"

    def test_peaked_high_eta(self):
        assert str(classify_params(3.5, 50, 0)) == "P+"

    def test_peaked_low_eta(self):
        assert str(classify_params(3.5, 3, 1)) == "P-"

    def test_after_peak(self):
        assert str(classify_params(0.5, 5, 0)) == "A-"
        assert str(classify_params(0.5, 45, 1)) == "A+"

    def test_before_peak(self):
        # slow decay with high threshold and anticipation leans pre-peak
        assert str(classify_params(0.5, 45, 5)) == "B+"
        # fast decay but anticipated: still mostly before the peak
        assert str(classify_params(3.0, 5, 4)) == "B-"

    def test_boundary_values_are_inclusive(self):
        b = ClassBoundaries()
        assert classify_params(b.lambda_split, 5, 0)[0] == "P"
        assert classify_params(b.lambda_split - 1e-9, 5, 0)[0] == "A"
        assert classify_params(0.5, b.eta_split, b.dt_anticipated)[0] == "B"
        assert classify_params(0.5, b.eta_split - 1e-9,
                               b.dt_anticipated)[0] == "S"

    def test_out_of_domain_rejected(self):
        for lam, eta, dt in [(-1, 5, 0), (1, 0.5, 0), (1, 5, 8),
                             (math.nan, 5, 0), (1, math.inf, 0),
                             (1, 5, 2.5)]:
            with pytest.raises(ValueError):
                classify_params(lam, eta, dt)

    def test_custom_boundaries(self):
        b = ClassBoundaries(lambda_split=1.0, eta_split=10.0, dt_anticipated=4)
        assert str(classify_params(0.5, 5, 6, b)) == "S"
        assert str(classify_params(1.5, 15, 2, b)) == "P+"

    def test_total_over_default_grid(self):
        # every triplet of the standard scan grid gets exactly one of the
        # seven labels, and all seven actually occur
        seen = set()
        grid = GridSpec()
        for dt, eta, lam in itertools.product(grid.dt_axis.tolist(),
                                              grid.eta_axis.tolist(),
                                              grid.lambda_axis.tolist()):
            seen.add(str(classify_params(lam, eta, dt)))
        assert seen == {"S", "A+", "A-", "B+", "B-", "P+", "P-"}


def _delta_profile(index):
    counts = [0.0] * 15
    counts[index] = 10.0
    return normalize(counts)


class TestClassifyProfile:
    def test_all_mass_on_peak(self):
        assert classify_profile(_delta_profile(7)) == "P"

    def test_mass_after_peak(self):
        assert classify_profile(_delta_profile(10)) == "A"

    def test_mass_before_peak(self):
        assert classify_profile(_delta_profile(2)) == "B"

    def test_uniform_is_spread(self):
        assert classify_profile(normalize([1.0] * 15)) == "S"

    def test_peak_threshold_boundary(self):
        counts = [0.0] * 15
        counts[7] = 0.60
        counts[0] = 0.40
        assert classify_profile(normalize(counts)) == "P"
        counts[7] = 0.59
        counts[0] = 0.41
        assert classify_profile(normalize(counts)) == "B"

    def test_scaling_invariance(self):
        counts = np.array([0, 0, 1, 0, 0, 2, 1, 5, 3, 8, 4, 1, 0, 1, 0],
                          dtype=float)
        assert classify_profile(normalize(counts)) == classify_profile(
            normalize(counts * 1000.0))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            classify_profile(normalize([0.0] * 15))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            classify_profile(normalize([1.0] * 14))


class TestBoundariesValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(lambda_split=0.0),
        dict(eta_split=-1.0),
        dict(dt_anticipated=0),
        dict(peak_frac=0.0),
        dict(side_frac=1.5),
        dict(lambda_split=math.nan),
        dict(eta_split=math.nan),
        dict(dt_anticipated=math.nan),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ClassBoundaries(**kwargs)

