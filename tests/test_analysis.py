"""Tests for variability statistics and polynomial extrapolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    coefficient_of_variation,
    extrapolate_scaling,
    fit_polynomial,
    median_ratio,
    percentiles,
    relative_std,
)


class TestCov:
    def test_constant_sample_has_zero_cov(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_known_value(self):
        # mean 2, population std 1 -> CoV 0.5
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_relative_std_is_percent(self):
        assert relative_std([1.0, 3.0]) == pytest.approx(50.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([-1.0, 1.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1,
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_cov_non_negative(self, samples):
        assert coefficient_of_variation(samples) >= 0.0


class TestMedianRatio:
    def test_self_ratio_is_one(self):
        assert median_ratio([2.0, 4.0, 6.0], [2.0, 4.0, 6.0]) == 1.0

    def test_scaling(self):
        assert median_ratio([3.0, 6.0, 9.0], [1.0, 2.0, 3.0]) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_ratio([], [1.0])


class TestPercentiles:
    def test_basic(self):
        values = list(range(1, 101))
        result = percentiles(values, points=(50, 95, 100))
        assert result[50] == pytest.approx(50.5)
        assert result[100] == 100


class TestFitting:
    def test_fits_exact_polynomial(self):
        xs = [1, 2, 3, 4, 5]
        ys = [2 * x * x + 3 * x + 1 for x in xs]
        fit = fit_polynomial(xs, ys)
        assert fit(10) == pytest.approx(231, rel=1e-6)
        np.testing.assert_allclose(fit(np.array(xs, dtype=float)), ys,
                                   atol=1e-8)

    def test_insufficient_points_rejected(self):
        with pytest.raises(ValueError):
            fit_polynomial([1, 2], [1, 2])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_polynomial([1, 2, 3], [1, 2])

    def test_extrapolate_scaling_shape(self):
        """Superlinear growth of time and cost with partitions (Fig 12)."""
        partitions = [1, 2, 3, 4, 5]
        times = [0, 390, 900, 1560, 2340]
        costs = [0, 4, 10, 18, 28]
        rows = extrapolate_scaling(partitions, times, costs,
                                   target_partitions=range(1, 21))
        assert len(rows) == 20
        assert rows[-1]["iops"] == pytest.approx(110_000)
        assert rows[-1]["time_s"] > rows[8]["time_s"] > rows[4]["time_s"]
        assert rows[4]["measured"] and not rows[5]["measured"]
        # The 9-ish hour / $1000-ish scale of the paper's 20-partition
        # extrapolation comes from the measured staircase shape.
        assert rows[-1]["cost_usd"] > 10 * rows[4]["cost_usd"]
