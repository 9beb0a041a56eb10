"""Tests for box summaries and deciles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.stats.summary import box_summary, deciles


class TestBoxSummary:
    def test_quartiles_of_known_sample(self):
        summary = box_summary(np.arange(1.0, 101.0))
        assert summary.median == pytest.approx(50.5)
        assert summary.first_quartile == pytest.approx(25.75)
        assert summary.third_quartile == pytest.approx(75.25)
        assert summary.n_outliers == 0

    def test_outliers_counted_outside_whiskers(self):
        values = np.concatenate([np.zeros(50), np.ones(50), [100.0]])
        summary = box_summary(values)
        assert summary.n_outliers == 1
        assert summary.upper_whisker <= 1.0
        assert summary.maximum == 100.0

    def test_constant_sample(self):
        summary = box_summary(np.full(20, 3.0))
        assert summary.median == 3.0
        assert summary.spread == 0.0
        assert summary.third_quartile == summary.first_quartile

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ReproError):
            box_summary(np.array([]))
        with pytest.raises(ReproError):
            box_summary(np.array([1.0, np.nan]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100))
    def test_ordering_invariants(self, values):
        summary = box_summary(np.array(values))
        assert (summary.minimum <= summary.lower_whisker
                <= summary.first_quartile <= summary.median
                <= summary.third_quartile <= summary.upper_whisker
                <= summary.maximum)


class TestDeciles:
    def test_nine_deciles_of_uniform_grid(self):
        values = np.arange(0.0, 101.0)
        result = deciles(values)
        np.testing.assert_allclose(result, np.arange(10.0, 91.0, 10.0))

    def test_default_count_is_nine(self):
        assert deciles(np.arange(100.0)).shape == (9,)

    def test_custom_count(self):
        assert deciles(np.arange(100.0), count=5).shape == (5,)

    def test_invalid_count_rejected(self):
        with pytest.raises(ReproError):
            deciles(np.arange(10.0), count=0)
        with pytest.raises(ReproError):
            deciles(np.arange(10.0), count=10)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    def test_deciles_are_monotone_and_within_range(self, values):
        array = np.array(values)
        result = deciles(array)
        assert np.all(np.diff(result) >= 0)
        assert result[0] >= array.min()
        assert result[-1] <= array.max()
