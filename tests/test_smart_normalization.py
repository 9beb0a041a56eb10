"""Tests for the Eq. (1) min-max normalizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import NormalizationError
from repro.smart.normalization import MinMaxNormalizer


class TestMinMaxNormalizer:
    def test_eq1_maps_extremes_to_unit_interval(self):
        data = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        scaled = MinMaxNormalizer().fit_transform(data)
        np.testing.assert_allclose(scaled[:, 0], [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(scaled[:, 1], [-1.0, 0.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        data = np.array([[1.0, 7.0], [2.0, 7.0]])
        scaled = MinMaxNormalizer().fit(data).transform(data)
        np.testing.assert_allclose(scaled[:, 1], [0.0, 0.0])

    def test_transform_clips_out_of_range_values(self):
        normalizer = MinMaxNormalizer().fit(np.array([[0.0], [10.0]]))
        scaled = normalizer.transform(np.array([[-5.0], [15.0]]))
        np.testing.assert_allclose(scaled.ravel(), [-1.0, 1.0])

    def test_use_before_fit_raises(self):
        with pytest.raises(NormalizationError):
            MinMaxNormalizer().transform(np.zeros((2, 2)))

    def test_fit_rejects_non_finite(self):
        with pytest.raises(NormalizationError):
            MinMaxNormalizer().fit(np.array([[np.nan, 1.0]]))

    def test_fit_rejects_empty(self):
        with pytest.raises(NormalizationError):
            MinMaxNormalizer().fit(np.empty((0, 3)))

    def test_column_count_mismatch_raises(self):
        normalizer = MinMaxNormalizer().fit(np.zeros((2, 3)))
        with pytest.raises(NormalizationError):
            normalizer.transform(np.zeros((2, 2)))

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, (7, 4),
                      elements=st.floats(-1e6, 1e6, allow_nan=False)))
    def test_output_always_within_unit_interval(self, data):
        scaled = MinMaxNormalizer().fit_transform(data)
        assert np.all(scaled >= -1.0) and np.all(scaled <= 1.0)

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.float64, (5, 2),
                      elements=st.floats(-100, 100, allow_nan=False)))
    def test_scaling_is_weakly_monotone(self, data):
        scaled = MinMaxNormalizer().fit_transform(data)
        for column in range(data.shape[1]):
            original = data[:, column]
            rescaled = scaled[:, column]
            for i in range(original.shape[0]):
                for j in range(original.shape[0]):
                    if original[i] < original[j]:
                        assert rescaled[i] <= rescaled[j]
