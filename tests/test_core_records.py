"""Tests for failure-record feature construction."""

import numpy as np
import pytest

from repro.core.records import build_failure_records
from repro.data.dataset import DiskDataset
from repro.errors import DatasetError
from repro.smart.attributes import READ_WRITE_ATTRIBUTES
from repro.smart.profile import HealthProfile


def test_thirty_features_per_failed_drive(small_normalized):
    records = build_failure_records(small_normalized)
    n_failed = len(small_normalized.failed_profiles)
    assert records.features.shape == (n_failed, 30)
    assert len(records.feature_names) == 30
    assert records.n_records == n_failed


def test_feature_names_follow_rw_attributes(small_normalized):
    records = build_failure_records(small_normalized)
    expected = []
    for symbol in READ_WRITE_ATTRIBUTES:
        expected.extend([symbol, f"{symbol}_std24", f"{symbol}_rate"])
    assert records.feature_names == tuple(expected)


def test_value_features_equal_failure_record(small_normalized):
    records = build_failure_records(small_normalized)
    for row, serial in zip(records.features, records.serials):
        profile = small_normalized.get(serial)
        failure_record = profile.failure_record()
        for position, symbol in enumerate(READ_WRITE_ATTRIBUTES):
            column = small_normalized.column_index(symbol)
            assert row[position * 3] == failure_record[column]


def test_attribute_values_carry_all_twelve(small_normalized):
    records = build_failure_records(small_normalized)
    assert records.attribute_values.shape[1] == 12
    np.testing.assert_array_equal(
        records.attribute_column("TC"),
        records.attribute_values[:, 11],
    )


def test_attribute_column_lookup(small_normalized):
    records = build_failure_records(small_normalized)
    np.testing.assert_array_equal(records.attribute_column("RRER"),
                                  records.attribute_values[:, 0])
    with pytest.raises(DatasetError):
        records.attribute_column("NOPE")


def test_derived_stats_zero_for_frozen_attribute():
    matrix = np.full((48, 12), 0.25)
    profiles = [
        HealthProfile("f", np.arange(48), matrix, failed=True),
        HealthProfile("g", np.arange(48), matrix.copy(), failed=False),
    ]
    records = build_failure_records(DiskDataset(profiles))
    # All std/rate features are zero for constant series.
    std_and_rate = [i for i, n in enumerate(records.feature_names)
                    if "_" in n]
    np.testing.assert_allclose(records.features[0, std_and_rate], 0.0)


def test_dataset_without_failures_rejected():
    matrix = np.zeros((10, 12))
    good_only = DiskDataset([
        HealthProfile("g", np.arange(10), matrix, failed=False)
    ])
    with pytest.raises(DatasetError):
        build_failure_records(good_only)
