"""Tests for HealthProfile."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.smart.profile import HealthProfile


def make_profile(n=10, failed=True, serial="d1"):
    hours = np.arange(100, 100 + n)
    matrix = np.arange(n * 12, dtype=np.float64).reshape(n, 12)
    return HealthProfile(serial=serial, hours=hours, matrix=matrix,
                         failed=failed)


def test_len_and_duration():
    profile = make_profile(n=5)
    assert len(profile) == 5
    assert profile.duration_hours == 5


def test_failure_record_is_last_row():
    profile = make_profile(n=4)
    np.testing.assert_array_equal(profile.failure_record(),
                                  profile.matrix[-1])


def test_failure_record_on_good_drive_raises():
    profile = make_profile(failed=False)
    with pytest.raises(DatasetError):
        profile.failure_record()
    with pytest.raises(DatasetError):
        _ = profile.failure_hour


def test_column_returns_attribute_series():
    profile = make_profile(n=3)
    np.testing.assert_array_equal(profile.column("RRER"),
                                  profile.matrix[:, 0])
    np.testing.assert_array_equal(profile.column("TC"),
                                  profile.matrix[:, 11])


def test_last_truncates_from_the_end():
    profile = make_profile(n=10)
    truncated = profile.last(3)
    assert len(truncated) == 3
    np.testing.assert_array_equal(truncated.matrix, profile.matrix[-3:])
    assert truncated.failure_hour == profile.failure_hour


def test_hours_before_failure_counts_down_to_zero():
    profile = make_profile(n=4)
    np.testing.assert_array_equal(profile.hours_before_failure(),
                                  [3, 2, 1, 0])


def test_non_increasing_hours_rejected():
    with pytest.raises(DatasetError):
        HealthProfile("d", np.array([3, 2, 1]), np.zeros((3, 12)), True)


def test_shape_mismatch_rejected():
    with pytest.raises(DatasetError):
        HealthProfile("d", np.arange(3), np.zeros((4, 12)), True)
    with pytest.raises(DatasetError):
        HealthProfile("d", np.arange(3), np.zeros((3, 5)), True)


def test_empty_profile_rejected():
    with pytest.raises(DatasetError):
        HealthProfile("d", np.array([]), np.zeros((0, 12)), True)


def test_with_matrix_keeps_structure():
    profile = make_profile(n=3)
    replaced = profile.with_matrix(profile.matrix * 2.0)
    assert replaced.serial == profile.serial
    np.testing.assert_array_equal(replaced.hours, profile.hours)
    np.testing.assert_array_equal(replaced.matrix, profile.matrix * 2.0)
