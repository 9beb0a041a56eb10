"""Tests for DiskDataset."""

import numpy as np
import pytest

from repro.data.dataset import DiskDataset
from repro.errors import DatasetError
from repro.smart.profile import HealthProfile


def make_profile(serial, failed, n=6, fill=None):
    matrix = np.full((n, 12), 50.0) if fill is None else fill
    return HealthProfile(serial=serial, hours=np.arange(n), matrix=matrix,
                         failed=failed)


def varied_matrix(n=6, offset=0.0):
    return np.arange(n * 12, dtype=np.float64).reshape(n, 12) + offset


@pytest.fixture()
def dataset():
    return DiskDataset([
        make_profile("f1", True, fill=varied_matrix()),
        make_profile("f2", True, fill=varied_matrix(offset=5.0)),
        make_profile("g1", False, fill=varied_matrix(offset=-3.0)),
    ])


def test_split_by_outcome(dataset):
    assert [p.serial for p in dataset.failed_profiles] == ["f1", "f2"]
    assert [p.serial for p in dataset.good_profiles] == ["g1"]


def test_summary(dataset):
    summary = dataset.summary()
    assert summary.n_drives == 3
    assert summary.n_failed == 2
    assert summary.failed_samples == 12
    assert summary.failure_rate == pytest.approx(2 / 3)


def test_get_and_contains(dataset):
    assert dataset.get("f1").serial == "f1"
    assert "g1" in dataset
    assert "nope" not in dataset
    with pytest.raises(DatasetError):
        dataset.get("nope")


def test_duplicate_serials_rejected():
    with pytest.raises(DatasetError):
        DiskDataset([make_profile("x", True), make_profile("x", False)])


def test_empty_dataset_rejected():
    with pytest.raises(DatasetError):
        DiskDataset([])


def test_stacked_records_mask(dataset):
    matrix, failed_mask = dataset.stacked_records()
    assert matrix.shape == (18, 12)
    assert failed_mask.sum() == 12


def test_failure_records_align_with_serials(dataset):
    matrix, serials = dataset.failure_records()
    assert serials == ["f1", "f2"]
    np.testing.assert_array_equal(matrix[0],
                                  dataset.get("f1").failure_record())


def test_failure_records_without_failures_raises():
    good_only = DiskDataset([make_profile("g", False, fill=varied_matrix())])
    with pytest.raises(DatasetError):
        good_only.failure_records()


def test_normalize_bounds_and_flag(dataset):
    normalized = dataset.normalize()
    assert normalized.is_normalized
    matrix, _ = normalized.stacked_records()
    assert matrix.min() >= -1.0 and matrix.max() <= 1.0
    assert normalized.normalizer is not None


def test_normalize_twice_rejected(dataset):
    with pytest.raises(DatasetError):
        dataset.normalize().normalize()


def test_normalize_with_external_scaler(dataset):
    scaler = dataset.fit_normalizer()
    other = DiskDataset([make_profile("z", True, fill=varied_matrix())])
    normalized = other.normalize(scaler)
    assert normalized.is_normalized


def test_column_index(dataset):
    assert dataset.column_index("RRER") == 0
    with pytest.raises(DatasetError):
        dataset.column_index("NOPE")
