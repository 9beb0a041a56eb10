"""Tests for dataset sampling utilities."""

import numpy as np
import pytest

from repro.data.dataset import DiskDataset
from repro.errors import DatasetError
from repro.smart.profile import HealthProfile


def make_profile(serial, failed, seed=0):
    rng = np.random.default_rng(seed)
    return HealthProfile(serial, np.arange(20),
                         rng.uniform(size=(20, 12)), failed=failed)


@pytest.fixture()
def dataset():
    profiles = [make_profile(f"f{i}", True, seed=i) for i in range(4)]
    profiles += [make_profile(f"g{i}", False, seed=10 + i)
                 for i in range(8)]
    return DiskDataset(profiles)


def test_sample_population_sizes(dataset):
    sampled = dataset.sample(n_good=3, n_failed=2,
                             rng=np.random.default_rng(1))
    assert len(sampled.failed_profiles) == 2
    assert len(sampled.good_profiles) == 3


def test_sample_none_keeps_side(dataset):
    sampled = dataset.sample(n_good=2, rng=np.random.default_rng(1))
    assert len(sampled.failed_profiles) == 4
    assert len(sampled.good_profiles) == 2


def test_sample_validation(dataset):
    with pytest.raises(DatasetError):
        dataset.sample(n_good=100)
    with pytest.raises(DatasetError):
        dataset.sample(n_good=0, n_failed=0)


def test_sample_is_deterministic(dataset):
    a = dataset.sample(n_good=3, rng=np.random.default_rng(5))
    b = dataset.sample(n_good=3, rng=np.random.default_rng(5))
    assert [p.serial for p in a.profiles] == [p.serial for p in b.profiles]


def test_cli_output_flag(tmp_path, capsys):
    from repro.experiments.registry import main
    out = tmp_path / "results.txt"
    assert main(["table1", "--output", str(out)]) == 0
    assert "Table I" in out.read_text()
