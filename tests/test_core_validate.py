"""Tests for ground-truth validation."""

import pytest

from repro.core.taxonomy import FailureType
from repro.core.validate import validate_categorization


@pytest.fixture(scope="module")
def validated(mid_fleet, mid_report):
    report = validate_categorization(mid_fleet, mid_report.categorization)
    return report


def test_counts_cover_all_failed_drives(validated, mid_fleet):
    assert validated.n_drives == len(mid_fleet.dataset.failed_profiles)
    assert validated.n_correct <= validated.n_drives


def test_accuracy_high_on_simulated_fleet(validated):
    assert validated.accuracy >= 0.95


def test_confusion_rows_sum_to_type_populations(validated, mid_fleet):
    from repro.core.validate import TYPE_BY_MODE
    for failure_type in FailureType:
        row_total = sum(validated.confusion[failure_type].values())
        true_total = sum(
            1 for mode in mid_fleet.true_modes.values()
            if mode.is_failure and TYPE_BY_MODE[mode] is failure_type
        )
        assert row_total == true_total


def test_recall_and_precision_bounds(validated):
    for failure_type in FailureType:
        assert 0.0 <= validated.recall(failure_type) <= 1.0
        assert 0.0 <= validated.precision(failure_type) <= 1.0


def test_mismatched_fleet_rejected(mid_report, small_fleet):
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        validate_categorization(small_fleet, mid_report.categorization)


def test_robustness_experiment_runs():
    from repro.experiments import robustness
    result = robustness.run(n_drives=1200, seeds=(3, 42))
    assert result.data["mean_accuracy"] >= 0.9
    assert len(result.data["accuracies"]) == 2
