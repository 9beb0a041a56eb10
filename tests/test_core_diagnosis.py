"""Tests for z-score diagnosis over failure groups."""

import numpy as np
import pytest

from repro.core.diagnosis import temporal_group_z_scores
from repro.core.taxonomy import FailureType


@pytest.fixture(scope="module")
def diagnosis_inputs(mid_report):
    return mid_report.dataset, mid_report.categorization


def mean_z_by_group(diagnosis_inputs, attribute):
    """Each group's Figure 11/12 timeline folded to its mean z-score."""
    dataset, categorization = diagnosis_inputs
    by_group = temporal_group_z_scores(dataset, categorization, attribute,
                                       max_lag_hours=480, step_hours=24)
    return {group: scores.mean_z() for group, scores in by_group.items()}


def test_tc_zscores_negative_for_all_groups(diagnosis_inputs):
    z_by_group = mean_z_by_group(diagnosis_inputs, "TC")
    assert set(z_by_group) == set(FailureType)
    for value in z_by_group.values():
        assert value < 0  # failed drives run hotter -> lower TC health


def test_logical_group_is_hottest(diagnosis_inputs):
    z_by_group = mean_z_by_group(diagnosis_inputs, "TC")
    assert z_by_group[FailureType.LOGICAL] == min(z_by_group.values())


def test_head_group_is_oldest(diagnosis_inputs):
    z_by_group = mean_z_by_group(diagnosis_inputs, "POH")
    assert z_by_group[FailureType.HEAD] == min(z_by_group.values())


def test_temporal_scores_cover_the_timeline(diagnosis_inputs):
    dataset, categorization = diagnosis_inputs
    by_group = temporal_group_z_scores(dataset, categorization, "TC",
                                       max_lag_hours=480, step_hours=24)
    for scores in by_group.values():
        assert scores.lags_hours[0] == 0
        assert scores.lags_hours[-1] == 480
        finite = scores.z_scores[np.isfinite(scores.z_scores)]
        assert finite.shape[0] >= 10


def test_temporal_mean_matches_pooled_sign(diagnosis_inputs):
    dataset, categorization = diagnosis_inputs
    by_group = temporal_group_z_scores(dataset, categorization, "TC",
                                       max_lag_hours=240, step_hours=24)
    assert by_group[FailureType.LOGICAL].mean_z() < 0
