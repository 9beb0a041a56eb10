"""Tests for the classical failure-detection baselines."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.ranksum import RankSumDetector
from repro.ml.threshold import ThresholdDetector


class TestThresholdDetector:
    def test_good_fleet_raises_no_alarm_on_itself(self, rng):
        good = rng.normal(100.0, 1.0, size=(500, 4))
        detector = ThresholdDetector(margin=0.05).fit(good)
        assert not np.any(detector.flag_records(good))

    def test_deep_excursion_flagged(self, rng):
        good = rng.normal(100.0, 1.0, size=(500, 4))
        detector = ThresholdDetector(margin=0.05).fit(good)
        bad = good[0].copy()
        bad[2] = 0.0
        assert detector.flag_records(bad.reshape(1, -1))[0]

    def test_flag_drive_any_record(self, rng):
        good = rng.normal(100.0, 1.0, size=(500, 4))
        detector = ThresholdDetector().fit(good)
        profile = np.vstack([good[:10], np.zeros((1, 4))])
        assert detector.flag_drive(profile)

    def test_conservative_thresholds_fixed_cut(self):
        detector = ThresholdDetector.conservative(3, cut=-0.5)
        records = np.array([[0.0, 0.0, -0.6], [0.0, 0.0, -0.4]])
        flags = detector.flag_records(records)
        assert flags.tolist() == [True, False]

    def test_use_before_fit_raises(self):
        with pytest.raises(ModelError):
            ThresholdDetector().flag_records(np.zeros((1, 2)))

    def test_attribute_count_mismatch(self, rng):
        detector = ThresholdDetector().fit(rng.normal(size=(10, 3)))
        with pytest.raises(ModelError):
            detector.flag_records(np.zeros((1, 4)))


class TestRankSumDetector:
    def test_matching_distribution_not_flagged(self, rng):
        good = rng.normal(0.0, 1.0, size=(3000, 3))
        detector = RankSumDetector(seed=1).fit(good)
        window = rng.normal(0.0, 1.0, size=(48, 3))
        assert not detector.flag(window)

    def test_material_shift_flagged(self, rng):
        good = rng.normal(0.0, 1.0, size=(3000, 3))
        detector = RankSumDetector(seed=1).fit(good)
        shifted = rng.normal(0.0, 1.0, size=(48, 3))
        shifted[:, 1] += 10.0
        assert detector.flag(shifted)

    def test_statistical_but_immaterial_shift_not_flagged(self, rng):
        """A shift inside the reference band must not raise an alarm."""
        good = rng.normal(0.0, 1.0, size=(5000, 1))
        detector = RankSumDetector(seed=1, significance=0.01,
                                   band_quantile=0.001).fit(good)
        slightly = rng.normal(0.5, 0.1, size=(60, 1))  # within the band
        assert not detector.flag(slightly)

    def test_constant_attribute_yields_p_one(self, rng):
        good = np.full((2000, 1), 7.0)
        detector = RankSumDetector(seed=1).fit(good)
        p_values = detector.attribute_p_values(np.full((48, 1), 7.0))
        assert p_values[0] == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ModelError):
            RankSumDetector(significance=0.0)
        with pytest.raises(ModelError):
            RankSumDetector(band_quantile=0.7)
        with pytest.raises(ModelError):
            RankSumDetector(reference_size=1)

    def test_use_before_fit_raises(self):
        with pytest.raises(ModelError):
            RankSumDetector().flag(np.zeros((5, 2)))


class TestGaussianNaiveBayes:
    def test_separable_classes_classified(self, rng):
        negative = rng.normal(0.0, 1.0, size=(500, 2))
        positive = rng.normal(6.0, 1.0, size=(500, 2))
        features = np.vstack([negative, positive])
        labels = np.concatenate([np.zeros(500, bool), np.ones(500, bool)])
        model = GaussianNaiveBayes().fit(features, labels)
        assert not model.predict(np.array([[0.0, 0.0]]))[0]
        assert model.predict(np.array([[6.0, 6.0]]))[0]

    def test_threshold_trades_detection_for_alarms(self, rng):
        negative = rng.normal(0.0, 1.0, size=(500, 2))
        positive = rng.normal(1.5, 1.0, size=(500, 2))
        features = np.vstack([negative, positive])
        labels = np.concatenate([np.zeros(500, bool), np.ones(500, bool)])
        model = GaussianNaiveBayes().fit(features, labels)
        probe = rng.normal(1.0, 1.0, size=(300, 2))
        lax = model.predict(probe, threshold=-2.0).mean()
        strict = model.predict(probe, threshold=4.0).mean()
        assert lax > strict

    def test_log_odds_sign(self, rng):
        negative = rng.normal(0.0, 0.5, size=(200, 1))
        positive = rng.normal(4.0, 0.5, size=(200, 1))
        model = GaussianNaiveBayes().fit(
            np.vstack([negative, positive]),
            np.concatenate([np.zeros(200, bool), np.ones(200, bool)]),
        )
        assert model.log_odds(np.array([[4.0]]))[0] > 0
        assert model.log_odds(np.array([[0.0]]))[0] < 0

    def test_needs_both_classes(self, rng):
        with pytest.raises(ModelError):
            GaussianNaiveBayes().fit(rng.normal(size=(10, 2)),
                                     np.zeros(10, bool))

    def test_use_before_fit_raises(self):
        with pytest.raises(ModelError):
            GaussianNaiveBayes().log_odds(np.zeros((1, 2)))
