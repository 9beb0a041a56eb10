"""Tests for the Gaussian HMM and the two-model detector."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.hmm import GaussianHMM, HMMDetector


def two_state_sequences(rng, n_sequences=20, length=60,
                        means=(0.0, 5.0), stay=0.95):
    """Sequences from a known two-state switching process."""
    sequences = []
    for _ in range(n_sequences):
        state = rng.integers(0, 2)
        values = []
        for _ in range(length):
            if rng.random() > stay:
                state = 1 - state
            values.append(rng.normal(means[state], 0.5))
        sequences.append(np.array(values).reshape(-1, 1))
    return sequences


class TestGaussianHMM:
    def test_recovers_state_means(self, rng):
        model = GaussianHMM(n_states=2, seed=1).fit(
            two_state_sequences(rng)
        )
        recovered = sorted(float(m) for m in model.means_[:, 0])
        assert recovered[0] == pytest.approx(0.0, abs=0.3)
        assert recovered[1] == pytest.approx(5.0, abs=0.3)

    def test_learns_sticky_transitions(self, rng):
        model = GaussianHMM(n_states=2, seed=1).fit(
            two_state_sequences(rng, stay=0.97)
        )
        transition = np.exp(model.transition_log_)
        assert transition[0, 0] > 0.8
        assert transition[1, 1] > 0.8

    def test_likelihood_increases_with_training(self, rng):
        sequences = two_state_sequences(rng, n_sequences=10)
        barely = GaussianHMM(n_states=2, n_iter=1, seed=1).fit(sequences)
        trained = GaussianHMM(n_states=2, n_iter=40, seed=1).fit(sequences)
        barely_score = sum(barely.score(s) for s in sequences)
        trained_score = sum(trained.score(s) for s in sequences)
        assert trained_score >= barely_score - 1e-6

    def test_score_prefers_matching_data(self, rng):
        model = GaussianHMM(n_states=2, seed=1).fit(
            two_state_sequences(rng)
        )
        matching = two_state_sequences(rng, n_sequences=1)[0]
        alien = rng.normal(50.0, 0.5, size=(60, 1))
        assert model.score_per_observation(matching) > \
            model.score_per_observation(alien)

    def test_multivariate_sequences(self, rng):
        sequences = [rng.normal(size=(40, 4)) for _ in range(5)]
        model = GaussianHMM(n_states=3, seed=2).fit(sequences)
        assert model.means_.shape == (3, 4)
        assert np.isfinite(model.score(sequences[0]))

    def test_single_state_degenerates_to_gaussian(self, rng):
        data = [rng.normal(2.0, 1.0, size=(100, 1)) for _ in range(3)]
        model = GaussianHMM(n_states=1, seed=0).fit(data)
        assert model.means_[0, 0] == pytest.approx(2.0, abs=0.2)

    def test_validation(self, rng):
        with pytest.raises(ModelError):
            GaussianHMM(n_states=0)
        with pytest.raises(ModelError):
            GaussianHMM().fit([])
        with pytest.raises(ModelError):
            GaussianHMM().fit([np.zeros((5, 2)), np.zeros((5, 3))])
        with pytest.raises(ModelError):
            GaussianHMM().score(np.zeros((5, 1)))


class TestHMMDetector:
    def test_separates_regimes(self, rng):
        good = [rng.normal(0.0, 1.0, size=(48, 2)) for _ in range(15)]
        failed = [rng.normal(3.0, 1.0, size=(48, 2)) for _ in range(15)]
        detector = HMMDetector(n_states=2, seed=3).fit(good, failed)
        assert detector.flag(rng.normal(3.0, 1.0, size=(48, 2)))
        assert not detector.flag(rng.normal(0.0, 1.0, size=(48, 2)))

    def test_margin_raises_the_bar(self, rng):
        good = [rng.normal(0.0, 1.0, size=(48, 1)) for _ in range(10)]
        failed = [rng.normal(1.0, 1.0, size=(48, 1)) for _ in range(10)]
        lax = HMMDetector(n_states=2, margin=-5.0, seed=3).fit(good, failed)
        strict = HMMDetector(n_states=2, margin=5.0, seed=3).fit(good, failed)
        probe = rng.normal(0.5, 1.0, size=(48, 1))
        assert lax.flag(probe)
        assert not strict.flag(probe)

    def test_needs_both_classes(self, rng):
        with pytest.raises(ModelError):
            HMMDetector().fit([], [np.zeros((5, 1))])
        with pytest.raises(ModelError):
            HMMDetector().flag(np.zeros((5, 1)))
