"""Gaussian hidden Markov models — the HMM prediction baseline.

The paper's Section II-C lists "Markov Models [29], [8]" (Zhao et al.,
Eckart et al.) among the proposed disk-failure predictors.  This module
implements the standard machinery: a diagonal-covariance Gaussian HMM
trained with Baum-Welch (log-space forward-backward, so short noisy
SMART windows cannot underflow), and a two-model likelihood-ratio
detector — one HMM fit on healthy windows, one on pre-failure windows —
matching how the cited work frames the problem.

The forward/backward recursions are batched: sequences of equal length
are stacked into one (batch, time, states) array and each time step
advances every sequence with a single ``logsumexp`` over the transition
axis, so an EM step over hundreds of SMART windows costs ``max(T)``
numpy dispatches instead of ``sum(T)``.  EM statistics are still
accumulated per sequence in the original order, which keeps the fitted
parameters byte-identical to the one-sequence-at-a-time implementation.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from repro.errors import ConvergenceError, ModelError

_VARIANCE_FLOOR = 1.0e-6
_LOG_FLOOR = -1.0e12


class GaussianHMM:
    """Diagonal-covariance Gaussian HMM trained with Baum-Welch.

    Parameters
    ----------
    n_states:
        Hidden-state count.
    n_iter:
        Baum-Welch iteration cap.
    tol:
        Convergence threshold on the mean per-observation log-likelihood
        improvement.
    seed:
        Initialization seed (means are seeded from perturbed data
        quantiles so states start distinct).
    """

    def __init__(self, n_states: int = 3, *, n_iter: int = 50,
                 tol: float = 1.0e-4, seed: int = 0) -> None:
        if n_states < 1:
            raise ModelError("n_states must be positive")
        if n_iter < 1:
            raise ModelError("n_iter must be positive")
        self._n_states = n_states
        self._n_iter = n_iter
        self._tol = tol
        self._seed = seed
        self.start_log_: np.ndarray | None = None       # (k,)
        self.transition_log_: np.ndarray | None = None  # (k, k)
        self.means_: np.ndarray | None = None           # (k, d)
        self.variances_: np.ndarray | None = None       # (k, d)

    @property
    def is_fitted(self) -> bool:
        return self.means_ is not None

    @property
    def n_states(self) -> int:
        return self._n_states

    # -- training ---------------------------------------------------------

    def fit(self, sequences: list[np.ndarray]) -> "GaussianHMM":
        sequences = [self._validated(seq) for seq in sequences]
        if not sequences:
            raise ModelError("fit needs at least one sequence")
        n_features = sequences[0].shape[1]
        if any(seq.shape[1] != n_features for seq in sequences):
            raise ModelError("sequences disagree on feature count")
        self._initialize(sequences, n_features)

        previous = -np.inf
        total_observations = sum(seq.shape[0] for seq in sequences)
        for _ in range(self._n_iter):
            log_likelihood = self._em_step(sequences)
            per_observation = log_likelihood / total_observations
            if per_observation - previous < self._tol:
                return self
            previous = per_observation
        # Baum-Welch increases likelihood monotonically; hitting the cap
        # just means diminishing returns, not failure.
        return self

    # -- scoring ------------------------------------------------------------

    def score(self, sequence: np.ndarray) -> float:
        """Total log-likelihood of one sequence under the model."""
        self._require_fitted()
        sequence = self._validated(sequence)
        log_alpha = self._forward(self._log_emissions(sequence))
        return float(logsumexp(log_alpha[-1]))

    def score_per_observation(self, sequence: np.ndarray) -> float:
        """Length-normalized log-likelihood (comparable across windows)."""
        sequence = self._validated(sequence)
        return self.score(sequence) / sequence.shape[0]

    # -- internals -----------------------------------------------------------

    def _initialize(self, sequences: list[np.ndarray],
                    n_features: int) -> None:
        rng = np.random.default_rng(self._seed)
        stacked = np.vstack(sequences)
        quantiles = np.linspace(15.0, 85.0, self._n_states)
        means = np.percentile(stacked, quantiles, axis=0)
        spread = np.maximum(stacked.std(axis=0), 1.0e-3)
        means = means + rng.normal(0.0, 0.05, size=means.shape) * spread
        variances = np.tile(
            np.maximum(stacked.var(axis=0), _VARIANCE_FLOOR),
            (self._n_states, 1),
        )
        self.means_ = means
        self.variances_ = variances
        self.start_log_ = np.full(self._n_states,
                                  -np.log(self._n_states))
        transition = np.full((self._n_states, self._n_states),
                             0.1 / max(self._n_states - 1, 1))
        np.fill_diagonal(transition, 0.9)
        if self._n_states == 1:
            transition = np.ones((1, 1))
        self.transition_log_ = np.log(transition)

    def _em_step(self, sequences: list[np.ndarray]) -> float:
        assert (self.means_ is not None and self.variances_ is not None
                and self.start_log_ is not None
                and self.transition_log_ is not None)
        k = self._n_states
        d = self.means_.shape[1]
        start_acc = np.zeros(k)
        transition_acc = np.zeros((k, k))
        weight_acc = np.zeros(k)
        mean_acc = np.zeros((k, d))
        square_acc = np.zeros((k, d))
        total_log_likelihood = 0.0

        # E-step, batched by sequence length: every equal-length group
        # runs forward/backward as one (batch, time, states) recursion.
        n_sequences = len(sequences)
        log_likelihoods = np.empty(n_sequences, dtype=np.float64)
        gammas: list[np.ndarray | None] = [None] * n_sequences
        xi_sums: list[np.ndarray | None] = [None] * n_sequences
        for indices, batch in self._length_groups(sequences):
            log_b = self._log_emissions_batched(batch)
            log_alpha = self._forward_batched(log_b)
            log_beta = self._backward_batched(log_b)
            batch_ll = logsumexp(log_alpha[:, -1], axis=1)
            gamma = np.exp(log_alpha + log_beta - batch_ll[:, None, None])
            if batch.shape[1] > 1:
                # xi[b, t, i, j] in log space, summed over t.
                log_xi = (
                    log_alpha[:, :-1, :, None]
                    + self.transition_log_[None, None, :, :]
                    + log_b[:, 1:, None, :]
                    + log_beta[:, 1:, None, :]
                    - batch_ll[:, None, None, None]
                )
                xi = np.exp(logsumexp(log_xi, axis=1))
            for position, index in enumerate(indices):
                log_likelihoods[index] = batch_ll[position]
                gammas[index] = gamma[position]
                if batch.shape[1] > 1:
                    xi_sums[index] = xi[position]

        # Accumulate in the original sequence order so every floating-
        # point sum matches the sequential implementation exactly.
        for index, sequence in enumerate(sequences):
            gamma = gammas[index]
            assert gamma is not None
            total_log_likelihood += float(log_likelihoods[index])
            start_acc += gamma[0]
            weight_acc += gamma.sum(axis=0)
            mean_acc += gamma.T @ sequence
            square_acc += gamma.T @ (sequence ** 2)
            if xi_sums[index] is not None:
                transition_acc += xi_sums[index]

        start = start_acc / max(start_acc.sum(), 1.0e-300)
        self.start_log_ = np.log(np.maximum(start, 1.0e-300))
        row_sums = transition_acc.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            transition = np.where(row_sums > 0,
                                  transition_acc / row_sums,
                                  1.0 / k)
        self.transition_log_ = np.log(np.maximum(transition, 1.0e-300))
        weights = np.maximum(weight_acc, 1.0e-300)[:, None]
        self.means_ = mean_acc / weights
        self.variances_ = np.maximum(
            square_acc / weights - self.means_ ** 2, _VARIANCE_FLOOR
        )
        return total_log_likelihood

    def _log_emissions(self, sequence: np.ndarray) -> np.ndarray:
        return self._log_emissions_batched(sequence[None])[0]

    def _forward(self, log_b: np.ndarray) -> np.ndarray:
        return self._forward_batched(log_b[None])[0]

    def _log_emissions_batched(self, batch: np.ndarray) -> np.ndarray:
        """Log emission densities for a (batch, time, features) stack."""
        assert self.means_ is not None and self.variances_ is not None
        deltas = batch[:, :, None, :] - self.means_[None, None, :, :]
        log_b = -0.5 * np.sum(
            deltas ** 2 / self.variances_[None, None, :, :]
            + np.log(2.0 * np.pi * self.variances_[None, None, :, :]),
            axis=3,
        )
        return np.maximum(log_b, _LOG_FLOOR)

    def _forward_batched(self, log_b: np.ndarray) -> np.ndarray:
        """Forward recursion over a (batch, time, states) stack.

        Each step advances every sequence in the batch with one
        ``logsumexp`` over the transition axis.
        """
        assert self.start_log_ is not None and self.transition_log_ is not None
        n_steps = log_b.shape[1]
        log_alpha = np.empty_like(log_b)
        log_alpha[:, 0] = self.start_log_ + log_b[:, 0]
        for t in range(1, n_steps):
            log_alpha[:, t] = log_b[:, t] + logsumexp(
                log_alpha[:, t - 1, :, None] + self.transition_log_[None, :, :],
                axis=1,
            )
        return log_alpha

    def _backward_batched(self, log_b: np.ndarray) -> np.ndarray:
        assert self.transition_log_ is not None
        n_steps = log_b.shape[1]
        log_beta = np.zeros_like(log_b)
        for t in range(n_steps - 2, -1, -1):
            log_beta[:, t] = logsumexp(
                self.transition_log_[None, :, :]
                + log_b[:, t + 1, None, :]
                + log_beta[:, t + 1, None, :],
                axis=2,
            )
        return log_beta

    @staticmethod
    def _length_groups(sequences: list[np.ndarray]):
        """Yield (original indices, stacked batch) per distinct length."""
        groups: dict[int, list[int]] = {}
        for index, sequence in enumerate(sequences):
            groups.setdefault(sequence.shape[0], []).append(index)
        for indices in groups.values():
            yield indices, np.stack([sequences[i] for i in indices])

    @staticmethod
    def _validated(sequence: np.ndarray) -> np.ndarray:
        sequence = np.asarray(sequence, dtype=np.float64)
        if sequence.ndim == 1:
            sequence = sequence.reshape(-1, 1)
        if sequence.ndim != 2 or sequence.shape[0] == 0:
            raise ModelError("sequences must be non-empty 2-D arrays")
        return sequence

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ModelError("GaussianHMM used before fit()")


class HMMDetector:
    """Two-model likelihood-ratio failure detector (Zhao et al. framing).

    One HMM models healthy observation windows, a second models
    pre-failure windows; a drive is flagged when the failed-model
    likelihood of its window beats the healthy-model likelihood by the
    configured margin (per observation, so window lengths cancel).
    """

    def __init__(self, *, n_states: int = 3, margin: float = 0.0,
                 seed: int = 0) -> None:
        self._margin = margin
        self._good_model = GaussianHMM(n_states, seed=seed)
        self._failed_model = GaussianHMM(n_states, seed=seed + 1)

    @property
    def is_fitted(self) -> bool:
        return self._good_model.is_fitted and self._failed_model.is_fitted

    def fit(self, good_windows: list[np.ndarray],
            failed_windows: list[np.ndarray]) -> "HMMDetector":
        if not good_windows or not failed_windows:
            raise ModelError("need both healthy and pre-failure windows")
        self._good_model.fit(good_windows)
        self._failed_model.fit(failed_windows)
        return self

    def log_likelihood_ratio(self, window: np.ndarray) -> float:
        """Per-observation log-likelihood ratio (failed minus healthy)."""
        if not self.is_fitted:
            raise ModelError("HMMDetector used before fit()")
        return (self._failed_model.score_per_observation(window)
                - self._good_model.score_per_observation(window))

    def flag(self, window: np.ndarray) -> bool:
        return self.log_likelihood_ratio(window) > self._margin



# Re-exported for symmetry with the other baselines.
__all__ = ["GaussianHMM", "HMMDetector", "ConvergenceError"]
