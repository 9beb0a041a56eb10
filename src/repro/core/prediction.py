"""Degradation prediction with regression trees (Section V-B, Table III).

Per failure group, the training protocol is the paper's:

* every health sample of the group's failed drives gets a target value
  from the group's canonical signature (Eq. 3/4/6) at its lag before
  failure, with the fixed window sizes d = 12 / 380 / 24 and saturation
  at the good-state target 1.0;
* good-drive samples — ten times as many as the failed samples — are
  mixed in with target 1.0;
* samples are placed randomly into a 70% training / 30% test partition;
* a regression tree minimizing within-node squared error (Eq. 8) is
  trained and scored by RMSE and by the error rate (RMSE over the target
  range, which spans 2 from -1 to 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.signature_models import (
    PREDICTION_WINDOW_BY_TYPE,
    prediction_target,
)
from repro.core.taxonomy import FailureType
from repro.data.splits import train_test_split
from repro.errors import ReproError
from repro.ml.metrics import rmse
from repro.ml.tree import RegressionTree
from repro.obs.observer import PipelineObserver, resolve_observer

if TYPE_CHECKING:  # pragma: no cover - offline layer, types only
    from repro.core.categorize import CategorizationResult
    from repro.data.dataset import DiskDataset

#: Target range of the degradation values, used for the error rate: the
#: paper's percentages are RMSE / 2 (targets span [-1, 1]).
TARGET_RANGE = 2.0

#: Good-to-failed sample mixing ratio of the paper's protocol.
GOOD_SAMPLE_MULTIPLIER = 10


@dataclass(frozen=True, slots=True)
class PredictionReport:
    """Table III row: degradation-prediction quality for one group."""

    failure_type: FailureType
    window: int
    rmse: float
    error_rate: float
    n_train: int
    n_test: int
    tree_depth: int
    tree_leaves: int
    feature_importances: dict[str, float]


@dataclass(frozen=True, slots=True)
class GroupTrainingSet:
    """Assembled samples for one group's predictor."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]


class DegradationPredictor:
    """Train and evaluate per-group degradation predictors.

    Parameters
    ----------
    max_depth, min_samples_leaf:
        Regression-tree growth limits.
    train_fraction:
        Training share of the random split (paper: 0.7).
    seed:
        Seed for sampling good drives and splitting.
    observer:
        Telemetry sink for spans and metrics (default: no-op).
    """

    def __init__(self, *, max_depth: int = 8, min_samples_leaf: int = 10,
                 train_fraction: float = 0.7, seed: int = 17,
                 observer: PipelineObserver | None = None) -> None:
        self._max_depth = max_depth
        self._min_samples_leaf = min_samples_leaf
        self._train_fraction = train_fraction
        self._seed = seed
        self._observer = resolve_observer(observer)
        self.trees_: dict[FailureType, RegressionTree] = {}

    def build_training_set(self, dataset: DiskDataset,
                           categorization: CategorizationResult,
                           failure_type: FailureType, *,
                           window: int | None = None) -> GroupTrainingSet:
        """Assemble the mixed failed/good sample set for one group."""
        serials = categorization.serials_of_type(failure_type)
        if not serials:
            raise ReproError(f"no drives categorized as {failure_type}")
        if window is None:
            window = PREDICTION_WINDOW_BY_TYPE[failure_type]

        failed_features = []
        failed_targets = []
        for serial in serials:
            profile = dataset.get(serial)
            lags = profile.hours_before_failure()
            failed_features.append(profile.matrix)
            failed_targets.append(
                prediction_target(failure_type, lags, window)
            )
        features_failed = np.vstack(failed_features)
        targets_failed = np.concatenate(failed_targets)

        rng = np.random.default_rng(self._seed)
        good_matrix = np.vstack(
            [profile.matrix for profile in dataset.good_profiles]
        )
        n_good = min(good_matrix.shape[0],
                     GOOD_SAMPLE_MULTIPLIER * features_failed.shape[0])
        if n_good == 0:
            raise ReproError("dataset has no good-drive samples")
        chosen = rng.choice(good_matrix.shape[0], size=n_good, replace=False)
        features = np.vstack([features_failed, good_matrix[chosen]])
        targets = np.concatenate(
            [targets_failed, np.ones(n_good, dtype=np.float64)]
        )
        return GroupTrainingSet(
            features=features,
            targets=targets,
            feature_names=dataset.attributes,
        )

    def evaluate_group(self, dataset: DiskDataset,
                       categorization: CategorizationResult,
                       failure_type: FailureType, *,
                       window: int | None = None) -> PredictionReport:
        """Train on the 70% split, score on the 30% split."""
        obs = self._observer
        if window is None:
            window = PREDICTION_WINDOW_BY_TYPE[failure_type]
        with obs.span("predict-group", group=failure_type.name,
                      window=window):
            training_set = self.build_training_set(
                dataset, categorization, failure_type, window=window
            )
            split = train_test_split(
                training_set.targets.shape[0],
                train_fraction=self._train_fraction,
                rng=np.random.default_rng(self._seed),
            )
            x_train, x_test, y_train, y_test = split.select(
                training_set.features, training_set.targets
            )
            tree = RegressionTree(
                max_depth=self._max_depth,
                min_samples_leaf=self._min_samples_leaf,
            ).fit(x_train, y_train, feature_names=training_set.feature_names)
            self.trees_[failure_type] = tree
            predictions = tree.predict(x_test)
            model_rmse = rmse(y_test, predictions)
        obs.count("prediction_samples", training_set.targets.shape[0])
        obs.observe("prediction_rmse", model_rmse)
        importances = dict(
            zip(training_set.feature_names,
                (float(v) for v in tree.feature_importances()))
        )
        return PredictionReport(
            failure_type=failure_type,
            window=window,
            rmse=model_rmse,
            error_rate=model_rmse / TARGET_RANGE,
            n_train=split.train_indices.shape[0],
            n_test=split.test_indices.shape[0],
            tree_depth=tree.depth(),
            tree_leaves=tree.n_leaves(),
            feature_importances=importances,
        )

    def evaluate_all(self, dataset: DiskDataset,
                     categorization: CategorizationResult,
                     ) -> dict[FailureType, PredictionReport]:
        """Table III: one report per failure group."""
        return {
            failure_type: self.evaluate_group(
                dataset, categorization, failure_type
            )
            for failure_type in FailureType
        }

    def tree_for(self, failure_type: FailureType) -> RegressionTree:
        """The fitted tree of a group (after evaluation) — Figure 13."""
        try:
            return self.trees_[failure_type]
        except KeyError:
            raise ReproError(
                f"no tree trained for {failure_type}; run evaluate first"
            ) from None
