"""Online degradation monitoring — the paper's proposed middleware.

Section VI's future work plans "a middleware software that will enhance
storage reliability" on top of the degradation signatures.  This module
is that middleware's verdict kernel: a :class:`DegradationMonitor` wraps
the trained per-group regression trees and maps each hourly SMART record
to a :class:`DegradationAlert` whose level says whether the estimated
degradation stage crosses the configured thresholds.  The paper's
predictor maps one health sample to a degradation stage, so a verdict
is a pure function of the models and that one record, and the monitor
keeps no per-drive state: scoring writes nothing, and the serving layer
keeps drive accounting on its own
(:class:`~repro.serve.scorer.StreamScorer`).

The monitor classifies each alerting drive into its most likely failure
type by scoring the current record with every group's tree and taking
the most pessimistic (lowest stage) verdict — an operator does not know
the failure type of a drive that has not failed yet, but the per-type
rescue clock depends on it, so the alert carries the full per-type
breakdown.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.columnar import AlertBlock
from repro.core.rescue import RescueEstimate, rescue_estimate
from repro.core.taxonomy import FailureType
from repro.errors import ReproError
from repro.smart.normalization import MinMaxNormalizer

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.prediction import DegradationPredictor

#: Default stage thresholds of the monitor's severity ladder; shared
#: with the serving layer so an exported bundle reproduces the monitor
#: configuration exactly.
DEFAULT_WATCH_THRESHOLD = -0.05
DEFAULT_CRITICAL_THRESHOLD = -0.5


@functools.total_ordering
class AlertLevel(enum.Enum):
    """Severity ladder of the monitor (totally ordered)."""

    HEALTHY = 0
    WATCH = 1      # degradation detected: stage below the watch threshold
    CRITICAL = 2   # deep degradation: imminent failure

    def __lt__(self, other: "AlertLevel") -> bool:
        if not isinstance(other, AlertLevel):
            return NotImplemented
        return self.value < other.value


@dataclass(frozen=True, slots=True)
class DegradationAlert:
    """One monitor verdict for one drive at one hour."""

    serial: str
    hour: int
    level: AlertLevel
    stage: float
    likely_type: FailureType
    estimates: dict[FailureType, RescueEstimate]

    @property
    def hours_remaining(self) -> float:
        return self.estimates[self.likely_type].hours_remaining


class DegradationMonitor:
    """Stateless degradation scorer over trained group predictors.

    Parameters
    ----------
    predictor:
        A :class:`DegradationPredictor` whose trees have been trained
        (``evaluate_all`` or ``evaluate_group`` per type).
    normalizer:
        The Eq. (1) scaler fitted on the characterization dataset;
        incoming raw records are scaled with it so the trees see the
        feature space they were trained on.
    watch_threshold / critical_threshold:
        Stage levels (in ``[-1, 1]``) triggering WATCH and CRITICAL.
    """

    def __init__(self, predictor: DegradationPredictor,
                 normalizer: MinMaxNormalizer, *,
                 watch_threshold: float = DEFAULT_WATCH_THRESHOLD,
                 critical_threshold: float = DEFAULT_CRITICAL_THRESHOLD,
                 ) -> None:
        missing = [t for t in FailureType if t not in predictor.trees_]
        if missing:
            raise ReproError(
                f"predictor has no trained tree for: "
                f"{', '.join(t.name for t in missing)}"
            )
        if not normalizer.is_fitted:
            raise ReproError("normalizer must be fitted")
        if critical_threshold >= watch_threshold:
            raise ReproError(
                "critical_threshold must sit below watch_threshold"
            )
        self._predictor = predictor
        self._normalizer = normalizer
        self._watch = watch_threshold
        self._critical = critical_threshold

    # -- streaming API ----------------------------------------------------

    def observe(self, serial: str, hour: int,
                record: np.ndarray) -> DegradationAlert:
        """Score one hourly record.

        ``record`` is a raw (unnormalized) Table I attribute vector.
        This per-sample path is the scalar reference every batched and
        served path is tested against, byte for byte: one normalizer
        call, one tree walk per failure group and the scalar rescue
        clock, with nothing vectorized to drift by an ulp.
        """
        normalized = self._normalizer.transform(
            np.asarray(record, dtype=np.float64).reshape(1, -1))

        estimates: dict[FailureType, RescueEstimate] = {}
        for failure_type in FailureType:
            tree = self._predictor.tree_for(failure_type)
            stage = float(tree.predict(normalized)[0])
            estimates[failure_type] = rescue_estimate(stage, failure_type)
        likely_type = min(estimates,
                          key=lambda t: estimates[t].stage)
        stage = estimates[likely_type].stage
        return DegradationAlert(
            serial=serial,
            hour=hour,
            level=self._level_for(stage),
            stage=stage,
            likely_type=likely_type,
            estimates=estimates,
        )

    def observe_many(self, samples) -> list[DegradationAlert]:
        """Score a batch of ``(serial, hour, raw_record)`` samples.

        Same alerts as calling :meth:`observe` once per sample, in
        order: the batch is stacked into one matrix and scored by
        :meth:`observe_columns`, then every alert is materialized.
        """
        samples = list(samples)
        if not samples:
            return []
        raw = np.vstack([
            np.asarray(record, dtype=np.float64).ravel()
            for _, _, record in samples
        ])
        return self.observe_columns(
            [serial for serial, _, _ in samples],
            [hour for _, hour, _ in samples],
            raw,
        ).alerts()

    def observe_columns(self, serials, hours,
                        matrix: np.ndarray) -> AlertBlock:
        """Score one columnar batch as a single set of array ops.

        The streaming hot path: normalization, the per-group tree
        evaluations and the severity thresholds each run once over the
        whole batch (the rescue-clock inversion stays scalar, computed
        lazily per materialized alert so its libm rounding is exactly
        the per-sample path's).  Nothing is allocated per healthy
        drive; the returned :class:`~repro.core.columnar.AlertBlock`
        materializes :class:`DegradationAlert` objects lazily and
        bit-identically to :meth:`observe`.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ReproError(
                f"observe_columns needs a 2-D record matrix, got "
                f"{matrix.ndim}-D"
            )
        if not (len(serials) == len(hours) == matrix.shape[0]):
            raise ReproError(
                f"observe_columns column lengths disagree: {len(serials)} "
                f"serials, {len(hours)} hours, {matrix.shape[0]} rows"
            )
        types = tuple(FailureType)
        hours = np.asarray(hours, dtype=np.int64)
        if matrix.shape[0] == 0:
            empty = np.empty((len(types), 0), dtype=np.float64)
            return AlertBlock([], hours, empty,
                              np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int8), types)
        normalized = self._normalizer.transform(matrix)
        # (n_types, n_samples) stage matrix, one tree evaluation per type.
        stages = np.vstack([
            self._predictor.tree_for(failure_type).predict(normalized)
            for failure_type in types
        ])
        # First minimal stage in FailureType order — exactly the tie
        # semantics of ``min`` over the insertion-ordered estimates dict.
        likely_indices = np.argmin(stages, axis=0)
        picked = stages[likely_indices, np.arange(stages.shape[1])]
        level_codes = ((picked <= self._watch).astype(np.int8)
                       + (picked <= self._critical).astype(np.int8))
        return AlertBlock(serials, hours, stages,
                          likely_indices, level_codes, types)

    def replay(self, profile) -> list[DegradationAlert]:
        """Score one profile through :meth:`observe`, in order.

        The serving layer's golden contract is stated against this
        method: a :class:`~repro.serve.scorer.StreamScorer` fed the same
        samples emits byte-identical verdicts.
        """
        return [
            self.observe(profile.serial, int(hour), row)
            for hour, row in zip(profile.hours, profile.matrix)
        ]

    def _level_for(self, stage: float) -> AlertLevel:
        if stage <= self._critical:
            return AlertLevel.CRITICAL
        if stage <= self._watch:
            return AlertLevel.WATCH
        return AlertLevel.HEALTHY
