"""Online degradation monitoring — the paper's proposed middleware.

Section VI's future work plans "a middleware software that will enhance
storage reliability" on top of the degradation signatures.  This module
is that middleware in library form: a :class:`DegradationMonitor` wraps
the trained per-group regression trees and consumes hourly SMART records
drive by drive, keeping each drive's last level and emitting
:class:`DegradationAlert` events when a drive's estimated degradation
stage crosses the configured thresholds.

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

import numpy as np

from repro.core.columnar import AlertBlock, ColumnStateStore
from repro.core.prediction import DegradationPredictor
from repro.core.rescue import RescueEstimate, rescue_estimate
from repro.core.taxonomy import FailureType
from repro.errors import ReproError
from repro.smart.normalization import MinMaxNormalizer

#: Default stage thresholds of the monitor's severity ladder; shared
#: with the serving layer so an exported bundle reproduces the monitor
#: configuration exactly.
DEFAULT_WATCH_THRESHOLD = -0.05
DEFAULT_CRITICAL_THRESHOLD = -0.5
DEFAULT_HISTORY_HOURS = 48


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


class DriveStateStore:
    """Keyed per-drive monitoring state: last levels and retained counts.

    All mutable state a streaming scorer accumulates lives here, keyed
    by drive serial: the drive's most recent :class:`AlertLevel`, its
    last-seen hour (the eviction clock) and how many records it has
    retained, capped at ``history_hours``.  Extracting it from the
    monitor makes the state an explicit, snapshottable object — the
    sharding seam the serving daemon partitions across worker processes
    (each shard owns one store, and a drive's serial hashes to exactly
    one shard, so no state is ever split or shared).

    The store is a passive container: it never computes a verdict, so
    any partitioning of drives across stores leaves every verdict
    byte-identical to a single-store run.
    """

    def __init__(self, history_hours: int = DEFAULT_HISTORY_HOURS) -> None:
        if history_hours < 1:
            raise ReproError("history_hours must be positive")
        self._history_hours = history_hours
        self._retained: dict[str, int] = {}
        self._levels: dict[str, AlertLevel] = {}
        self._last_hours: dict[str, int] = {}
        self._drives_evicted = 0

    @property
    def history_hours(self) -> int:
        """Records retained per drive (the cap on ``retained``)."""
        return self._history_hours

    @property
    def n_tracked(self) -> int:
        """Drives with live state (O(1))."""
        return len(self._retained)

    @property
    def drives_evicted(self) -> int:
        """Total drives dropped by :meth:`evict_idle` since creation."""
        return self._drives_evicted

    def record(self, serial: str, normalized: np.ndarray,
               level: AlertLevel, hour: int | None = None) -> None:
        """Count one normalized record and set the drive's level.

        ``hour`` feeds the idle-eviction clock; omitting it leaves the
        drive's last-seen hour unchanged (such drives only age out
        relative to hours they did report).
        """
        self._retained[serial] = min(self._retained.get(serial, 0) + 1,
                                     self._history_hours)
        self._levels[serial] = level
        if hour is not None and hour > self._last_hours.get(
                serial, -(2 ** 63)):
            self._last_hours[serial] = hour

    def evict_idle(self, before_hour: int) -> int:
        """Drop every drive last observed strictly before ``before_hour``.

        The dict-backed twin of
        :meth:`repro.core.columnar.ColumnStateStore.evict_idle`, kept
        semantically identical so the scalar and columnar paths stay
        interchangeable: evicted drives vanish from the tracked set and
        a reappearing serial starts from a fresh, empty count.
        """
        evicted = [serial for serial in self._retained
                   if self._last_hours.get(serial, -(2 ** 63)) < before_hour]
        for serial in evicted:
            del self._retained[serial]
            self._levels.pop(serial, None)
            self._last_hours.pop(serial, None)
        self._drives_evicted += len(evicted)
        return len(evicted)

    def level_of(self, serial: str) -> AlertLevel:
        """Last recorded level for a drive (HEALTHY if never seen)."""
        return self._levels.get(serial, AlertLevel.HEALTHY)

    def drives_at(self, level: AlertLevel) -> list[str]:
        """Serials currently at exactly ``level``."""
        return sorted(s for s, l in self._levels.items() if l is level)

    def serials(self) -> list[str]:
        """All tracked serials, sorted."""
        return sorted(self._retained)

    def snapshot(self) -> dict:
        """JSON-clean summary of every tracked drive, sorted by serial.

        The drain/shutdown artifact: per drive, the last severity level
        and how many records it retains.  Deterministic for a given
        state, so snapshots diff cleanly across runs.
        """
        return {
            "history_hours": self._history_hours,
            "n_tracked": self.n_tracked,
            "drives_evicted": self._drives_evicted,
            "drives": {
                serial: {
                    "level": self._levels[serial].name,
                    "retained": retained,
                }
                for serial, retained in sorted(self._retained.items())
            },
        }

    def dump_state(self) -> dict:
        """Full, JSON-clean state for crash recovery (exact round-trip).

        The dict-backed twin of
        :meth:`repro.core.columnar.ColumnStateStore.dump_state`
        (schema 2): per drive the level code, last-seen hour and
        retained count, plus the eviction counter.  The ``"deque"``
        kind tag predates the dict layout and stays so older dumps
        restore.
        """
        sentinel = -(2 ** 63)
        return {
            "schema": 2,
            "kind": "deque",
            "history_hours": self._history_hours,
            "drives_evicted": self._drives_evicted,
            "drives": {
                serial: {
                    "level": self._levels[serial].value,
                    "last_hour": self._last_hours.get(serial, sentinel),
                    "retained": retained,
                }
                for serial, retained in sorted(self._retained.items())
            },
        }

    def restore(self, payload: dict) -> None:
        """Rebuild this store in place from a :meth:`dump_state` payload.

        Discards all current state; the restored store behaves
        identically to the dumped one through every public method.  A
        schema-1 dump restores too (its window length is the retained
        count).
        """
        try:
            if payload.get("kind") != "deque":
                raise ReproError(
                    f"cannot restore a DriveStateStore from a "
                    f"{payload.get('kind')!r} state dump")
            if int(payload["history_hours"]) != self._history_hours:
                raise ReproError(
                    f"state dump retains {payload['history_hours']} hours, "
                    f"store was built for {self._history_hours}")
            drives = payload["drives"]
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(
                f"malformed state dump for DriveStateStore: {error}"
            ) from error
        sentinel = -(2 ** 63)
        self._retained = {}
        self._levels = {}
        self._last_hours = {}
        self._drives_evicted = int(payload.get("drives_evicted", 0))
        for serial, entry in drives.items():
            self._retained[serial] = int(
                entry["retained"] if "retained" in entry
                else len(entry["window"]))
            self._levels[serial] = AlertLevel(int(entry["level"]))
            last_hour = int(entry["last_hour"])
            if last_hour != sentinel:
                self._last_hours[serial] = last_hour

    @classmethod
    def from_snapshot(cls, payload: dict) -> "DriveStateStore":
        """Build a fresh store from a :meth:`dump_state` payload."""
        try:
            history_hours = int(payload["history_hours"])
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(
                f"malformed state dump for DriveStateStore: {error}"
            ) from error
        store = cls(history_hours)
        store.restore(payload)
        return store


class DegradationMonitor:
    """Streaming degradation scorer over trained group predictors.

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
    history_hours:
        Cap on the records counted as retained per drive (the trees act
        on single records; no record values are kept).
    state:
        Optional externally-owned state store — the dict-backed
        :class:`DriveStateStore` or the struct-of-arrays
        :class:`~repro.core.columnar.ColumnStateStore`; when given its
        ``history_hours`` must match.  The serving layer passes its own
        store so per-drive state can be snapshotted and sharded; by
        default the monitor creates a private dict-backed one.
    """

    def __init__(self, predictor: DegradationPredictor,
                 normalizer: MinMaxNormalizer, *,
                 watch_threshold: float = DEFAULT_WATCH_THRESHOLD,
                 critical_threshold: float = DEFAULT_CRITICAL_THRESHOLD,
                 history_hours: int = DEFAULT_HISTORY_HOURS,
                 state: DriveStateStore | ColumnStateStore | None = None,
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
        if history_hours < 1:
            raise ReproError("history_hours must be positive")
        if state is not None and state.history_hours != history_hours:
            raise ReproError(
                f"state store retains {state.history_hours} hours but the "
                f"monitor was configured for {history_hours}"
            )
        self._predictor = predictor
        self._normalizer = normalizer
        self._watch = watch_threshold
        self._critical = critical_threshold
        self._history_hours = history_hours
        self._state = state if state is not None \
            else DriveStateStore(history_hours)

    # -- streaming API ----------------------------------------------------

    def observe(self, serial: str, hour: int,
                record: np.ndarray) -> DegradationAlert:
        """Ingest one hourly record and return the current verdict.

        ``record`` is a raw (unnormalized) Table I attribute vector.
        """
        record = np.asarray(record, dtype=np.float64).ravel()
        normalized = self._normalizer.transform(record.reshape(1, -1))[0]

        estimates: dict[FailureType, RescueEstimate] = {}
        for failure_type in FailureType:
            tree = self._predictor.tree_for(failure_type)
            stage = float(tree.predict(normalized.reshape(1, -1))[0])
            estimates[failure_type] = rescue_estimate(stage, failure_type)
        likely_type = min(estimates,
                          key=lambda t: estimates[t].stage)
        stage = estimates[likely_type].stage
        level = self._level_for(stage)
        self._state.record(serial, normalized, level, hour=int(hour))
        return DegradationAlert(
            serial=serial,
            hour=hour,
            level=level,
            stage=stage,
            likely_type=likely_type,
            estimates=estimates,
        )

    def observe_many(self, samples) -> list[DegradationAlert]:
        """Ingest a batch of ``(serial, hour, raw_record)`` samples.

        Semantically identical to calling :meth:`observe` once per
        sample, in order — same alerts, same per-drive retained-count and
        level state — but the normalization and the per-group tree
        evaluations run once over the whole batch instead of once per
        sample.  Every arithmetic step is element-wise, so the batched
        path produces bit-identical stages (and therefore byte-identical
        serialized verdicts) to the per-sample path; the streaming
        scorer's ``push_many`` fast path and its throughput numbers rest
        on this method.
        """
        samples = list(samples)
        if not samples:
            return []
        raw = np.vstack([
            np.asarray(record, dtype=np.float64).ravel()
            for _, _, record in samples
        ])
        return self.observe_block(
            [serial for serial, _, _ in samples],
            [hour for _, hour, _ in samples],
            raw,
        )

    def observe_block(self, serials, hours,
                      matrix: np.ndarray) -> list[DegradationAlert]:
        """Ingest a columnar batch: serial list, hour list, raw matrix.

        The zero-copy twin of :meth:`observe_many` for callers that
        already hold their samples column-wise.  Row ``i`` of ``matrix``
        is the raw record of ``serials[i]`` at ``hours[i]``; alerts come
        back in row order and are bit-identical to per-sample
        :meth:`observe` calls.  Internally this is
        :meth:`observe_columns` plus full alert materialization —
        callers that can consume the struct-of-arrays
        :class:`~repro.core.columnar.AlertBlock` directly should, and
        skip the per-sample objects entirely.
        """
        return self.observe_columns(serials, hours, matrix).alerts()

    def observe_columns(self, serials, hours,
                        matrix: np.ndarray) -> AlertBlock:
        """Score one columnar batch as a single set of array ops.

        The streaming hot path: normalization, the per-group tree
        evaluations and the severity thresholds each run once over the
        whole batch (the rescue-clock inversion stays scalar, computed
        lazily per materialized alert so its libm rounding is exactly
        the per-sample path's), and the per-drive
        state updates with a few fancy-indexed writes when the store
        is a :class:`~repro.core.columnar.ColumnStateStore` (the scalar
        per-sample loop remains only for dict-backed stores).
        Nothing is allocated per healthy drive; the returned
        :class:`~repro.core.columnar.AlertBlock` materializes
        :class:`DegradationAlert` objects lazily and bit-identically to
        :meth:`observe`.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ReproError(
                f"observe_block needs a 2-D record matrix, got "
                f"{matrix.ndim}-D"
            )
        if not (len(serials) == len(hours) == matrix.shape[0]):
            raise ReproError(
                f"observe_block column lengths disagree: {len(serials)} "
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

        if isinstance(self._state, ColumnStateStore):
            self._state.record_block(serials, normalized, level_codes,
                                     hours)
        else:
            for position, serial in enumerate(serials):
                self._state.record(
                    serial, normalized[position],
                    AlertLevel(int(level_codes[position])),
                    hour=int(hours[position]))
        return AlertBlock(serials, hours, stages,
                          likely_indices, level_codes, types)

    def observe_profile(self, profile) -> list[DegradationAlert]:
        """Replay a :class:`HealthProfile` through the monitor."""
        return [
            self.observe(profile.serial, int(hour), row)
            for hour, row in zip(profile.hours, profile.matrix)
        ]

    def replay(self, profile) -> list[DegradationAlert]:
        """Offline replay of one profile — alias of :meth:`observe_profile`.

        The serving layer's golden contract is stated against this
        method: a :class:`~repro.serve.scorer.StreamScorer` fed the same
        samples emits byte-identical verdicts.
        """
        return self.observe_profile(profile)

    # -- configuration ------------------------------------------------------

    @property
    def watch_threshold(self) -> float:
        """Stage at or below which a drive enters WATCH."""
        return self._watch

    @property
    def critical_threshold(self) -> float:
        """Stage at or below which a drive enters CRITICAL."""
        return self._critical

    @property
    def history_hours(self) -> int:
        """Records retained per drive (the cap on ``retained``)."""
        return self._history_hours

    # -- fleet state --------------------------------------------------------

    @property
    def state(self) -> DriveStateStore | ColumnStateStore:
        """The keyed per-drive state store backing this monitor.

        Exposed so the serving layer can snapshot or relocate a shard's
        state without reaching into monitor internals.
        """
        return self._state

    @property
    def n_tracked(self) -> int:
        """Drives with live state (O(1))."""
        return self._state.n_tracked

    def level_of(self, serial: str) -> AlertLevel:
        """Last verdict for a drive (HEALTHY if never observed)."""
        return self._state.level_of(serial)

    def drives_at(self, level: AlertLevel) -> list[str]:
        """Serials currently at exactly ``level``."""
        return self._state.drives_at(level)

    def _level_for(self, stage: float) -> AlertLevel:
        if stage <= self._critical:
            return AlertLevel.CRITICAL
        if stage <= self._watch:
            return AlertLevel.WATCH
        return AlertLevel.HEALTHY
