"""Struct-of-arrays drive state and block verdicts for the hot path.

At fleet scale (millions of drives, hourly ticks) per-drive Python
objects *are* the cost of streaming scoring, so verdicts and drive
state are kept column-wise:

* :class:`ColumnStateStore` — one ``int8`` level column plus a
  serial→row map, kept by the serving scorer
  (:class:`~repro.serve.scorer.StreamScorer`); the verdict kernel
  never reads or writes it.  A new drive takes the next row and the
  column grows by doubling, so a drive costs a byte of column plus its
  dict entry and the healthy path allocates nothing per drive.
* :class:`AlertBlock` — the struct-of-arrays result the stateless
  kernel (:meth:`~repro.core.monitor.DegradationMonitor.observe_columns`)
  returns for one tick of samples: the per-type stage matrix,
  likely-type indices and level codes.  Materializing
  :class:`~repro.core.monitor.DegradationAlert` objects is deferred to
  :meth:`AlertBlock.alerts` / :meth:`AlertBlock.alert_at`, so callers
  that only need counts (or only the rare alerting rows) never pay for
  per-sample Python objects.

Both classes are byte-identity preserving: ``record_block`` leaves the
store exactly as the sequential ``record`` loop would, and
``AlertBlock.alerts()`` equals the scalar ``observe`` loop bit for bit
(pinned by ``tests/test_core_columnar.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.monitor import AlertLevel, DegradationAlert

#: Rows allocated on a store's first write; growth doubles from here.
DEFAULT_INITIAL_ROWS = 256


class ColumnStateStore:
    """Keyed per-drive monitoring state: each drive's last severity level.

    The scalar surface (``level_of`` / ``drives_at`` / ``serials`` /
    ``snapshot``) reads a drive's level back; ``record`` is the
    sequential reference for :meth:`record_block`, which updates every
    drive touched by a tick with one fancy-indexed write.

    Layout
    ------
    Row ``r`` is one drive and ``levels[r]`` its last severity code;
    ``serial -> row`` lives in one dict.  The paper's monitor scores
    each record on its own (§IV-D), so no verdict reads a drive's
    history and the store keeps none: a drive costs one byte of column
    plus its dict entry.  A new drive takes the next row and the column
    grows by doubling.

    The store is a passive container — it never computes a verdict — so
    any partitioning of drives across stores leaves every verdict
    byte-identical to a single-store run.
    """

    def __init__(self, history_hours: int, *,
                 initial_rows: int = DEFAULT_INITIAL_ROWS) -> None:
        if history_hours < 1:
            raise ReproError("history_hours must be positive")
        if initial_rows < 1:
            raise ReproError("initial_rows must be positive")
        self._history_hours = int(history_hours)
        self._initial_rows = int(initial_rows)
        self._n_attributes: int | None = None
        self._levels = np.zeros(0, dtype=np.int8)
        self._rows: dict[str, int] = {}

    # -- scalar surface ---------------------------------------------------

    @property
    def history_hours(self) -> int:
        """The bundle's history setting; a state dump must match it."""
        return self._history_hours

    @property
    def n_tracked(self) -> int:
        """Drives with live state (O(1))."""
        return len(self._rows)

    @property
    def capacity(self) -> int:
        """Allocated rows of the level column (it doubles when full)."""
        return len(self._levels)

    def record(self, serial: str, normalized: np.ndarray,
               level: "AlertLevel") -> None:
        """Set the level of the drive a normalized record came from."""
        row = self._rows_for_block([serial], np.asarray(normalized).size)[0]
        self._levels[row] = level.value

    def level_of(self, serial: str) -> "AlertLevel":
        """Last recorded level for a drive (HEALTHY if never seen)."""
        from repro.core.monitor import AlertLevel
        row = self._rows.get(serial)
        if row is None:
            return AlertLevel.HEALTHY
        return AlertLevel(int(self._levels[row]))

    def drives_at(self, level: "AlertLevel") -> list[str]:
        """Serials currently at exactly ``level``."""
        return sorted(serial for serial, row in self._rows.items()
                      if int(self._levels[row]) == level.value)

    def serials(self) -> list[str]:
        """All tracked serials, sorted."""
        return sorted(self._rows)

    def snapshot(self) -> dict:
        """JSON-clean summary of every tracked drive, sorted by serial.

        The drain/shutdown artifact: each drive's last severity level
        by name.  Deterministic for a given state, so snapshots diff
        cleanly across runs.
        """
        from repro.core.monitor import AlertLevel
        levels = self._levels.tolist()
        return {
            "history_hours": self._history_hours,
            "n_tracked": self.n_tracked,
            "drives": {serial: {"level": AlertLevel(levels[row]).name}
                       for serial, row in sorted(self._rows.items())},
        }

    def dump_state(self) -> dict:
        """Full, JSON-clean state for crash recovery (exact round-trip).

        Schema 3: the store's identity (``history_hours`` and record
        width) and each drive's level code, sorted by serial — a few
        bytes per drive.  Dumps of a store and of its restored twin are
        identical, as is every subsequent verdict and state transition.
        """
        levels = self._levels.tolist()
        return {
            "schema": 3,
            "kind": "columnar",
            "history_hours": self._history_hours,
            "n_attributes": self._n_attributes,
            "drives": {serial: {"level": levels[row]}
                       for serial, row in sorted(self._rows.items())},
        }

    def restore(self, payload: dict) -> None:
        """Rebuild this store in place from a :meth:`dump_state` payload.

        Discards all current state and reads each drive's ``level``
        only, so the dumps of older schemas restore too: schema 1 (each
        drive's record window) and schema 2 (each drive's row, clock
        and record count).  The dump is checked before anything is
        replaced: it must be a ``columnar`` dump for this store's
        ``history_hours`` and every level must be an ``AlertLevel``
        code, else :class:`~repro.errors.ReproError` names the drive.
        """
        from repro.core.monitor import AlertLevel
        try:
            if payload.get("kind") != "columnar":
                raise ReproError(
                    f"cannot restore a ColumnStateStore from a "
                    f"{payload.get('kind')!r} state dump")
            if int(payload["history_hours"]) != self._history_hours:
                raise ReproError(
                    f"state dump retains {payload['history_hours']} hours, "
                    f"store was built for {self._history_hours}")
            n_attributes = payload["n_attributes"]
            if n_attributes is not None:
                n_attributes = int(n_attributes)
            levels = {str(serial): int(entry["level"])
                      for serial, entry in payload["drives"].items()}
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ReproError(
                f"malformed state dump for ColumnStateStore: {error}"
            ) from error
        codes = {level.value for level in AlertLevel}
        for serial, level in levels.items():
            if level not in codes:
                raise ReproError(
                    f"state dump drive {serial!r} has level {level}, not "
                    f"an AlertLevel code")
        serials = sorted(levels)
        self._n_attributes = n_attributes
        self._rows = {serial: row for row, serial in enumerate(serials)}
        self._levels = np.array([levels[serial] for serial in serials],
                                dtype=np.int8)

    # -- columnar surface -------------------------------------------------

    def record_block(self, serials: Sequence[str], normalized: np.ndarray,
                     level_codes: np.ndarray) -> None:
        """Apply one tick of levels to every touched drive at once.

        Row ``i`` of ``normalized`` sets the level of ``serials[i]`` —
        semantically identical to calling :meth:`record` once per row,
        in order, including when a serial repeats within the block (the
        drive keeps the level of its last row).  One row-index gather
        and one fancy-indexed write; nothing is allocated per drive.
        """
        n = len(serials)
        if n == 0:
            return
        rows = self._rows_for_block(serials, np.shape(normalized)[1])
        # Each drive's last row in block order sets its level.
        unique_rows, first_from_end = np.unique(rows[::-1],
                                                return_index=True)
        self._levels[unique_rows] = \
            np.asarray(level_codes)[n - 1 - first_from_end]

    # -- internals --------------------------------------------------------

    def _rows_for_block(self, serials: Sequence[str],
                        n_attributes: int) -> np.ndarray:
        """Row index per sample, assigning rows to unseen serials.

        The first write fixes the record width; later writes must
        match it.  One dict lookup per sample, in C; unseen serials
        take the next rows in order of first appearance, exactly as a
        per-sample loop would assign them, and the level column doubles
        whenever it runs out.
        """
        if self._n_attributes is None:
            self._n_attributes = int(n_attributes)
        elif n_attributes != self._n_attributes:
            raise ReproError(
                f"record has {n_attributes} attributes, store was laid "
                f"out for {self._n_attributes}")
        rows = list(map(self._rows.get, serials))
        if None in rows:
            for serial in dict.fromkeys(
                    [serial for serial, row in zip(serials, rows)
                     if row is None]):
                self._rows[serial] = len(self._rows)
            if len(self._rows) > self.capacity:
                capacity = max(self.capacity, self._initial_rows)
                while capacity < len(self._rows):
                    capacity *= 2
                levels = np.zeros(capacity, dtype=np.int8)
                levels[:self.capacity] = self._levels
                self._levels = levels
            rows = list(map(self._rows.__getitem__, serials))
        return np.asarray(rows, dtype=np.int64)


class AlertBlock:
    """Struct-of-arrays verdicts for one scored block of samples.

    Holds the vectorized kernel's raw outputs — a per-failure-type stage
    matrix plus the argmin type index and the severity code per sample —
    without materializing any per-sample Python object.  :meth:`alerts`
    (all rows) and :meth:`alert_at` (one row, used for the rare alerting
    drives) rebuild :class:`~repro.core.monitor.DegradationAlert` values
    bit-identical to the scalar ``observe`` path: the rescue-clock
    inversion deliberately runs per materialized row through the scalar
    :func:`~repro.core.rescue.rescue_estimate` (numpy's vectorized
    ``pow`` is allowed to differ from libm by an ulp, so a precomputed
    remaining-hours matrix could not honor byte-identity).
    """

    __slots__ = ("serials", "hours", "stages",
                 "likely_indices", "level_codes", "types")

    def __init__(self, serials: Sequence[str], hours: np.ndarray,
                 stages: np.ndarray,
                 likely_indices: np.ndarray, level_codes: np.ndarray,
                 types: tuple) -> None:
        self.serials = list(serials)
        self.hours = hours
        self.stages = stages            # (n_types, n_samples)
        self.likely_indices = likely_indices
        self.level_codes = level_codes
        self.types = types

    def __len__(self) -> int:
        return len(self.serials)

    @property
    def n_alerting(self) -> int:
        """Samples whose severity sits above HEALTHY."""
        return int(np.count_nonzero(self.level_codes))

    def alerting_rows(self) -> np.ndarray:
        """Indices of the samples above HEALTHY (usually few)."""
        return np.flatnonzero(self.level_codes)

    def finite_stages(self) -> np.ndarray:
        """The likely-type stage per sample, finite entries only."""
        picked = self.stages[self.likely_indices,
                             np.arange(self.stages.shape[1])]
        return picked[np.isfinite(picked)]

    def alert_at(self, row: int) -> "DegradationAlert":
        """Materialize one row as a scalar-path-identical alert."""
        from repro.core.monitor import AlertLevel, DegradationAlert
        from repro.core.rescue import rescue_estimate
        estimates = {
            failure_type: rescue_estimate(
                float(self.stages[type_index, row]), failure_type)
            for type_index, failure_type in enumerate(self.types)
        }
        likely_type = self.types[int(self.likely_indices[row])]
        return DegradationAlert(
            serial=self.serials[row],
            hour=int(self.hours[row]),
            level=AlertLevel(int(self.level_codes[row])),
            stage=estimates[likely_type].stage,
            likely_type=likely_type,
            estimates=estimates,
        )

    def alerts(self) -> list["DegradationAlert"]:
        """Materialize every row (the compatibility slow path).

        Same alerts as ``alert_at`` over every row, but with the array
        reads hoisted to whole-column ``tolist()`` conversions — the
        per-element numpy scalar overhead dominates when a caller
        really does want all N objects.
        """
        from repro.core.monitor import AlertLevel, DegradationAlert
        from repro.core.rescue import rescue_estimate
        levels = {level.value: level for level in AlertLevel}
        stage_columns = [column.tolist() for column in self.stages]
        hours = self.hours.tolist()
        likely = self.likely_indices.tolist()
        codes = self.level_codes.tolist()
        types = self.types
        out = []
        for row, serial in enumerate(self.serials):
            estimates = {
                failure_type: rescue_estimate(stage_columns[type_index][row],
                                              failure_type)
                for type_index, failure_type in enumerate(types)
            }
            likely_type = types[likely[row]]
            out.append(DegradationAlert(
                serial=serial,
                hour=hours[row],
                level=levels[codes[row]],
                stage=estimates[likely_type].stage,
                likely_type=likely_type,
                estimates=estimates,
            ))
        return out
