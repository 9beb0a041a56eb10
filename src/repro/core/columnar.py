"""Struct-of-arrays drive state and block verdicts for the hot path.

At fleet scale (millions of drives, hourly ticks) per-drive Python
objects *are* the cost of streaming scoring, so the monitor's state and
results are kept column-wise:

* :class:`ColumnStateStore` — flat preallocated per-row arrays (level
  code, last hour, retained count) plus a serial→row map.  Rows are
  recycled when drives are evicted and the arrays grow by doubling, so
  a churning million-drive fleet has bounded memory and no per-drive
  allocation on the healthy path.
* :class:`AlertBlock` — the struct-of-arrays result of scoring one tick
  of samples: per-type stage and remaining-hour matrices, likely-type
  indices and level codes.  Materializing
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

#: ``last_hour`` of a row that never reported an hour.
_NO_HOUR = np.iinfo(np.int64).min


class ColumnStateStore:
    """Keyed per-drive monitoring state in struct-of-arrays layout.

    The scalar surface (``record`` / ``level_of`` / ``drives_at`` /
    ``serials`` / ``snapshot``) serves the monitor's per-sample
    reference path; ``record`` is also the sequential reference for the
    columnar surface the batched kernel uses: :meth:`record_block`
    updates every drive touched by a tick with fancy-indexed writes, and
    :meth:`evict_idle` recycles the rows of drives not seen since a
    cutoff hour.

    Layout
    ------
    Row ``r`` is one drive: ``levels[r]`` its last severity code,
    ``last_hours[r]`` the maximum hour observed (the eviction clock) and
    ``counts[r]`` how many records it has retained, capped at
    ``history_hours``.  No verdict reads record values back, so the
    store keeps none — a drive costs a few bytes, not a window of
    float64 records.  ``serial -> row`` lives in one dict; evicted rows
    go to a free list and are handed to new drives before the arrays
    grow (by doubling).

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
        self._allocate(0)
        self._rows: dict[str, int] = {}
        self._free: list[int] = []
        self._drives_evicted = 0

    # -- scalar surface ---------------------------------------------------

    @property
    def history_hours(self) -> int:
        """Records retained per drive (the cap on ``retained``)."""
        return self._history_hours

    @property
    def n_tracked(self) -> int:
        """Drives with live state (O(1))."""
        return len(self._rows)

    @property
    def drives_evicted(self) -> int:
        """Total drives recycled by :meth:`evict_idle` since creation."""
        return self._drives_evicted

    @property
    def capacity(self) -> int:
        """Allocated rows (grows by doubling, never shrinks)."""
        return len(self._counts)

    def record(self, serial: str, normalized: np.ndarray,
               level: "AlertLevel", hour: int | None = None) -> None:
        """Count one normalized record and set the drive's level."""
        normalized = np.asarray(normalized, dtype=np.float64).ravel()
        row = self._row_for(serial, normalized.shape[0])
        if self._counts[row] < self._history_hours:
            self._counts[row] += 1
        self._levels[row] = level.value
        if hour is not None and hour > self._last_hours[row]:
            self._last_hours[row] = hour

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

        The drain/shutdown artifact: per drive, the last severity level
        and how many records it retains, plus the store's
        ``drives_evicted`` counter.  Deterministic for a given state, so
        snapshots diff cleanly across runs.
        """
        from repro.core.monitor import AlertLevel
        drives = {}
        for serial in sorted(self._rows):
            row = self._rows[serial]
            drives[serial] = {
                "level": AlertLevel(int(self._levels[row])).name,
                "retained": int(self._counts[row]),
            }
        return {
            "history_hours": self._history_hours,
            "n_tracked": self.n_tracked,
            "drives_evicted": self._drives_evicted,
            "drives": drives,
        }

    def dump_state(self) -> dict:
        """Full, JSON-clean state for crash recovery (exact round-trip).

        Everything :meth:`restore` needs to rebuild an *operationally
        identical* store: layout, the serial→row map, the free-list
        order, eviction counter, and per live drive its row, level
        code, last-seen hour and retained count (schema 2 — a few dozen
        bytes per drive).  Dumps of a store and of its restored twin are
        identical, as is every subsequent verdict and state transition.
        """
        drives = {}
        for serial in sorted(self._rows):
            row = self._rows[serial]
            drives[serial] = {
                "row": row,
                "level": int(self._levels[row]),
                "last_hour": int(self._last_hours[row]),
                "retained": int(self._counts[row]),
            }
        return {
            "schema": 2,
            "kind": "columnar",
            "history_hours": self._history_hours,
            "initial_rows": self._initial_rows,
            "n_attributes": self._n_attributes,
            "capacity": self.capacity,
            "drives_evicted": self._drives_evicted,
            "free": list(self._free),
            "drives": drives,
        }

    def restore(self, payload: dict) -> None:
        """Rebuild this store in place from a :meth:`dump_state` payload.

        Discards all current state.  Restores the exact serial→row
        mapping, free-list order and eviction counter, so the restored
        store is indistinguishable from the dumped one through every
        public method, including future :meth:`evict_idle` /
        row-recycling decisions.  A schema-1 dump (which carried each
        drive's record window) restores too: its window length is the
        retained count.

        The dump is checked before anything is replaced: every live and
        free row must lie inside the dumped capacity and belong to
        exactly one owner, and every level must be an ``AlertLevel``
        code, else :class:`~repro.errors.ReproError` names the row.
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
            capacity = 0 if n_attributes is None else int(payload["capacity"])
            free = [int(row) for row in payload["free"]]
            initial_rows = int(payload.get("initial_rows",
                                           self._initial_rows))
            drives_evicted = int(payload.get("drives_evicted", 0))
            drives = {
                serial: (int(entry["row"]), int(entry["level"]),
                         int(entry["last_hour"]),
                         int(entry["retained"] if "retained" in entry
                             else len(entry["window"])))
                for serial, entry in payload["drives"].items()
            }
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ReproError(
                f"malformed state dump for ColumnStateStore: {error}"
            ) from error
        levels = {level.value for level in AlertLevel}
        claims = [("the free list", row) for row in free]
        claims += [(f"drive {serial!r}", entry[0])
                   for serial, entry in drives.items()]
        owners: dict[int, str] = {}
        for owner, row in claims:
            if not 0 <= row < capacity:
                raise ReproError(
                    f"state dump {owner} has row {row} outside the dumped "
                    f"layout (capacity {capacity})")
            if row in owners:
                raise ReproError(
                    f"state dump {owner} reuses row {row}, already held "
                    f"by {owners[row]}")
            owners[row] = owner
        for serial, (row, level, _, retained) in drives.items():
            if not 0 <= retained <= self._history_hours:
                raise ReproError(
                    f"state dump drive {serial!r} at row {row} has "
                    f"retained {retained} outside the dumped layout")
            if level not in levels:
                raise ReproError(
                    f"state dump drive {serial!r} at row {row} has level "
                    f"{level}, not an AlertLevel code")
        self._initial_rows = initial_rows
        self._drives_evicted = drives_evicted
        self._n_attributes = n_attributes
        self._allocate(capacity)
        self._free = free
        self._rows = {}
        for serial, (row, level, last_hour, retained) in drives.items():
            self._rows[serial] = row
            self._counts[row] = retained
            self._levels[row] = level
            self._last_hours[row] = last_hour

    # -- columnar surface -------------------------------------------------

    def record_block(self, serials: Sequence[str], normalized: np.ndarray,
                     level_codes: np.ndarray,
                     hours: np.ndarray | Sequence[int]) -> None:
        """Apply one tick of records to every touched drive at once.

        Row ``i`` of ``normalized`` is counted against ``serials[i]``
        and that drive's level/last-hour state updated — semantically
        identical to calling :meth:`record` once per row, in order,
        including when a serial repeats within the block (the drive
        keeps the level of its last row).  The healthy fast path
        allocates nothing per drive: one row-index gather and a few
        fancy-indexed writes.
        """
        normalized = np.asarray(normalized, dtype=np.float64)
        n = normalized.shape[0]
        if n == 0:
            return
        rows = self._rows_for_block(serials, normalized.shape[1])
        # Each drive's last row in block order sets its level.
        unique_rows, first_from_end, per_row_total = np.unique(
            rows[::-1], return_index=True, return_counts=True)
        last_of_row = n - 1 - first_from_end
        self._counts[unique_rows] = np.minimum(
            self._counts[unique_rows] + per_row_total, self._history_hours)
        self._levels[unique_rows] = np.asarray(level_codes)[last_of_row]
        np.maximum.at(self._last_hours, rows,
                      np.asarray(hours, dtype=np.int64))

    def evict_idle(self, before_hour: int) -> int:
        """Recycle every drive last observed strictly before ``before_hour``.

        Evicted drives vanish from the tracked set (``level_of`` returns
        HEALTHY again) and their rows go to the free list for the next
        new serial — columnar row recycling makes a churning fleet's
        memory proportional to the *live* drive count, not the all-time
        serial count.  Returns how many drives were evicted; the running
        total is :attr:`drives_evicted`.
        """
        evicted = [serial for serial, row in self._rows.items()
                   if self._last_hours[row] < before_hour]
        for serial in evicted:
            row = self._rows.pop(serial)
            self._counts[row] = 0
            self._levels[row] = 0
            self._last_hours[row] = _NO_HOUR
            self._free.append(row)
        self._drives_evicted += len(evicted)
        return len(evicted)

    # -- internals --------------------------------------------------------

    def _allocate(self, capacity: int) -> None:
        """Replace every column array with ``capacity`` empty rows."""
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._levels = np.zeros(capacity, dtype=np.int8)
        self._last_hours = np.full(capacity, _NO_HOUR, dtype=np.int64)

    def _ensure_layout(self, n_attributes: int) -> None:
        """Allocate on the first write; afterwards, validate the width."""
        if self._n_attributes is None:
            self._n_attributes = int(n_attributes)
            self._allocate(self._initial_rows)
            self._free = list(range(self._initial_rows - 1, -1, -1))
        elif n_attributes != self._n_attributes:
            raise ReproError(
                f"record has {n_attributes} attributes, store was laid "
                f"out for {self._n_attributes}")

    def _grow(self) -> None:
        """Double every column array, pushing new rows onto the free list."""
        old = self.capacity
        counts, levels, last_hours = (self._counts, self._levels,
                                      self._last_hours)
        self._allocate(max(2 * old, 1))
        self._counts[:old] = counts
        self._levels[:old] = levels
        self._last_hours[:old] = last_hours
        self._free.extend(range(self.capacity - 1, old - 1, -1))

    def _row_for(self, serial: str, n_attributes: int) -> int:
        """The (possibly new) row owning ``serial``."""
        self._ensure_layout(n_attributes)
        row = self._rows.get(serial)
        if row is not None:
            return row
        if not self._free:
            self._grow()
        row = self._free.pop()
        self._rows[serial] = row
        return row

    def _rows_for_block(self, serials: Sequence[str],
                        n_attributes: int) -> np.ndarray:
        """Row index per sample, assigning rows to unseen serials.

        One dict lookup per sample, in C; unseen serials take rows in
        order of first appearance, exactly as a per-sample loop would
        assign them.
        """
        self._ensure_layout(n_attributes)
        rows = list(map(self._rows.get, serials))
        if None in rows:
            for serial in dict.fromkeys(
                    [serial for serial, row in zip(serials, rows)
                     if row is None]):
                self._row_for(serial, n_attributes)
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

    def level_counts(self, n_levels: int = 3) -> np.ndarray:
        """Samples per severity code, as a length-``n_levels`` vector.

        One ``bincount`` over the severity column — the shadow-scoring
        plane builds its champion/challenger confusion matrices from
        these codes without materializing a single verdict object.
        """
        return np.bincount(self.level_codes.astype(np.int64),
                           minlength=n_levels)

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
