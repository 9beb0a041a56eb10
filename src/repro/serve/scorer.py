"""Streaming degradation scoring over a loaded model bundle.

:class:`StreamScorer` is the serving half of the paper's middleware.
It scores through the stateless verdict kernel its
:class:`~repro.serve.bundle.ModelBundle` configures
(:meth:`~repro.serve.bundle.ModelBundle.monitor`) and is the one place
that keeps drive state: after each ``score_block`` it writes every
drive's last severity into a
:class:`~repro.core.columnar.ColumnStateStore` level column and bumps
its counters.  The column grows by doubling, so memory stays O(drives
seen) — a few bytes each — and the healthy path allocates nothing per
drive.  A caller that wants verdicts but no drive state (shadow
scoring, the experiments) calls the kernel directly.
:func:`check_batch` is the batch gate every scoring path shares.
``score_block`` returns a :class:`VerdictBlock`: verdict columns, not
verdict objects — served output is rendered from the columns, and a
:class:`MonitorVerdict` is built only for a caller that asks for one.

The contract that makes the scorer trustworthy is *byte-identity with
the scalar oracle*: feeding samples through ``score_block`` emits
verdicts whose canonical JSON serialization equals, byte for byte,
``MonitorVerdict.from_alert`` of :meth:`DegradationMonitor.observe
<repro.core.monitor.DegradationMonitor.observe>` on the same samples
with the same (in-memory, never serialized) models.  The golden tests
pin this across a bundle save/load round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.columnar import AlertBlock, ColumnStateStore
from repro.core.monitor import AlertLevel, DegradationAlert
from repro.core.rescue import RescueEstimate, rescue_estimate
from repro.core.serialize import canonical_json_line
from repro.core.taxonomy import FailureType
from repro.errors import ReproError, ServeError
from repro.obs.observer import (NULL_OBSERVER, PipelineObserver,
                                resolve_observer)
from repro.serve.bundle import ModelBundle

#: Samples are ``(serial, hour, raw_record)`` triples, raw meaning
#: unnormalized Table I attribute vectors — what a collector ships.
Sample = tuple[str, int, np.ndarray]


@dataclass(frozen=True, slots=True)
class MonitorVerdict:
    """One serialized-friendly scoring verdict for one drive-hour.

    The structured twin of :class:`~repro.core.monitor.DegradationAlert`
    — same fields, plus the per-type stage/remaining-hours breakdown
    flattened to plain types so a verdict renders to one canonical JSON
    line.  ``from_alert`` is the only constructor the scorer uses, so a
    verdict always reflects exactly one monitor alert.
    """

    serial: str
    hour: int
    level: str
    stage: float
    likely_type: str
    hours_remaining: float
    stages: dict[str, float]
    remaining: dict[str, float]

    @classmethod
    def from_alert(cls, alert: DegradationAlert) -> "MonitorVerdict":
        """Wrap one monitor alert (the sole constructor used in serving)."""
        return _verdict(alert.serial, alert.hour, alert.level,
                        alert.likely_type, alert.estimates)

    @property
    def alerting(self) -> bool:
        """Whether the verdict sits above HEALTHY."""
        return self.level != AlertLevel.HEALTHY.name

    def to_dict(self) -> dict[str, Any]:
        """Plain-type mapping, ready for canonical JSON."""
        return {
            "serial": self.serial,
            "hour": self.hour,
            "level": self.level,
            "stage": self.stage,
            "likely_type": self.likely_type,
            "hours_remaining": self.hours_remaining,
            "stages": dict(self.stages),
            "remaining": dict(self.remaining),
        }

    def to_json_line(self) -> str:
        """One canonical JSON line (sorted keys, normalized floats).

        Non-finite remaining-hours (healthy drives) serialize as
        ``null`` — JSON has no ``Infinity``.
        """
        return canonical_json_line(self.to_dict())


def _verdict(serial: str, hour: int, level: AlertLevel,
             likely_type: FailureType,
             estimates: dict[FailureType, RescueEstimate]) -> MonitorVerdict:
    """A verdict from its parts; the likely type's estimate is the headline."""
    likely = estimates[likely_type]
    return MonitorVerdict(
        serial=serial,
        hour=hour,
        level=level.name,
        stage=likely.stage,
        likely_type=likely_type.name,
        hours_remaining=likely.hours_remaining,
        stages={t.name: e.stage for t, e in estimates.items()},
        remaining={t.name: e.hours_remaining for t, e in estimates.items()},
    )


def check_batch(serials: Sequence[str], hours: Sequence[int],
                matrix: np.ndarray, attributes: Sequence[str],
                ) -> tuple[np.ndarray, np.ndarray]:
    """Refuse a malformed columnar batch; return its matrix and hours.

    The one gate in front of every scoring path: the record matrix must
    be 2-D and as wide as ``attributes``, the three columns as long as
    each other, every hour an ``int64`` and every value finite.  A tree
    routes a NaN as "not below the threshold" at every split, so
    scoring one would emit a verdict no model chose; the refusal names
    the first non-finite cell by row, column and attribute.  Returns
    the ``float64`` matrix and the ``int64`` hour column; a refusal is
    a :class:`~repro.errors.ServeError` and scores nothing.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ServeError(f"record matrix must be 2-D, got {matrix.ndim}-D")
    if len(serials) != matrix.shape[0] or len(hours) != matrix.shape[0]:
        raise ServeError(
            f"column lengths disagree: {len(serials)} serials, "
            f"{len(hours)} hours, {matrix.shape[0]} record rows")
    if matrix.shape[1] != len(attributes):
        raise ServeError(
            f"record matrix has shape {matrix.shape}, bundle expects "
            f"(n, {len(attributes)}) ({', '.join(attributes)})")
    try:
        hours = np.asarray(hours, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as error:
        raise ServeError(f"hours must be integers: {error}") from error
    finite = np.isfinite(matrix)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        raise ServeError(
            f"record row {row}, column {column} ({attributes[column]!r}) "
            f"is not finite ({float(matrix[row, column])!r})")
    return matrix, hours


#: Hours a verdict can carry: the hour column is ``int64``.
HOUR_RANGE = range(-2**63, 2**63)


def first_hour_out_of_range(hours: Sequence[int]) -> int | None:
    """Index of the first hour outside :data:`HOUR_RANGE`, else ``None``.

    A batch of in-range ``int`` hours costs two C-level passes
    (``min``/``max``), no Python step per hour.
    """
    if not hours or (min(hours) >= HOUR_RANGE.start
                     and max(hours) < HOUR_RANGE.stop):
        return None
    return next(row for row, hour in enumerate(hours)
                if hour not in HOUR_RANGE)


#: Head of a canonical verdict line up to its hour value (``"hour"``
#: sorts first among the verdict's keys).
_LINE_HEAD = '{"hour":'
#: The serial's key; ``"serial"`` sorts between ``"remaining"`` and
#: ``"stage"``, so the line splits around its value.
_SERIAL_KEY = '"serial":'


def _line_fragments(stages: list[float], likely: int, code: int,
                    types: tuple[FailureType, ...]) -> tuple[str, str]:
    """The serial-free pieces of every line sharing one leaf combination.

    Renders a verdict with hour 0 and an empty serial through the
    canonical encoder and cuts it around those two values: the middle
    runs from ``,"hours_remaining"`` up to ``"serial":``, the tail from
    ``,"stage"`` to the closing brace.  The rescue inversion is the
    scalar :func:`~repro.core.rescue.rescue_estimate`, as on every
    other path.
    """
    estimates = {failure_type: rescue_estimate(stage, failure_type)
                 for failure_type, stage in zip(types, stages)}
    line = canonical_json_line(_verdict("", 0, AlertLevel(code),
                                        types[likely], estimates).to_dict())
    cut = line.index(_SERIAL_KEY + '""') + len(_SERIAL_KEY)
    return line[len(_LINE_HEAD + "0"):cut], line[cut + len('""'):]


@dataclass(frozen=True, slots=True)
class VerdictBlock:
    """Struct-of-arrays verdicts for one scored columnar batch.

    The serving twin of :class:`~repro.core.columnar.AlertBlock`:
    verdict *columns* (stages, severity codes, likely-type indices)
    instead of verdict objects.  Summary counts and alerting-row lookups are
    array ops.  ``to_json_lines()`` renders JSONL straight from the
    columns, byte-identical to the scalar oracle's lines, without
    building a :class:`MonitorVerdict` — the encoder of every served
    output: ``score``, ``?verdicts=`` replies, the sinks and the dead
    letter.  Objects are built only when a caller asks
    (``verdict_at``, ``verdicts()``).
    """

    block: AlertBlock
    _alert_lines: tuple[str, ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.block)

    @property
    def serials(self) -> list[str]:
        """Drive serial per scored row, in input order."""
        return self.block.serials

    @property
    def n_alerting(self) -> int:
        """Rows whose severity sits above HEALTHY."""
        return self.block.n_alerting

    def alerting_rows(self) -> np.ndarray:
        """Indices of the rows above HEALTHY (usually few)."""
        return self.block.alerting_rows()

    def finite_stages(self) -> np.ndarray:
        """Likely-type stage per row, finite entries only (telemetry)."""
        return self.block.finite_stages()

    def alert_lines(self) -> tuple[str, ...]:
        """The alerting rows' canonical lines, rendered on first use.

        The sinks, a ``?verdicts=alerts`` reply and ``--alerts-only``
        output all read this one tuple, so a batch's alert lines are
        encoded at most once.
        """
        if self._alert_lines is None:
            object.__setattr__(self, "_alert_lines", tuple(
                self.to_json_lines(self.alerting_rows())))
        return self._alert_lines

    def verdict_at(self, row: int) -> MonitorVerdict:
        """Materialize one row (bit-identical to the scalar path)."""
        return MonitorVerdict.from_alert(self.block.alert_at(row))

    def verdicts(self) -> list[MonitorVerdict]:
        """Materialize every row — the compatibility slow path."""
        return [MonitorVerdict.from_alert(alert)
                for alert in self.block.alerts()]

    def to_json_lines(self, rows: Sequence[int] | np.ndarray | None = None,
                      ) -> list[str]:
        """Canonical JSON line per row, byte-identical to the oracle's.

        ``rows`` selects and orders the rows (all of them by default).
        The encoder is columnar: every field except ``hour`` and
        ``serial`` depends only on the row's stage vector, likely type
        and level, so each distinct combination is rendered once per
        call (see :func:`_line_fragments`) and every line is the hour,
        that combination's middle fragment, the JSON-escaped serial and
        its tail.  Keys compare stage *bits*, so ``0.0`` and ``-0.0``
        (equal as floats, different on the wire) never share a line.
        """
        block = self.block
        if rows is None:
            serials, hours = block.serials, block.hours
            stages = block.stages
            likely, codes = block.likely_indices, block.level_codes
        else:
            rows = np.asarray(rows, dtype=np.int64)
            serials = [block.serials[row] for row in rows.tolist()]
            hours = block.hours[rows]
            stages = block.stages[:, rows]
            likely, codes = block.likely_indices[rows], block.level_codes[rows]
        if not serials:
            return []
        keys = np.column_stack((
            np.ascontiguousarray(stages.T).view(np.uint64),
            likely.astype(np.uint64), codes.astype(np.uint64)))
        # One opaque bytes value per key row: a 1-D unique over these
        # costs a fraction of ``np.unique(axis=0)``, and the order it
        # sorts them in does not matter (lines index through inverse).
        rows_as_bytes = keys.view(np.dtype((np.void, keys.itemsize
                                             * keys.shape[1]))).ravel()
        _, first, inverse = np.unique(rows_as_bytes, return_index=True,
                                      return_inverse=True)
        fragments = [
            _line_fragments(stages[:, row].tolist(), int(likely[row]),
                            int(codes[row]), block.types)
            for row in first.tolist()
        ]
        return [
            f"{_LINE_HEAD}{hour}{fragments[key][0]}"
            f"{encode_basestring_ascii(serial)}{fragments[key][1]}"
            for serial, hour, key in zip(serials, hours.tolist(),
                                         inverse.reshape(-1).tolist())
        ]

    @classmethod
    def empty(cls) -> "VerdictBlock":
        """A zero-row block (the verdict of an empty batch)."""
        types = tuple(FailureType)
        columns = np.empty((len(types), 0), dtype=np.float64)
        return cls(AlertBlock([], np.empty(0, dtype=np.int64),
                              columns,
                              np.empty(0, dtype=np.int64),
                              np.empty(0, dtype=np.int8), types))

    @classmethod
    def gather(cls, serials: Sequence[str], hours: Sequence[int],
               parts: Sequence[tuple[Sequence[int], "VerdictBlock"]],
               ) -> "VerdictBlock":
        """Reassemble one block from scattered sub-blocks.

        ``parts`` pairs each sub-block with the row indices (into the
        full batch) it scored, and the result holds every row in input
        order without materializing a single verdict object.  The
        serving path scores a batch as one block and no longer calls
        this; ``perfbench/layers.py`` still names it as a layer.
        """
        if not parts:
            raise ServeError("gather needs at least one sub-block")
        first = parts[0][1].block
        n = len(serials)
        n_types = first.stages.shape[0]
        stages = np.empty((n_types, n), dtype=np.float64)
        likely = np.empty(n, dtype=np.int64)
        codes = np.empty(n, dtype=np.int8)
        for rows, part in parts:
            rows = np.asarray(rows, dtype=np.int64)
            sub = part.block
            stages[:, rows] = sub.stages
            likely[rows] = sub.likely_indices
            codes[rows] = sub.level_codes
        return cls(AlertBlock(list(serials),
                              np.asarray(hours, dtype=np.int64),
                              stages, likely, codes,
                              first.types))


class StreamScorer:
    """Incremental degradation scorer over a model bundle.

    Parameters
    ----------
    bundle:
        The versioned artifact to score with (see
        :func:`~repro.serve.bundle.load_bundle`).
    observer:
        Telemetry sink: ``samples_scored`` / ``alerts_emitted``
        counters, a ``drives_tracked`` gauge, a ``verdict_stage``
        streaming histogram, and ``score-batch`` spans around each
        scored block.  Telemetry never changes a verdict — scoring
        with :data:`~repro.obs.observer.NULL_OBSERVER` and with a full
        registry emits byte-identical verdict streams.
    """

    def __init__(self, bundle: ModelBundle, *,
                 observer: PipelineObserver | None = None) -> None:
        self._bundle = bundle
        self._observer = resolve_observer(observer)
        self._monitor = bundle.monitor()
        self._state = ColumnStateStore(bundle.history_hours)
        self._samples_scored = 0
        self._alerts_emitted = 0

    # -- streaming API ----------------------------------------------------

    def push_many(self, samples: Iterable[Sample]) -> list[MonitorVerdict]:
        """Score a batch of ``(serial, hour, record)`` samples.

        Stacks the samples into one block for :meth:`score_block` and
        materializes every verdict, in sample order.  Records that do
        not stack, whose width is not the bundle's or that hold a
        non-finite value are refused with
        :class:`~repro.errors.ServeError`.
        """
        samples = list(samples)
        if not samples:
            return []
        try:
            matrix = np.vstack([np.asarray(record, dtype=np.float64).ravel()
                                for _, _, record in samples])
        except ValueError as error:
            raise ServeError(
                f"cannot stack the batch's records: {error}") from error
        return self.score_block([serial for serial, _, _ in samples],
                                [int(hour) for _, hour, _ in samples],
                                matrix).verdicts()

    def score_block(self, serials: Sequence[str], hours: Sequence[int],
                    matrix: np.ndarray) -> VerdictBlock:
        """Score a columnar batch as one set of batched array ops.

        The streaming hot path: the bundle's stateless kernel
        (:meth:`~repro.core.monitor.DegradationMonitor.observe_columns`:
        one normalizer pass, one tree evaluation per failure group),
        then one fancy-indexed write of every drive's level, then the
        counters — no per-sample Python objects.  The returned
        :class:`VerdictBlock` carries verdict columns; materializing it
        reproduces the scalar
        :meth:`~repro.core.monitor.DegradationMonitor.observe` oracle
        byte for byte (the golden tests pin this offline, through the
        daemon's partition and over live HTTP ingest).  A batch that
        :func:`check_batch` refuses raises
        :class:`~repro.errors.ServeError` before any drive's state
        changes.
        """
        matrix, hours = check_batch(serials, hours, matrix,
                                    self._bundle.attributes)
        if matrix.shape[0] == 0:
            return VerdictBlock.empty()
        with self._observer.span("score-batch", n_samples=matrix.shape[0]):
            block = self._monitor.observe_columns(serials, hours, matrix)
            self._state.record_block(block.serials, matrix,
                                     block.level_codes)
        self._account_block(block)
        return VerdictBlock(block)

    # -- fleet state ------------------------------------------------------

    @property
    def bundle(self) -> ModelBundle:
        """The artifact this scorer was built from."""
        return self._bundle

    @property
    def state(self) -> ColumnStateStore:
        """The keyed per-drive state store.

        The daemon's partition snapshots a scorer's fleet state through
        this store; the scorer itself never copies it.
        """
        return self._state

    @property
    def samples_scored(self) -> int:
        """Samples consumed since construction."""
        return self._samples_scored

    @property
    def alerts_emitted(self) -> int:
        """Verdicts above HEALTHY since construction."""
        return self._alerts_emitted

    @property
    def drives_tracked(self) -> int:
        """Drives with live state."""
        return self._state.n_tracked

    def dump_state(self) -> dict[str, Any]:
        """Everything crash recovery needs to resume this scorer.

        The scorer's counters plus the state store's full
        ``dump_state()`` payload (exact round-trip).  Feeding
        the dump to :meth:`restore_state` on a scorer built from the
        same bundle yields byte-identical future verdicts, counters and
        state snapshots — the WAL layer checkpoints exactly this
        document.
        """
        return {
            "schema": 1,
            "samples_scored": self._samples_scored,
            "alerts_emitted": self._alerts_emitted,
            "state": self._state.dump_state(),
        }

    def restore_state(self, payload: dict[str, Any]) -> None:
        """Rebuild counters and per-drive state from :meth:`dump_state`.

        Restores in place, so a recovering partition constructs its
        scorer normally and then applies the last snapshot before
        replaying the WAL suffix.  A dump the state store refuses is
        re-raised as :class:`~repro.errors.ServeError`, the error a
        recovering partition reports as ``failed``.
        """
        try:
            samples_scored = int(payload["samples_scored"])
            alerts_emitted = int(payload["alerts_emitted"])
            state = payload["state"]
        except (KeyError, TypeError, ValueError) as error:
            raise ServeError(
                f"malformed scorer state dump: {error}") from error
        try:
            self._state.restore(state)
        except ReproError as error:
            raise ServeError(str(error)) from error
        self._samples_scored = samples_scored
        self._alerts_emitted = alerts_emitted

    def swap_bundle(self, bundle: ModelBundle) -> None:
        """Replace the scoring models in place, keeping all drive state.

        The promotion plane's seam: verdicts are per-sample stateless
        functions of the current record (no drive history feeds the
        trees), so swapping the kernel between blocks changes *future*
        verdicts only — every sample scored after the swap is
        byte-identical to a fresh scorer of the new bundle fed the same
        stream.  The replacement must score the same feature space
        (attribute ordering), which the live
        :class:`~repro.core.columnar.ColumnStateStore` is laid out for,
        and keep ``history_hours``, which the store and its dumps carry
        as their identity.
        """
        if tuple(bundle.attributes) != tuple(self._bundle.attributes):
            raise ServeError(
                "cannot swap in a bundle trained on a different "
                f"attribute set ({', '.join(bundle.attributes)} vs "
                f"{', '.join(self._bundle.attributes)})"
            )
        if bundle.history_hours != self._bundle.history_hours:
            raise ServeError(
                f"cannot swap in a bundle with history_hours="
                f"{bundle.history_hours}; the live drive state was "
                f"built for {self._bundle.history_hours}"
            )
        self._bundle = bundle
        self._monitor = bundle.monitor()

    def level_of(self, serial: str) -> AlertLevel:
        """Last severity level of a drive (HEALTHY if never seen)."""
        return self._state.level_of(serial)

    def drives_at(self, level: AlertLevel) -> list[str]:
        """Serials currently at exactly ``level``."""
        return self._state.drives_at(level)

    # -- internals --------------------------------------------------------

    def _account_block(self, block: AlertBlock) -> None:
        """Block-wise telemetry: same totals as per-verdict accounting.

        The healthy fast path (no observer) costs two integer adds; a
        real observer sees the sample and alert totals, the finite
        stages as one ``verdict_stage`` batch observation and the final
        ``drives_tracked`` gauge.
        """
        n_samples = len(block)
        n_alerting = block.n_alerting
        self._samples_scored += n_samples
        self._alerts_emitted += n_alerting
        if self._observer is NULL_OBSERVER:
            return
        self._observer.count("samples_scored", n_samples)
        if n_alerting:
            self._observer.count("alerts_emitted", n_alerting)
        self._observer.observe_many("verdict_stage",
                                    block.finite_stages().tolist())
        self._observer.gauge("drives_tracked", self.drives_tracked)
