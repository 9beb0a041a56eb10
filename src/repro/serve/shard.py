"""The daemon's scoring partition: one drive-state store behind admission.

A :class:`ShardSet` is the one partition a serving daemon scores on:
one :class:`~repro.serve.scorer.StreamScorer` — the bundle's stateless
verdict kernel plus the :class:`~repro.core.columnar.ColumnStateStore`
every drive's last level lives in — one scoring lock, one count of
batches in flight, one write-ahead log and one dedup cache.  A verdict
is a function of (bundle, sample) alone, so splitting drive state
across in-process shards bought nothing; a deployment scales out with
one daemon per host instead (``docs/operations.md``).
:meth:`ShardSet.submit_block` scores on the caller's thread and holds
the scoring lock for the whole batch, so concurrent batches stay
serializable.

Backpressure is explicit and all-or-nothing: a batch that arrives with
``queue_capacity`` batches already in flight is rejected with
:class:`~repro.errors.BackpressureError` *before any sample of it is
scored* — a rejected batch is never half-scored, so retries cannot
double-count a drive-hour.

Crash safety is opt-in via ``wal_dir``: every admitted batch is then
appended to the :class:`~repro.serve.wal.ShardWal` at
``wal_dir/shard-000`` *before* scoring, and the scorer state is
checkpointed every ``snapshot_interval_blocks``.  Construction replays
the snapshot + WAL suffix into byte-identical state, so a whole-process
kill is recovered by the next :class:`ShardSet` on the same directory.
A directory holding any other ``shard-*`` log — the layout of a daemon
that split its drives across shards — is refused by
:func:`partition_wal_dir`.  :meth:`ShardSet.kill` (chaos only) crashes
the partition in place: it reports ``recovering`` (new batches get
:class:`~repro.errors.ShardRecoveringError`) while one short-lived
thread rebuilds it the same way.  Replayed (and recently scored)
blocks are remembered by their caller-supplied ``block_id``, so a
client retrying a batch that died in the ack gap — appended to the WAL
but never answered — gets the cached verdicts instead of
double-scoring.

The partition's scorer runs with the null observer; the set accounts
``samples_scored`` / ``alerts_emitted`` / ``verdict_stage`` /
``drives_tracked`` once per batch (plus the recovery counters
``wal_appends`` / ``wal_replayed_blocks`` / ``shard_restarts``), so
telemetry totals match a plain scorer exactly.

:class:`HashRing` places serials on ``n`` shards by consistent hash;
the serving path no longer uses it.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import (BackpressureError, ServeError,
                          ShardRecoveringError, WalError)
from repro.obs.observer import NULL_OBSERVER, PipelineObserver, resolve_observer
from repro.serve.bundle import ModelBundle, content_hash
from repro.serve.scorer import StreamScorer, VerdictBlock, check_batch
from repro.serve.wal import ShardWal, WalRecovery, decode_block, encode_block

#: Virtual nodes per shard on the hash ring; enough for <2% imbalance
#: at single-digit shard counts without measurable lookup cost.
DEFAULT_VNODES = 64

#: Batches in flight before admission rejects with 429.
DEFAULT_QUEUE_CAPACITY = 64

#: Blocks scored between WAL state checkpoints.  Snapshots only bound
#: replay length — durability comes from the per-block append — so the
#: interval trades a little recovery latency (a few hundred blocks of
#: vectorized replay, i.e. seconds) for near-zero steady-state cost.
DEFAULT_SNAPSHOT_INTERVAL_BLOCKS = 256

#: The partition's log under ``wal_dir``.  The name is the one a
#: default (one-shard) daemon has always used, so its WALs restore
#: unchanged.
WAL_LOG_NAME = "shard-000"


def _point(key: str) -> int:
    """Map a string to a stable 64-bit ring position (sha256 prefix).

    Never Python's ``hash()`` — that is salted per process, and a
    placement must agree across processes.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hash ring mapping drive serials to shard indices.

    Parameters
    ----------
    n_shards:
        Number of shards (>= 1).
    vnodes:
        Virtual nodes per shard; more vnodes smooth the key
        distribution at slightly higher setup cost.
    """

    def __init__(self, n_shards: int, *,
                 vnodes: int = DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise ServeError(f"n_shards must be >= 1, got {n_shards}")
        if vnodes < 1:
            raise ServeError(f"vnodes must be >= 1, got {vnodes}")
        pairs = sorted(
            (_point(f"shard-{shard}-vnode-{vnode}"), shard)
            for shard in range(n_shards)
            for vnode in range(vnodes)
        )
        self._points = [point for point, _ in pairs]
        self._shards = [shard for _, shard in pairs]

    def shard_of(self, serial: str) -> int:
        """The shard owning ``serial`` (first vnode clockwise)."""
        index = bisect_right(self._points, _point(serial))
        return self._shards[index % len(self._shards)]


def partition_wal_dir(wal_dir: str | Path) -> Path:
    """The partition's log directory under ``wal_dir``, layout checked.

    A daemon keeps one log, at ``wal_dir/shard-000``.  Any other
    ``shard-*`` entry means the directory was written by a daemon that
    split its drives across shards; replaying only ``shard-000`` would
    silently forget the other shards' drives, so the directory is
    refused with a :class:`~repro.errors.WalError` that names the
    layout.  The serving daemon and ``repro-serve recover`` share this
    refusal.
    """
    root = Path(wal_dir)
    extra = sorted(path.name for path in root.glob("shard-*")
                   if path.name != WAL_LOG_NAME)
    if extra:
        raise WalError(
            f"WAL directory {root} holds a multi-shard layout "
            f"({', '.join([WAL_LOG_NAME, *extra])}); a daemon keeps one "
            f"log at {root / WAL_LOG_NAME} — serve each log from a daemon "
            f"of its own by moving it into its own WAL directory as "
            f"{WAL_LOG_NAME}")
    return root / WAL_LOG_NAME


def _remember(dedup: "OrderedDict[str, Any]", block_id: str, value: Any,
              limit: int) -> None:
    """Cache one block's outcome for duplicate-delivery detection."""
    dedup[block_id] = value
    while len(dedup) > limit:
        dedup.popitem(last=False)


def replay_wal(scorer: StreamScorer, recovery: WalRecovery,
               ) -> Iterator[tuple[str, VerdictBlock | str]]:
    """Replay an opened WAL into ``scorer`` the way a restart does.

    Restores the recovery's last snapshot, then scores every logged
    block after it in order, yielding each ``block_id`` with its
    outcome: the :class:`VerdictBlock`, or the ``"<Error>: <message>"``
    text of a block that failed to score — a restarted partition caches
    that refusal under the id and carries on.  A malformed snapshot or
    an undecodable record raises.  Lazy: nothing is replayed until the
    caller iterates.
    """
    if recovery.snapshot is not None:
        scorer.restore_state(recovery.snapshot)
    for record in recovery.records:
        block_id, serials, hours, matrix = decode_block(record.payload)
        try:
            outcome: VerdictBlock | str = scorer.score_block(serials, hours,
                                                             matrix)
        except Exception as error:
            outcome = f"{type(error).__name__}: {error}"
        yield block_id, outcome


class ShardSet:
    """The daemon's scoring partition behind a synchronous ``submit_block``.

    Parameters
    ----------
    bundle:
        The model bundle the partition scores with.
    queue_capacity:
        Batches in flight before :meth:`submit_block` rejects with
        :class:`~repro.errors.BackpressureError`.
    observer:
        Telemetry sink for the set's accounting; the scorer itself is
        silent.
    throttle_s:
        Artificial delay per batch, slept under the scoring lock.  A
        load-testing knob: the backpressure and drain tests use it to
        hold batches in flight deterministically.  Leave at ``0.0`` in
        production.
    retry_after_s:
        The wait hint carried by raised backpressure and recovering
        errors; finite and ``>= 0``.
    wal_dir:
        Root directory of the write-ahead log (crash safety off when
        ``None``).  The log lives at ``wal_dir/shard-000``; an existing
        log is replayed during construction, so a restarted ShardSet
        resumes exactly where the previous one died.  A directory
        holding any other ``shard-*`` log is refused
        (:func:`partition_wal_dir`).
    snapshot_interval_blocks:
        Blocks scored between WAL state checkpoints.
    crash_after_seq:
        Chaos hook: crash the partition right after it appends WAL
        record ``seq`` — inside the ack gap, the hardest window for
        exactly-once semantics.  The batch that hit it gets
        :class:`~repro.errors.ShardRecoveringError`.  Test-only.
    """

    def __init__(self, bundle: ModelBundle, *,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 observer: PipelineObserver | None = None,
                 throttle_s: float = 0.0,
                 retry_after_s: float = 1.0,
                 wal_dir: str | Path | None = None,
                 snapshot_interval_blocks: int =
                 DEFAULT_SNAPSHOT_INTERVAL_BLOCKS,
                 crash_after_seq: int | None = None) -> None:
        if queue_capacity < 1:
            raise ServeError(
                f"queue_capacity must be >= 1, got {queue_capacity}")
        if snapshot_interval_blocks < 1:
            raise ServeError(
                f"snapshot_interval_blocks must be >= 1, got "
                f"{snapshot_interval_blocks}")
        if not 0.0 <= retry_after_s < float("inf"):
            raise ServeError(f"retry_after_s must be finite and >= 0, got "
                             f"{retry_after_s}")
        self._wal_dir = Path(wal_dir) if wal_dir is not None else None
        self._wal_path = (partition_wal_dir(self._wal_dir)
                          if self._wal_dir is not None else None)
        self._bundle = bundle
        self._bundle_sha256 = content_hash(bundle.to_payload())
        self._capacity = queue_capacity
        self._observer = resolve_observer(observer)
        self._throttle_s = float(throttle_s)
        self._retry_after_s = float(retry_after_s)
        self._snapshot_interval = snapshot_interval_blocks
        self._dedup_limit = max(256, 2 * snapshot_interval_blocks)
        self._crash_after_seq = crash_after_seq
        self._auto_ids = itertools.count()
        # ``_lock`` guards admission and bookkeeping, and ``_changed``
        # wakes quiesce and admission waiters; ``_scoring`` guards the
        # scorer, WAL and dedup cache for a whole batch.  Lock order: a
        # thread holding ``_scoring`` may take ``_lock``, never the
        # reverse.
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._scoring = threading.Lock()
        self._inflight = 0
        self._held = False
        self._stopped = False
        self._snapshot: dict[str, Any] | None = None
        self._status = "recovering"
        self._restarts = 0
        self._scorer: StreamScorer | None = None
        self._wal: ShardWal | None = None
        self._dedup: "OrderedDict[str, Any]" = OrderedDict()
        self._since_snapshot = 0
        self._recover()

    # -- public surface ---------------------------------------------------

    @property
    def queue_capacity(self) -> int:
        """Batches in flight before backpressure."""
        return self._capacity

    @property
    def wal_enabled(self) -> bool:
        """Whether the partition writes a WAL."""
        return self._wal_dir is not None

    @property
    def wal_dir(self) -> Path | None:
        """Root WAL directory (``None`` when crash safety is off)."""
        return self._wal_dir

    def status(self) -> str:
        """Lifecycle: ``serving`` / ``recovering`` / ``failed: …``."""
        with self._lock:
            return self._status

    def restarts(self) -> int:
        """Crash recoveries since construction."""
        with self._lock:
            return self._restarts

    def inflight(self) -> int:
        """Batches admitted and not yet finished (a telemetry snapshot)."""
        with self._lock:
            return self._inflight

    def drives_tracked(self) -> int:
        """Drives the partition holds state for (0 while it is down)."""
        scorer = self._scorer
        return scorer.drives_tracked if scorer is not None else 0

    def kill(self) -> None:
        """Crash the partition in place — the chaos harness's entry point.

        Once the in-flight batch (if any) is done, the scorer and dedup
        cache are dropped and the partition reports ``recovering``:
        batches are refused with
        :class:`~repro.errors.ShardRecoveringError`, including ones
        admitted before the kill that had not reached the scorer yet.
        One short-lived thread then replays it from snapshot + WAL
        suffix (see :meth:`_crash`).  Killing the whole process is
        recovered by the next :class:`ShardSet` on the same WAL
        directory.  A no-op once :meth:`stop` has begun.
        """
        with self._scoring:
            with self._lock:
                if self._stopped:
                    return
            self._crash()

    def submit_block(self, serials: Sequence[str], hours: Sequence[int],
                     matrix: np.ndarray,
                     block_id: str | None = None) -> VerdictBlock:
        """Score one columnar batch; verdict columns in input row order.

        Admission is all-or-nothing: with ``queue_capacity`` batches in
        flight the batch is rejected with
        :class:`~repro.errors.BackpressureError`, and while the
        partition replays after a crash it is rejected with
        :class:`~repro.errors.ShardRecoveringError`; either way no
        sample of it is scored.  A malformed batch
        (:func:`~repro.serve.scorer.check_batch`: not 2-D, wrong width,
        columns of different lengths, non-integer hours, a NaN or ±Inf
        value) is refused with :class:`~repro.errors.ServeError` before
        admission too.  While :meth:`promote` runs, admission waits for
        it.

        ``block_id`` names the batch for crash-safe retries: with the
        WAL enabled, resubmitting the same id after a crash mid-batch
        returns the original verdicts without re-scoring (exactly-once
        application).  Auto-generated when omitted — auto ids are
        unique, so an unnamed batch gets no dedup protection.
        """
        # Refused before admission: a batch the scorer could not score
        # is neither logged nor counted.  The checked columns go on to
        # the WAL and the scorer, whose own check then converts nothing.
        matrix, hours = check_batch(serials, hours, matrix,
                                    self._bundle.attributes)
        if matrix.shape[0] == 0:
            return VerdictBlock.empty()
        with self._lock:
            while self._held and not self._stopped:
                self._changed.wait()
            if self._stopped:
                raise ServeError("ShardSet is stopped; no new batches")
            if self._status == "recovering":
                raise ShardRecoveringError(self._retry_after_s)
            if self._status.startswith("failed"):
                raise ServeError(f"the scoring partition is {self._status}")
            if self._inflight >= self._capacity:
                raise BackpressureError(self._retry_after_s, self._capacity)
            self._inflight += 1
        if block_id is None:
            block_id = (f"auto-{os.getpid():x}-{time.time_ns():x}-"
                        f"{next(self._auto_ids)}")
        if self._wal_dir is not None:
            self._observer.count("wal_appends")
        try:
            with self._scoring:
                block = self._score(block_id, serials, hours, matrix)
        finally:
            with self._lock:
                self._inflight -= 1
                self._changed.notify_all()
        self._account(block)
        return block

    def promote(self, bundle: ModelBundle) -> dict[str, Any]:
        """Atomically swap the partition's scoring models to ``bundle``.

        Holds new admissions and waits for every admitted batch to
        finish before swapping, so the promotion is a clean fence:
        batches admitted before it score wholly with the old models,
        batches admitted after it wholly with the new ones, and drive
        state carries across untouched.  With a WAL, the log's identity
        file is rebound to the new bundle and snapshotted immediately,
        so crash recovery replays only post-promotion records — through
        the models that logged them.

        Returns the promotion receipt: the new ``generation`` and the
        WAL ``snapshot_seq`` it starts from.  A partition replaying
        after a crash is waited out (it replays under the identity its
        WAL was logged with); a failed one refuses the promotion.
        """
        bundle_sha256 = content_hash(bundle.to_payload())
        # The scoring lock too: no kill can land mid-promotion.
        with self._quiesced(), self._scoring:
            with self._lock:
                if self._stopped:
                    raise ServeError("ShardSet is stopped; cannot promote")
                if self._status != "serving":
                    raise ServeError(f"cannot promote while the scoring "
                                     f"partition is {self._status}")
            try:
                self._scorer.swap_bundle(bundle)
                if self._wal is not None:
                    self._wal.rebind(bundle_sha256, bundle.generation)
                    self._wal.write_snapshot(self._scorer.dump_state())
                    self._since_snapshot = 0
            except (ServeError, WalError) as error:
                raise ServeError(f"bundle promotion failed: "
                                 f"{type(error).__name__}: {error}") from error
            # A partition rebuilt later (kill) comes back under the new
            # identity.
            with self._lock:
                self._bundle = bundle
                self._bundle_sha256 = bundle_sha256
            return {
                "generation": int(bundle.generation),
                "snapshot_seq": (self._wal.last_seq
                                 if self._wal is not None else 0),
            }

    def stop(self) -> dict[str, Any]:
        """Drain the partition and return its final snapshot.

        Refuses new batches, waits until every admitted batch (and any
        crash replay) has finished, then checkpoints and closes the WAL.
        A failed partition gives an empty snapshot.  Idempotent:
        repeated calls return the same snapshot.
        """
        with self._lock:
            self._stopped = True
        with self._quiesced():
            if self._snapshot is None:
                self._snapshot = self._final_snapshot()
        return dict(self._snapshot)

    # -- internals --------------------------------------------------------

    def _score(self, block_id: str, serials: Sequence[str],
               hours: np.ndarray, matrix: np.ndarray) -> VerdictBlock:
        """Score one checked batch (scoring lock held).

        A ``block_id`` seen before (replayed from the WAL, or recently
        scored) answers its cached outcome without re-scoring — the
        exactly-once half of crash recovery.  Otherwise the batch is
        appended to the WAL *before* scoring, scored as one columnar
        block, and every ``snapshot_interval_blocks`` scored blocks the
        scorer state is checkpointed, bounding replay time.
        """
        if self._throttle_s > 0.0:
            time.sleep(self._throttle_s)
        scorer = self._scorer
        if scorer is None:  # crashed after this batch was admitted
            raise ShardRecoveringError(self._retry_after_s)
        cached = self._dedup.get(block_id)
        if cached is not None:
            if isinstance(cached, str):
                raise ServeError(f"scoring failed: {cached}")
            return cached
        wal = self._wal
        if wal is not None:
            try:
                seq = wal.append(encode_block(block_id, serials, hours,
                                              matrix))
            except WalError as error:
                raise ServeError(
                    f"scoring failed: WalError: {error}") from error
            if seq == self._crash_after_seq:
                wal.sync()
                self._crash()
                raise ShardRecoveringError(self._retry_after_s)
        try:
            block = scorer.score_block(serials, hours, matrix)
        except Exception as error:
            message = f"{type(error).__name__}: {error}"
            if wal is not None:
                _remember(self._dedup, block_id, message, self._dedup_limit)
            raise ServeError(f"scoring failed: {message}") from error
        if wal is not None:
            _remember(self._dedup, block_id, block, self._dedup_limit)
            self._since_snapshot += 1
            if self._since_snapshot >= self._snapshot_interval:
                try:
                    wal.write_snapshot(scorer.dump_state())
                except WalError:
                    pass  # next interval retries; replay just stays longer
                self._since_snapshot = 0
        return block

    def _crash(self) -> None:
        """Drop the in-memory state and replay it (scoring lock held).

        The partition reports ``recovering`` until a short-lived thread
        has waited ``retry_after_s`` — the wait its refusals advertise,
        and the restart a real crash needs — and replayed it under the
        scoring lock.  The WAL handle is closed without a checkpoint,
        so the replay sees exactly what the crash left on disk.
        """
        with self._lock:
            self._status = "recovering"
            self._restarts += 1
        if self._wal is not None:
            try:
                self._wal.close()
            except WalError:
                pass  # its records are already flushed to the segment
        self._scorer, self._wal = None, None
        self._dedup = OrderedDict()
        self._since_snapshot = 0
        self._observer.count("shard_restarts")
        threading.Thread(target=self._restart, name="repro-shard-replay",
                         daemon=True).start()

    def _restart(self) -> None:
        """Body of a crashed partition's replay thread."""
        time.sleep(self._retry_after_s)
        self._recover()

    def _recover(self) -> None:
        """Build the partition from its WAL, under the scoring lock.

        A fresh scorer; with WAL enabled, the last checkpoint restored
        and the WAL suffix replayed (each replayed block's outcome
        cached under its ``block_id``).  An unusable WAL or a malformed
        snapshot leaves the partition ``failed: …`` — serving blindly
        without the log it was asked to keep would be worse.
        """
        with self._scoring:
            with self._lock:
                bundle, bundle_sha256 = self._bundle, self._bundle_sha256
            scorer = StreamScorer(bundle, observer=NULL_OBSERVER)
            status, replayed = "serving", 0
            if self._wal_path is not None:
                wal = ShardWal(self._wal_path, bundle_sha256=bundle_sha256,
                               generation=bundle.generation)
                try:
                    recovery = wal.open()
                    for block_id, outcome in replay_wal(scorer, recovery):
                        _remember(self._dedup, block_id, outcome,
                                  self._dedup_limit)
                    replayed = recovery.replayed_blocks
                    self._wal = wal
                except Exception as error:  # WalError, ServeError, torn data
                    status = f"failed: {type(error).__name__}: {error}"
                    scorer = None
            self._scorer = scorer
        if replayed:
            self._observer.count("wal_replayed_blocks", replayed)
        with self._lock:
            self._status = status
            self._changed.notify_all()

    @contextmanager
    def _quiesced(self) -> Iterator[None]:
        """Hold new admissions until every admitted batch and crash
        replay has finished; admissions resume on exit.  The one
        quiesce step :meth:`promote` and :meth:`stop` share."""
        with self._lock:
            self._changed.wait_for(lambda: not self._held)
            self._held = True
            self._changed.wait_for(
                lambda: not self._inflight
                and self._status != "recovering")
        try:
            yield
        finally:
            with self._lock:
                self._held = False
                self._changed.notify_all()

    def _final_snapshot(self) -> dict[str, Any]:
        """Checkpoint and close the WAL; the counters and drive state."""
        with self._scoring:
            scorer = self._scorer
            if scorer is None:
                return {"samples_scored": 0, "alerts_emitted": 0,
                        "drives_tracked": 0, "state": None}
            if self._wal is not None:
                try:
                    self._wal.write_snapshot(scorer.dump_state())
                    self._wal.close()
                except WalError:
                    pass  # a failed final checkpoint only lengthens replay
            return {
                "samples_scored": scorer.samples_scored,
                "alerts_emitted": scorer.alerts_emitted,
                "drives_tracked": scorer.drives_tracked,
                "state": scorer.state.snapshot(),
            }

    def _account(self, block: VerdictBlock) -> None:
        """Set-level telemetry for one scored batch (block-wise).

        Same counter totals, histogram observations and gauge value the
        per-verdict loop produced — reassembled from verdict columns so
        the hot path never materializes a verdict for telemetry's sake.
        """
        self._observer.count("samples_scored", len(block))
        alerting = block.n_alerting
        if alerting:
            self._observer.count("alerts_emitted", alerting)
        self._observer.observe_many("verdict_stage",
                                    block.finite_stages().tolist())
        self._observer.gauge("drives_tracked", self.drives_tracked())

    def __enter__(self) -> "ShardSet":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.stop()
        return False
