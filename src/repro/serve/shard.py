"""Consistent-hash sharding of per-drive scoring state across workers.

The serving daemon's horizontal seam: a :class:`ShardSet` owns ``n``
shard worker threads, each holding one
:class:`~repro.serve.scorer.StreamScorer` (and therefore one keyed
:class:`~repro.core.columnar.ColumnStateStore`).  Drives map to shards by
consistent hash of their serial (:class:`HashRing` — sha256-based, so
the mapping is stable across processes and Python hash seeds), which
keeps every drive's state (last level, last hour, retained count) whole
inside exactly one shard no matter how batches arrive.

Sharding is a pure performance knob: verdicts are per-sample functions
of the record (and per-drive state keys on the serial), so a
:meth:`ShardSet.submit_block` returns byte-identical verdicts for any shard
count — the daemon's golden tests pin shard counts 1, 2 and 4 against
offline ``repro-serve score``.  Workers are threads: a shard is a place
to keep per-drive state, not a unit of parallel maths.  Each worker
completes its caller's request itself, with a direct call under the
set's lock.

Backpressure is explicit and all-or-nothing: the parent tracks batches
in flight per shard, and a batch whose target shard is at capacity is
rejected with :class:`~repro.errors.BackpressureError` *before any
sample of it is enqueued* — a rejected batch is never half-scored, so
retries cannot double-count a drive-hour.

Crash safety is opt-in via ``wal_dir``: each worker then appends every
admitted block to its own :class:`~repro.serve.wal.ShardWal` *before*
scoring and checkpoints its scorer state every
``snapshot_interval_blocks``.  A built-in supervisor thread watches the
workers; when one dies (the chaos crash sentinel, or an unexpected
exception) it fails that shard's in-flight batches with
:class:`~repro.errors.ShardRecoveringError`, respawns the worker, and
the replacement replays snapshot + WAL suffix back to byte-identical
state.  A whole-process kill is recovered the same way by the next
:class:`ShardSet` on the same directory.  Replayed (and recently scored)
blocks are remembered by their caller-supplied ``block_id``, so a client
retrying a batch that died in the ack gap — appended to the WAL but
never answered — gets the cached verdicts instead of double-scoring.

Workers run with the null observer; the parent re-accounts
``samples_scored`` / ``alerts_emitted`` / ``verdict_stage`` /
``drives_tracked`` from the verdicts that come back (plus the recovery
counters ``wal_appends`` / ``wal_replayed_blocks`` /
``shard_restarts``), so telemetry totals match the unsharded path
exactly.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.errors import (BackpressureError, ServeError,
                          ShardRecoveringError, WalError)
from repro.obs.observer import NULL_OBSERVER, PipelineObserver, resolve_observer
from repro.serve.bundle import ModelBundle, content_hash
from repro.serve.scorer import StreamScorer, VerdictBlock, check_finite
from repro.serve.wal import (DEFAULT_FSYNC_EVERY, DEFAULT_SEGMENT_MAX_BYTES,
                             ShardWal, decode_block, encode_block)

#: Virtual nodes per shard on the hash ring; enough for <2% imbalance
#: at single-digit shard counts without measurable lookup cost.
DEFAULT_VNODES = 64

#: Batches in flight per shard before admission rejects with 429.
DEFAULT_QUEUE_CAPACITY = 64

#: Blocks scored between WAL state checkpoints.  Snapshots only bound
#: replay length — durability comes from the per-block append — so the
#: interval trades a little recovery latency (a few hundred blocks of
#: vectorized replay, i.e. seconds) for near-zero steady-state cost.
DEFAULT_SNAPSHOT_INTERVAL_BLOCKS = 256

#: Supervisor poll interval for dead-worker detection.
DEFAULT_SUPERVISE_POLL_S = 0.05

#: Sentinel task asking a worker to snapshot its state and exit.
_STOP = None

#: Sentinel task making a worker die abruptly — no snapshot, no reply.
#: The chaos harness's stand-in for a kill (a thread cannot be killed
#: from outside).
_CRASH = "__repro_crash__"

#: Marker heading a promotion task ``(_PROMOTE, request_id, payload,
#: generation)``: the worker swaps its scorer to the new bundle (drive
#: state intact), rebinds + snapshots its WAL, and replies
#: ``("promoted", ...)``.
_PROMOTE = "__repro_promote__"


def _point(key: str) -> int:
    """Map a string to a stable 64-bit ring position (sha256 prefix).

    Never Python's ``hash()`` — that is salted per process, and shard
    placement must agree with the WAL a previous process left behind.
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
        self._n_shards = n_shards
        pairs = sorted(
            (_point(f"shard-{shard}-vnode-{vnode}"), shard)
            for shard in range(n_shards)
            for vnode in range(vnodes)
        )
        self._points = [point for point, _ in pairs]
        self._shards = [shard for _, shard in pairs]

    @property
    def n_shards(self) -> int:
        """Number of shards on the ring."""
        return self._n_shards

    def shard_of(self, serial: str) -> int:
        """The shard owning ``serial`` (first vnode clockwise)."""
        index = bisect_right(self._points, _point(serial))
        return self._shards[index % len(self._shards)]


@dataclass(frozen=True, slots=True)
class WalSettings:
    """Per-shard WAL configuration handed to a worker.

    ``crash_after_seq`` is a chaos hook: the worker dies abruptly right
    after appending the record with that sequence number — inside the
    ack gap, the hardest window for exactly-once semantics.  Used by
    the deterministic recovery tests; leave ``None`` in production.
    """

    directory: str
    bundle_sha256: str
    segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES
    fsync_every: int = DEFAULT_FSYNC_EVERY
    snapshot_interval_blocks: int = DEFAULT_SNAPSHOT_INTERVAL_BLOCKS
    crash_after_seq: int | None = None
    generation: int = 0


def _remember(dedup: "OrderedDict[str, Any]", block_id: str, value: Any,
              limit: int) -> None:
    """Cache one block's outcome for duplicate-delivery detection."""
    dedup[block_id] = value
    while len(dedup) > limit:
        dedup.popitem(last=False)


def _shard_worker(shard: int, payload: dict, tasks: queue.Queue,
                  reply: Callable[[str, int, Any], None],
                  throttle_s: float,
                  wal_settings: WalSettings | None = None) -> None:
    """One shard's scoring loop (the body of a worker thread).

    Every outcome goes through ``reply(kind, request_id, body)``, which
    completes the caller's request on this thread.

    Startup: build the scorer; with WAL enabled, open the shard's
    :class:`~repro.serve.wal.ShardWal`, restore the last scorer
    checkpoint, replay the WAL suffix (caching each replayed block's
    verdicts under its ``block_id``), then announce ``("ready", -1,
    info)``.  An unusable WAL announces ``("wal_failed", -1, message)``
    and exits instead — serving blindly without the log it was asked to
    keep would be worse.

    Main loop: consume ``(request_id, block_id, serials, hours,
    matrix)`` tasks.  A ``block_id`` seen before (replayed from the
    WAL, or recently scored) replies its cached outcome without
    re-scoring — the exactly-once half of crash recovery.  Otherwise
    the block is appended to the WAL *before* scoring, scored *as one
    columnar block* on a private :class:`StreamScorer` (null observer —
    the parent re-accounts telemetry), and answered ``("verdicts",
    request_id, block)`` with the struct-of-arrays
    :class:`~repro.serve.scorer.VerdictBlock`.  A scoring failure
    replies ``("error", ...)`` with the message instead of killing the
    worker.  Every ``snapshot_interval_blocks`` scored blocks the scorer
    state is checkpointed, bounding replay time.

    The ``_STOP`` sentinel makes the worker checkpoint (WAL on), reply
    a final ``("snapshot", ...)`` with its counters and state snapshot,
    then exit; the ``_CRASH`` sentinel (chaos only) makes it return
    with none of that.
    """
    scorer = StreamScorer(ModelBundle.from_payload(payload),
                          observer=NULL_OBSERVER)
    wal: ShardWal | None = None
    dedup: "OrderedDict[str, Any]" = OrderedDict()
    dedup_limit = 256
    ready_info: dict[str, Any] = {"shard": shard, "replayed_blocks": 0,
                                  "snapshot_seq": 0, "last_seq": 0,
                                  "serials": []}
    if wal_settings is not None:
        dedup_limit = max(256, 2 * wal_settings.snapshot_interval_blocks)
        try:
            wal = ShardWal(
                Path(wal_settings.directory),
                segment_max_bytes=wal_settings.segment_max_bytes,
                fsync_every=wal_settings.fsync_every,
                bundle_sha256=wal_settings.bundle_sha256,
                generation=wal_settings.generation)
            recovery = wal.open()
            if recovery.snapshot is not None:
                scorer.restore_state(recovery.snapshot)
            for record in recovery.records:
                block_id, serials, hours, matrix = decode_block(
                    record.payload)
                try:
                    block = scorer.score_block(serials, hours, matrix)
                except Exception as error:
                    _remember(dedup, block_id,
                              f"{type(error).__name__}: {error}",
                              dedup_limit)
                    continue
                _remember(dedup, block_id, block, dedup_limit)
            ready_info = {
                "shard": shard,
                "replayed_blocks": recovery.replayed_blocks,
                "snapshot_seq": recovery.snapshot_seq,
                "last_seq": wal.last_seq,
                "serials": scorer.state.serials(),
            }
        except (WalError, ServeError) as error:
            reply("wal_failed", -1, f"{type(error).__name__}: {error}")
            return
    reply("ready", -1, ready_info)

    blocks_since_snapshot = 0
    while True:
        task = tasks.get()
        if task is _STOP:
            if wal is not None:
                try:
                    wal.write_snapshot(scorer.dump_state())
                    wal.close()
                except WalError:
                    pass  # a failed final checkpoint only lengthens replay
            reply("snapshot", -1, {
                "shard": shard,
                "samples_scored": scorer.samples_scored,
                "alerts_emitted": scorer.alerts_emitted,
                "drives_tracked": scorer.drives_tracked,
                "state": scorer.state.snapshot(),
            })
            return
        if task == _CRASH:
            return
        if task[0] == _PROMOTE:
            _marker, request_id, new_payload, generation = task
            try:
                scorer.swap_bundle(ModelBundle.from_payload(new_payload))
                if wal is not None:
                    # Rebind-then-snapshot is the promotion fence: the
                    # replayable suffix (everything past this snapshot)
                    # was logged under, and replays through, the new
                    # models — recovery never crosses a bundle boundary.
                    wal.rebind(content_hash(new_payload), generation)
                    wal.write_snapshot(scorer.dump_state())
                    blocks_since_snapshot = 0
            except (ServeError, WalError) as error:
                reply("error", request_id,
                      f"{type(error).__name__}: {error}")
                continue
            reply("promoted", request_id, {
                "shard": shard,
                "generation": int(generation),
                "snapshot_seq": wal.last_seq if wal is not None else 0,
            })
            continue
        request_id, block_id, serials, hours, matrix = task
        if throttle_s > 0.0:
            time.sleep(throttle_s)
        cached = dedup.get(block_id)
        if cached is not None:
            kind = "error" if isinstance(cached, str) else "verdicts"
            reply(kind, request_id, cached)
            continue
        if wal is not None:
            try:
                seq = wal.append(encode_block(block_id, list(serials),
                                              list(hours), matrix))
            except WalError as error:
                reply("error", request_id, f"WalError: {error}")
                continue
            if (wal_settings is not None
                    and wal_settings.crash_after_seq is not None
                    and seq == wal_settings.crash_after_seq):
                wal.sync()
                return
        try:
            block = scorer.score_block(serials, hours, matrix)
        except Exception as error:
            message = f"{type(error).__name__}: {error}"
            if wal is not None:
                _remember(dedup, block_id, message, dedup_limit)
            reply("error", request_id, message)
            continue
        if wal is not None:
            _remember(dedup, block_id, block, dedup_limit)
        reply("verdicts", request_id, block)
        if wal is not None and wal_settings is not None:
            blocks_since_snapshot += 1
            if blocks_since_snapshot >= wal_settings.snapshot_interval_blocks:
                try:
                    wal.write_snapshot(scorer.dump_state())
                except WalError:
                    pass  # next interval retries; replay just stays longer
                blocks_since_snapshot = 0


def _empty_snapshot(shard: int) -> dict[str, Any]:
    """The final snapshot of a shard whose worker is gone."""
    return {"shard": shard, "samples_scored": 0, "alerts_emitted": 0,
            "drives_tracked": 0, "state": None}


class _PendingRequest:
    """Parent-side bookkeeping for one in-flight submit."""

    __slots__ = ("outstanding", "done", "results", "errors", "died_shard")

    def __init__(self, shards: Sequence[int]) -> None:
        self.outstanding = set(shards)
        self.done = threading.Event()
        self.results: dict[int, VerdictBlock] = {}
        self.errors: list[str] = []
        self.died_shard: int | None = None


class ShardSet:
    """A fleet of shard workers behind one synchronous ``submit_block`` API.

    Parameters
    ----------
    bundle:
        The model bundle every shard scores with.
    n_shards:
        Worker thread count; drives spread across them by consistent
        hash.
    queue_capacity:
        Batches in flight per shard before :meth:`submit_block` rejects with
        :class:`~repro.errors.BackpressureError`.
    observer:
        Parent-side telemetry sink; workers themselves are silent.
    throttle_s:
        Artificial per-batch delay inside each worker.  A load-testing
        knob: the backpressure and drain tests use it to hold batches
        in flight deterministically.  Leave at ``0.0`` in production.
    retry_after_s:
        The wait hint carried by raised backpressure and
        shard-recovering errors.
    wal_dir:
        Root directory for per-shard write-ahead logs (crash safety
        off when ``None``).  Shard ``k`` logs under
        ``wal_dir/shard-<k>``; an existing WAL is replayed on startup,
        so a restarted ShardSet resumes exactly where the previous one
        died.
    snapshot_interval_blocks / wal_fsync_every:
        WAL tuning, see :mod:`repro.serve.wal`.
    supervise:
        Run the dead-worker supervisor thread (default on; the chaos
        tests rely on it, production should never turn it off).
    crash_after_seq:
        Chaos hook, per shard: ``{shard: seq}`` makes that worker die
        right after appending WAL record ``seq`` (see
        :class:`WalSettings`).  Test-only.
    """

    def __init__(self, bundle: ModelBundle, *, n_shards: int = 1,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 observer: PipelineObserver | None = None,
                 throttle_s: float = 0.0,
                 retry_after_s: float = 1.0,
                 wal_dir: str | Path | None = None,
                 snapshot_interval_blocks: int =
                 DEFAULT_SNAPSHOT_INTERVAL_BLOCKS,
                 wal_fsync_every: int = DEFAULT_FSYNC_EVERY,
                 supervise: bool = True,
                 crash_after_seq: Mapping[int, int] | None = None) -> None:
        if queue_capacity < 1:
            raise ServeError(
                f"queue_capacity must be >= 1, got {queue_capacity}")
        if snapshot_interval_blocks < 1:
            raise ServeError(
                f"snapshot_interval_blocks must be >= 1, got "
                f"{snapshot_interval_blocks}")
        self._bundle = bundle
        self._capacity = queue_capacity
        self._observer = resolve_observer(observer)
        self._throttle_s = float(throttle_s)
        self._retry_after_s = float(retry_after_s)
        self._ring = HashRing(n_shards)
        self._lock = threading.Lock()
        self._inflight = [0] * n_shards
        self._pending: dict[int, _PendingRequest] = {}
        self._next_request = 0
        self._stopped = False
        self._placement: dict[str, int] = {}
        self._snapshots: list[dict[str, Any] | None] = [None] * n_shards
        self._all_snapshots = threading.Event()
        self._status = ["serving"] * n_shards
        self._ready_events = [threading.Event() for _ in range(n_shards)]
        self._restarts = [0] * n_shards
        self._exited = [False] * n_shards
        self._payload = bundle.to_payload()

        self._wal_dir = Path(wal_dir) if wal_dir is not None else None
        self._wal_settings: list[WalSettings | None] = [None] * n_shards
        if self._wal_dir is not None:
            bundle_sha = content_hash(self._payload)
            crash_after_seq = dict(crash_after_seq or {})
            for shard in range(n_shards):
                self._wal_settings[shard] = WalSettings(
                    directory=str(self._wal_dir / f"shard-{shard:03d}"),
                    bundle_sha256=bundle_sha,
                    fsync_every=wal_fsync_every,
                    snapshot_interval_blocks=snapshot_interval_blocks,
                    crash_after_seq=crash_after_seq.get(shard),
                    generation=bundle.generation,
                )

        self._tasks: list[queue.Queue] = [queue.Queue()
                                          for _ in range(n_shards)]
        self._workers = [self._spawn_worker(shard)
                         for shard in range(n_shards)]
        for worker in self._workers:
            worker.start()
        self._supervisor_stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-shard-supervisor",
                daemon=True)
            self._supervisor.start()

    # -- public surface ---------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shard workers."""
        return self._ring.n_shards

    @property
    def queue_capacity(self) -> int:
        """Batches in flight per shard before backpressure."""
        return self._capacity

    @property
    def ring(self) -> HashRing:
        """The consistent hash ring used for placement."""
        return self._ring

    @property
    def wal_enabled(self) -> bool:
        """Whether workers write per-shard WALs."""
        return self._wal_dir is not None

    @property
    def wal_dir(self) -> Path | None:
        """Root WAL directory (``None`` when crash safety is off)."""
        return self._wal_dir

    def shard_of(self, serial: str) -> int:
        """Which shard owns a drive's state."""
        return self._ring.shard_of(serial)

    def shard_status(self) -> list[str]:
        """Per-shard lifecycle: ``serving`` / ``recovering`` / ``failed``."""
        with self._lock:
            return list(self._status)

    def shard_restarts(self) -> list[int]:
        """Supervisor respawns per shard since construction."""
        with self._lock:
            return list(self._restarts)

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until every shard has announced readiness.

        Readiness means the worker finished any snapshot restore + WAL
        replay and is consuming tasks.  Returns ``False`` on timeout.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        for event in self._ready_events:
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            if not event.wait(remaining):
                return False
        return True

    def kill_shard(self, shard: int) -> None:
        """Kill one worker abruptly — the chaos harness's entry point.

        Queues a crash sentinel that makes the worker abandon its loop
        with no snapshot and no reply (a thread cannot be killed from
        outside).  The supervisor detects the death and respawns the
        shard.  Killing the whole process is recovered by the next
        :class:`ShardSet` on the same WAL directory.
        """
        if not 0 <= shard < self.n_shards:
            raise ServeError(f"no such shard: {shard}")
        self._tasks[shard].put(_CRASH)

    def submit_block(self, serials: Sequence[str], hours: Sequence[int],
                     matrix: np.ndarray,
                     block_id: str | None = None) -> VerdictBlock:
        """Score one columnar batch; verdict columns in input row order.

        Splits the batch by shard placement, enqueues one sub-batch per
        involved shard, blocks until all parts are scored, and stitches
        the per-shard :class:`~repro.serve.scorer.VerdictBlock` columns
        back into input row order — no verdict object is materialized
        anywhere on this path.  Admission is all-or-nothing: if *any*
        involved shard is at capacity the whole batch is rejected with
        :class:`~repro.errors.BackpressureError`, and if any involved
        shard is replaying after a crash it is rejected with
        :class:`~repro.errors.ShardRecoveringError`; either way no
        sample of it is enqueued.  A malformed batch — wrong width,
        non-integer hours, a NaN or ±Inf value — is refused with
        :class:`~repro.errors.ServeError` before admission too.

        ``block_id`` names the batch for crash-safe retries: with the
        WAL enabled, resubmitting the same id after a worker died
        mid-batch returns the original verdicts without re-scoring
        (exactly-once application).  Auto-generated when omitted — auto
        ids are unique, so an unnamed batch gets no dedup protection.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ServeError(
                f"submit needs a 2-D record matrix, got {matrix.ndim}-D")
        if len(serials) != matrix.shape[0] or len(hours) != matrix.shape[0]:
            raise ServeError(
                f"column lengths disagree: {len(serials)} serials, "
                f"{len(hours)} hours, {matrix.shape[0]} record rows")
        if matrix.shape[0] == 0:
            return VerdictBlock.empty()

        try:
            hour_column = np.asarray(hours, dtype=np.int64)
        except (OverflowError, TypeError, ValueError) as error:
            raise ServeError(f"hours must be integers: {error}") from error
        # Placement is one dict lookup per row: the ring's sha256 runs
        # once per drive, for serials never admitted before.  New
        # serials join the cache only once their batch is admitted, so
        # a refused batch adds no drive.
        shards = list(map(self._placement.get, serials))
        fresh: dict[str, int] = {}
        if None in shards:
            fresh = {serial: self._ring.shard_of(serial)
                     for serial in set(serials).difference(self._placement)}
            # fresh.get(serial, cached): the new shard, else the cached one.
            shards = list(map(fresh.get, serials, shards))
        shard_column = np.asarray(shards, dtype=np.int64)
        present, first_rows = np.unique(shard_column, return_index=True)
        by_shard = {int(shard): np.flatnonzero(shard_column == shard)
                    for shard in present[np.argsort(first_rows)]}
        serial_column = np.asarray(serials, dtype=object)
        parts = {shard: (serial_column[rows].tolist(),
                         hour_column[rows].tolist(), matrix[rows])
                 for shard, rows in by_shard.items()}

        with self._lock:
            if self._stopped:
                raise ServeError("ShardSet is stopped; no new batches")
            attributes = self._bundle.attributes
            # Refused before admission: a batch no shard could score
            # (wrong width, or a NaN/±Inf value) is neither logged nor
            # counted as tracked drives.
            if matrix.shape[1] != len(attributes):
                raise ServeError(
                    f"record matrix has shape {matrix.shape}, bundle "
                    f"expects (n, {len(attributes)}) "
                    f"({', '.join(attributes)})")
            check_finite(matrix, attributes)
            for shard in by_shard:
                if self._status[shard] == "recovering":
                    raise ShardRecoveringError(shard, self._retry_after_s)
                if self._status[shard].startswith("failed"):
                    raise ServeError(
                        f"shard {shard} is failed: {self._status[shard]}")
            saturated = [shard for shard in by_shard
                         if self._inflight[shard] >= self._capacity]
            if saturated:
                raise BackpressureError(
                    saturated[0], self._retry_after_s, self._capacity)
            request_id = self._next_request
            self._next_request += 1
            if block_id is None:
                block_id = (f"auto-{os.getpid():x}-{time.time_ns():x}-"
                            f"{request_id}")
            pending = _PendingRequest(by_shard)
            self._pending[request_id] = pending
            for shard in by_shard:
                self._inflight[shard] += 1
            self._placement.update(fresh)
            # Enqueue under the same lock: stop() appends its sentinels
            # under this lock too, so an admitted batch's tasks always
            # sit ahead of the stop sentinel — drain can never skip an
            # admitted batch.  The queues are unbounded, so these puts
            # cannot block while the lock is held.
            for shard, (sub_serials, sub_hours, sub_matrix) in parts.items():
                self._tasks[shard].put((
                    request_id,
                    f"{block_id}/{shard}" if len(by_shard) > 1 else block_id,
                    sub_serials, sub_hours, sub_matrix,
                ))
        if self._wal_dir is not None:
            self._observer.count("wal_appends", len(by_shard))

        pending.done.wait()
        with self._lock:
            del self._pending[request_id]
        if pending.errors:
            if pending.died_shard is not None:
                raise ShardRecoveringError(pending.died_shard,
                                           self._retry_after_s)
            raise ServeError(
                f"shard scoring failed: {'; '.join(pending.errors)}")

        block = VerdictBlock.gather(
            list(map(str, serials)), hour_column,
            [(rows, pending.results[shard])
             for shard, rows in by_shard.items()])
        self._account(block)
        return block

    def promote(self, bundle: ModelBundle) -> list[dict[str, Any]]:
        """Atomically swap every shard's scoring models to ``bundle``.

        The swap is enqueued behind all previously admitted batches on
        every shard (under the same lock :meth:`submit_block` enqueues
        through), so the promotion is a clean fence in each shard's
        stream: batches admitted before it score with the old models,
        batches admitted after it score with the new ones, and drive
        state carries across untouched.  WAL-enabled workers rebind
        their identity file to the new bundle and snapshot immediately,
        so crash recovery replays only post-promotion records — through
        the models that logged them.

        Blocks until every shard has applied the swap; returns the
        per-shard promotion receipts in shard order.  Refuses while any
        shard is recovering or failed (a recovering shard would replay
        its WAL under the wrong identity).
        """
        payload = bundle.to_payload()
        new_sha = content_hash(payload)
        with self._lock:
            if self._stopped:
                raise ServeError("ShardSet is stopped; cannot promote")
            for shard, status in enumerate(self._status):
                if status != "serving":
                    raise ServeError(
                        f"cannot promote while shard {shard} is {status}")
            request_id = self._next_request
            self._next_request += 1
            pending = _PendingRequest(range(self.n_shards))
            self._pending[request_id] = pending
            for shard in range(self.n_shards):
                self._inflight[shard] += 1
                self._tasks[shard].put(
                    (_PROMOTE, request_id, payload, bundle.generation))
            # Respawned workers must come back under the new identity.
            self._bundle = bundle
            self._payload = payload
            for shard, settings in enumerate(self._wal_settings):
                if settings is not None:
                    self._wal_settings[shard] = replace(
                        settings, bundle_sha256=new_sha,
                        generation=bundle.generation)
        pending.done.wait()
        with self._lock:
            del self._pending[request_id]
        if pending.errors:
            if pending.died_shard is not None:
                raise ShardRecoveringError(pending.died_shard,
                                           self._retry_after_s)
            raise ServeError(
                f"bundle promotion failed: {'; '.join(pending.errors)}")
        return [dict(pending.results[shard])
                for shard in sorted(pending.results)]

    def inflight(self) -> list[int]:
        """Current batches in flight, per shard (a telemetry snapshot)."""
        with self._lock:
            return list(self._inflight)

    def drives_tracked(self) -> int:
        """Distinct drives admitted so far (sum of all shards' state)."""
        with self._lock:
            return len(self._placement)

    def stop(self) -> list[dict[str, Any]]:
        """Drain every shard and return their final snapshots.

        Sends the stop sentinel behind all queued work, so every
        admitted batch is scored before its worker exits (graceful
        drain).  The supervisor halts first — a worker exiting after
        its final snapshot is not a crash.  A shard whose worker is
        gone (failed, or killed with nobody left to respawn it) gets a
        synthesized empty snapshot instead.  Idempotent: repeated calls
        return the same snapshots.
        """
        self._supervisor_stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=10.0)
        with self._lock:
            if not self._stopped:
                self._stopped = True
                for shard, shard_queue in enumerate(self._tasks):
                    if self._exited[shard]:
                        self._store_snapshot(shard, _empty_snapshot(shard))
                    else:
                        shard_queue.put(_STOP)
        self._all_snapshots.wait(timeout=60.0)
        for worker in self._workers:
            worker.join(timeout=30.0)
        return [dict(snapshot) for snapshot in self._snapshots
                if snapshot is not None]

    # -- internals --------------------------------------------------------

    def _spawn_worker(self, shard: int) -> threading.Thread:
        """Build (not start) the worker thread for one shard."""
        return threading.Thread(
            target=self._run_worker,
            args=(shard, self._payload, self._tasks[shard],
                  self._wal_settings[shard]),
            name=f"repro-shard-{shard}", daemon=True)

    def _run_worker(self, shard: int, payload: dict, tasks: queue.Queue,
                    wal_settings: WalSettings | None) -> None:
        """Worker thread body: the shard loop, then note the exit.

        A worker that exits without a final snapshot while the set is
        stopping — it crashed just before :meth:`stop`, which halts the
        supervisor that would have respawned it — gets the synthesized
        empty snapshot, so the drain never waits on it.
        """
        try:
            _shard_worker(shard, payload, tasks, partial(self._reply, shard),
                          self._throttle_s, wal_settings)
        finally:
            with self._lock:
                self._exited[shard] = True
                if self._stopped:
                    self._store_snapshot(shard, _empty_snapshot(shard))

    def _reply(self, shard: int, kind: str, request_id: int,
               body: Any) -> None:
        """Complete one worker message, on the worker's own thread.

        ``ready`` flips a shard back to ``serving`` (reseeding the
        parent's drive census from the replayed state), ``wal_failed``
        marks it failed, and ``snapshot`` counts toward drain
        completion.  Everything else answers one waiting request: a
        worker replies once per task and only while it lives, and a
        request is failed out only after its worker is gone.
        """
        if kind == "ready":
            if body["replayed_blocks"]:
                self._observer.count("wal_replayed_blocks",
                                     body["replayed_blocks"])
            recovered = {serial: self._ring.shard_of(serial)
                         for serial in body["serials"]}
            with self._lock:
                self._status[shard] = "serving"
                self._placement.update(recovered)
                self._ready_events[shard].set()
            return
        with self._lock:
            if kind == "snapshot":
                self._store_snapshot(shard, body)
                return
            if kind == "wal_failed":
                self._status[shard] = f"failed: {body}"
                self._ready_events[shard].set()
                self._fail_pending(shard, body)
                return
            pending = self._pending[request_id]
            self._inflight[shard] -= 1
            pending.outstanding.discard(shard)
            if kind == "error":
                pending.errors.append(f"shard {shard}: {body}")
            else:
                pending.results[shard] = body
            if not pending.outstanding:
                pending.done.set()

    def _store_snapshot(self, shard: int, body: dict[str, Any]) -> None:
        """Record a shard's final snapshot (lock held); first one wins."""
        if self._snapshots[shard] is None:
            self._snapshots[shard] = body
            if all(snapshot is not None for snapshot in self._snapshots):
                self._all_snapshots.set()

    def _fail_pending(self, shard: int, message: str, *,
                      died: bool = False) -> None:
        """Fail every request still waiting on ``shard`` (lock held)."""
        for pending in self._pending.values():
            if shard in pending.outstanding:
                pending.outstanding.discard(shard)
                if died:
                    pending.died_shard = shard
                pending.errors.append(f"shard {shard}: {message}")
                if not pending.outstanding:
                    pending.done.set()

    def _respawn(self, shard: int) -> None:
        """Replace a dead worker: fail its in-flight batches, restart.

        Batches queued to the dead worker were never WAL-appended by it
        (the WAL write happens inside the worker), so failing them back
        to the caller is safe — a retry cannot double-apply.  The shard
        reports ``recovering`` (new submits are rejected with a 503
        mapping) until the replacement announces ready.
        """
        with self._lock:
            if self._stopped:
                return
            self._status[shard] = "recovering"
            self._ready_events[shard].clear()
            self._restarts[shard] += 1
            self._fail_pending(shard, "worker died mid-batch", died=True)
            self._inflight[shard] = 0
            self._exited[shard] = False
            self._tasks[shard] = queue.Queue()
            worker = self._spawn_worker(shard)
            self._workers[shard] = worker
        worker.start()
        self._observer.count("shard_restarts")

    def _supervise(self) -> None:
        """Watch the workers; respawn any that die outside a drain."""
        while not self._supervisor_stop.wait(DEFAULT_SUPERVISE_POLL_S):
            for shard in range(self.n_shards):
                with self._lock:
                    if self._stopped:
                        return
                    dead = (self._exited[shard]
                            and not self._status[shard].startswith("failed"))
                if dead:
                    self._respawn(shard)

    def _account(self, block: VerdictBlock) -> None:
        """Parent-side telemetry for one scored batch (block-wise).

        Same counter totals, histogram observations and gauge value the
        per-verdict loop produced — reassembled from verdict columns so
        the hot path never materializes a verdict for telemetry's sake.
        """
        if not len(block):
            return
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
