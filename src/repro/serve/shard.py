"""Consistent-hash sharding of per-drive scoring state.

The serving daemon's horizontal seam: a :class:`ShardSet` owns ``n``
shards, each holding one :class:`~repro.serve.scorer.StreamScorer` —
the bundle's stateless verdict kernel plus the one keyed
:class:`~repro.core.columnar.ColumnStateStore` that shard's drives
live in — behind its own lock.  Drives map to shards by consistent
hash of their serial (:class:`HashRing` — sha256-based, so the mapping
is stable across processes and Python hash seeds), which keeps every
drive's state (its last severity level) inside exactly one shard no
matter how batches arrive.

Sharding is a pure performance knob: verdicts are per-sample functions
of the record (and per-drive state keys on the serial), so a
:meth:`ShardSet.submit_block` returns byte-identical verdicts for any shard
count — the daemon's golden tests pin shard counts 1, 2 and 4 against
offline ``repro-serve score``.  A shard is a place to keep per-drive
state and its WAL, not a unit of parallel maths, so it owns no thread:
:meth:`ShardSet.submit_block` scores each involved shard's sub-batch
itself, on the caller's thread.  A batch takes the locks of all its
shards in ascending shard order and holds them until its last
sub-batch is scored, so concurrent batches stay serializable.

Backpressure is explicit and all-or-nothing: the set counts batches in
flight per shard, and a batch whose target shard is at capacity is
rejected with :class:`~repro.errors.BackpressureError` *before any
sample of it is scored* — a rejected batch is never half-scored, so
retries cannot double-count a drive-hour.

Crash safety is opt-in via ``wal_dir``: each shard then appends every
admitted sub-batch to its own :class:`~repro.serve.wal.ShardWal`
*before* scoring and checkpoints its scorer state every
``snapshot_interval_blocks``.  Construction replays each shard's
snapshot + WAL suffix into byte-identical state, so a whole-process
kill is recovered by the next :class:`ShardSet` on the same directory.
:meth:`ShardSet.kill_shard` (chaos only) crashes one shard in place: it
reports ``recovering`` (new batches get
:class:`~repro.errors.ShardRecoveringError`) while one short-lived
thread rebuilds it the same way.  Replayed (and recently scored) blocks
are remembered by their caller-supplied ``block_id``, so a client
retrying a batch that died in the ack gap — appended to the WAL but
never answered — gets the cached verdicts instead of double-scoring.

Shard scorers run with the null observer; the set accounts
``samples_scored`` / ``alerts_emitted`` / ``verdict_stage`` /
``drives_tracked`` once per gathered batch (plus the recovery counters
``wal_appends`` / ``wal_replayed_blocks`` / ``shard_restarts``), so
telemetry totals match the unsharded path exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
from bisect import bisect_right
from collections import OrderedDict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import (BackpressureError, ServeError,
                          ShardRecoveringError, WalError)
from repro.obs.observer import NULL_OBSERVER, PipelineObserver, resolve_observer
from repro.serve.bundle import ModelBundle, content_hash
from repro.serve.scorer import StreamScorer, VerdictBlock, check_batch
from repro.serve.wal import (DEFAULT_FSYNC_EVERY, ShardWal, WalRecovery,
                             decode_block, encode_block)

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



def _remember(dedup: "OrderedDict[str, Any]", block_id: str, value: Any,
              limit: int) -> None:
    """Cache one block's outcome for duplicate-delivery detection."""
    dedup[block_id] = value
    while len(dedup) > limit:
        dedup.popitem(last=False)


def replay_wal(scorer: StreamScorer, recovery: WalRecovery,
               ) -> Iterator[tuple[str, VerdictBlock | str]]:
    """Replay an opened WAL into ``scorer`` the way a restarting shard does.

    Restores the recovery's last snapshot, then scores every logged
    block after it in order, yielding each ``block_id`` with its
    outcome: the :class:`VerdictBlock`, or the ``"<Error>: <message>"``
    text of a block that failed to score — a restarted shard caches
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


class _Shard:
    """One shard's scorer, WAL and dedup cache, guarded by ``lock``.

    ``scorer`` is ``None`` while the shard is crashed or failed.
    """

    __slots__ = ("lock", "scorer", "wal", "dedup", "since_snapshot")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.scorer: StreamScorer | None = None
        self.wal: ShardWal | None = None
        self.dedup: "OrderedDict[str, Any]" = OrderedDict()
        self.since_snapshot = 0


class ShardSet:
    """A fleet of shards behind one synchronous ``submit_block`` API.

    Parameters
    ----------
    bundle:
        The model bundle every shard scores with.
    n_shards:
        Shard count; drives spread across shards by consistent hash.
    queue_capacity:
        Batches in flight per shard before :meth:`submit_block` rejects with
        :class:`~repro.errors.BackpressureError`.
    observer:
        Telemetry sink for the set's accounting; the shard scorers
        themselves are silent.
    throttle_s:
        Artificial delay per sub-batch, slept under the shard's lock.
        A load-testing knob: the backpressure and drain tests use it to
        hold batches in flight deterministically.  Leave at ``0.0`` in
        production.
    retry_after_s:
        The wait hint carried by raised backpressure and
        shard-recovering errors; finite and ``>= 0``.
    wal_dir:
        Root directory for per-shard write-ahead logs (crash safety
        off when ``None``).  Shard ``k`` logs under
        ``wal_dir/shard-<k>``; an existing WAL is replayed during
        construction, so a restarted ShardSet resumes exactly where the
        previous one died.
    snapshot_interval_blocks / wal_fsync_every:
        WAL tuning, see :mod:`repro.serve.wal`.
    crash_after_seq:
        Chaos hook, per shard: ``{shard: seq}`` crashes that shard
        right after it appends WAL record ``seq`` — inside the ack gap,
        the hardest window for exactly-once semantics.  The batch that
        hit it gets :class:`~repro.errors.ShardRecoveringError`.
        Test-only.
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
                 crash_after_seq: Mapping[int, int] | None = None) -> None:
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
        self._bundle = bundle
        self._bundle_sha256 = content_hash(bundle.to_payload())
        self._capacity = queue_capacity
        self._observer = resolve_observer(observer)
        self._throttle_s = float(throttle_s)
        self._retry_after_s = float(retry_after_s)
        self._ring = HashRing(n_shards)
        self._wal_dir = Path(wal_dir) if wal_dir is not None else None
        self._wal_fsync_every = wal_fsync_every
        self._snapshot_interval = snapshot_interval_blocks
        self._dedup_limit = max(256, 2 * snapshot_interval_blocks)
        self._crash_after_seq = dict(crash_after_seq or {})
        self._auto_ids = itertools.count()
        # The set lock guards admission and bookkeeping; ``_changed``
        # wakes quiesce and admission waiters.  Lock order: a thread
        # holding shard locks may take the set lock, never the reverse.
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._inflight = [0] * n_shards
        self._held = False
        self._stopped = False
        self._placement: dict[str, int] = {}
        self._snapshots: list[dict[str, Any]] | None = None
        self._status = ["recovering"] * n_shards
        self._restarts = [0] * n_shards
        self._shards = [_Shard() for _ in range(n_shards)]
        for index in range(n_shards):
            self._recover(index)

    # -- public surface ---------------------------------------------------

    @property
    def n_shards(self) -> int:
        """Number of shards."""
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
        """Whether shards write per-shard WALs."""
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
        """Crash recoveries per shard since construction."""
        with self._lock:
            return list(self._restarts)

    def kill_shard(self, shard: int) -> None:
        """Crash one shard in place — the chaos harness's entry point.

        Once the shard's in-flight sub-batch (if any) is done, its
        scorer and dedup cache are dropped and it reports
        ``recovering``: batches for it are refused with
        :class:`~repro.errors.ShardRecoveringError`, including ones
        admitted before the kill that had not reached it yet.  One
        short-lived thread then replays it from snapshot + WAL suffix
        (see :meth:`_crash`).  Killing the whole process is recovered
        by the next :class:`ShardSet` on the same WAL directory.  A
        no-op once :meth:`stop` has begun.
        """
        if not 0 <= shard < self.n_shards:
            raise ServeError(f"no such shard: {shard}")
        with self._shards[shard].lock:
            with self._lock:
                if self._stopped:
                    return
            self._crash(shard)

    def submit_block(self, serials: Sequence[str], hours: Sequence[int],
                     matrix: np.ndarray,
                     block_id: str | None = None) -> VerdictBlock:
        """Score one columnar batch; verdict columns in input row order.

        Splits the batch by shard placement, scores each involved
        shard's sub-batch on the calling thread, and stitches the
        per-shard :class:`~repro.serve.scorer.VerdictBlock` columns back
        into input row order — no verdict object is materialized
        anywhere on this path.  Admission is all-or-nothing: if *any*
        involved shard is at capacity the whole batch is rejected with
        :class:`~repro.errors.BackpressureError`, and if any involved
        shard is replaying after a crash it is rejected with
        :class:`~repro.errors.ShardRecoveringError`; either way no
        sample of it is scored.  A malformed batch
        (:func:`~repro.serve.scorer.check_batch`: not 2-D, wrong width,
        columns of different lengths, non-integer hours, a NaN or ±Inf
        value) is refused with :class:`~repro.errors.ServeError` before
        admission too.  While :meth:`promote` runs, admission waits for
        it.

        ``block_id`` names the batch for crash-safe retries: with the
        WAL enabled, resubmitting the same id after a shard crashed
        mid-batch returns the original verdicts without re-scoring
        (exactly-once application).  Auto-generated when omitted — auto
        ids are unique, so an unnamed batch gets no dedup protection.
        """
        # Refused before admission: a batch no shard could score is
        # neither logged nor counted as tracked drives.
        matrix, hour_column = check_batch(serials, hours, matrix,
                                          self._bundle.attributes)
        if matrix.shape[0] == 0:
            return VerdictBlock.empty()
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
        by_shard = {int(shard): np.flatnonzero(shard_column == shard)
                    for shard in np.unique(shard_column)}

        with self._lock:
            while self._held and not self._stopped:
                self._changed.wait()
            if self._stopped:
                raise ServeError("ShardSet is stopped; no new batches")
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
            for shard in by_shard:
                self._inflight[shard] += 1
            self._placement.update(fresh)
        if block_id is None:
            block_id = (f"auto-{os.getpid():x}-{time.time_ns():x}-"
                        f"{next(self._auto_ids)}")
        if self._wal_dir is not None:
            self._observer.count("wal_appends", len(by_shard))

        serial_column = np.asarray(serials, dtype=object)
        results: dict[int, VerdictBlock] = {}
        try:
            with ExitStack() as held:
                for shard in by_shard:  # ascending: np.unique sorts
                    held.enter_context(self._shards[shard].lock)
                for shard, rows in by_shard.items():
                    results[shard] = self._score_part(
                        shard,
                        f"{block_id}/{shard}" if len(by_shard) > 1
                        else block_id,
                        serial_column[rows].tolist(),
                        hour_column[rows].tolist(), matrix[rows])
        finally:
            with self._lock:
                for shard in by_shard:
                    self._inflight[shard] -= 1
                self._changed.notify_all()

        block = VerdictBlock.gather(
            list(map(str, serials)), hour_column,
            [(rows, results[shard]) for shard, rows in by_shard.items()])
        self._account(block)
        return block

    def promote(self, bundle: ModelBundle) -> list[dict[str, Any]]:
        """Atomically swap every shard's scoring models to ``bundle``.

        Holds new admissions and waits for every admitted batch to
        finish before swapping, so the promotion is a clean fence:
        batches admitted before it score wholly with the old models,
        batches admitted after it wholly with the new ones, and drive
        state carries across untouched.  WAL-enabled shards rebind
        their identity file to the new bundle and snapshot immediately,
        so crash recovery replays only post-promotion records — through
        the models that logged them.

        Returns the per-shard promotion receipts in shard order.  A
        shard replaying after a crash is waited out (it replays under
        the identity its WAL was logged with); a failed shard refuses
        the promotion.
        """
        bundle_sha256 = content_hash(bundle.to_payload())
        with self._quiesced(), ExitStack() as held:
            # Every shard lock at once: no kill can land mid-promotion.
            for shard in self._shards:
                held.enter_context(shard.lock)
            with self._lock:
                if self._stopped:
                    raise ServeError("ShardSet is stopped; cannot promote")
                for index, status in enumerate(self._status):
                    if status != "serving":
                        raise ServeError(
                            f"cannot promote while shard {index} is "
                            f"{status}")
            receipts = []
            for index, shard in enumerate(self._shards):
                try:
                    shard.scorer.swap_bundle(bundle)
                    if shard.wal is not None:
                        shard.wal.rebind(bundle_sha256, bundle.generation)
                        shard.wal.write_snapshot(shard.scorer.dump_state())
                        shard.since_snapshot = 0
                except (ServeError, WalError) as error:
                    raise ServeError(
                        f"bundle promotion failed: shard {index}: "
                        f"{type(error).__name__}: {error}") from error
                receipts.append({
                    "shard": index,
                    "generation": int(bundle.generation),
                    "snapshot_seq": (shard.wal.last_seq
                                     if shard.wal is not None else 0),
                })
            # A shard rebuilt later (kill_shard) comes back under the
            # new identity.
            with self._lock:
                self._bundle = bundle
                self._bundle_sha256 = bundle_sha256
        return receipts

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

        Refuses new batches, waits until every admitted batch (and any
        crash replay) has finished, then checkpoints each WAL-enabled
        shard and closes its log.  A failed shard contributes an empty
        snapshot.  Idempotent: repeated calls return the same
        snapshots.
        """
        with self._lock:
            self._stopped = True
        with self._quiesced():
            if self._snapshots is None:
                self._snapshots = [self._final_snapshot(index)
                                   for index in range(self.n_shards)]
        return [dict(snapshot) for snapshot in self._snapshots]

    # -- internals --------------------------------------------------------

    def _score_part(self, index: int, block_id: str, serials: list[str],
                    hours: list[int], matrix: np.ndarray) -> VerdictBlock:
        """Score one shard's sub-batch (shard lock held).

        A ``block_id`` seen before (replayed from the WAL, or recently
        scored) answers its cached outcome without re-scoring — the
        exactly-once half of crash recovery.  Otherwise the sub-batch
        is appended to the WAL *before* scoring, scored as one columnar
        block, and every ``snapshot_interval_blocks`` scored blocks the
        scorer state is checkpointed, bounding replay time.
        """
        shard = self._shards[index]
        if self._throttle_s > 0.0:
            time.sleep(self._throttle_s)
        if shard.scorer is None:  # crashed after this batch was admitted
            raise ShardRecoveringError(index, self._retry_after_s)
        cached = shard.dedup.get(block_id)
        if cached is not None:
            if isinstance(cached, str):
                raise ServeError(f"shard scoring failed: shard {index}: "
                                 f"{cached}")
            return cached
        wal = shard.wal
        if wal is not None:
            try:
                seq = wal.append(encode_block(block_id, serials, hours,
                                              matrix))
            except WalError as error:
                raise ServeError(f"shard scoring failed: shard {index}: "
                                 f"WalError: {error}") from error
            if seq == self._crash_after_seq.get(index):
                wal.sync()
                self._crash(index)
                raise ShardRecoveringError(index, self._retry_after_s)
        try:
            block = shard.scorer.score_block(serials, hours, matrix)
        except Exception as error:
            message = f"{type(error).__name__}: {error}"
            if wal is not None:
                _remember(shard.dedup, block_id, message, self._dedup_limit)
            raise ServeError(f"shard scoring failed: shard {index}: "
                             f"{message}") from error
        if wal is not None:
            _remember(shard.dedup, block_id, block, self._dedup_limit)
            shard.since_snapshot += 1
            if shard.since_snapshot >= self._snapshot_interval:
                try:
                    wal.write_snapshot(shard.scorer.dump_state())
                except WalError:
                    pass  # next interval retries; replay just stays longer
                shard.since_snapshot = 0
        return block

    def _crash(self, index: int) -> None:
        """Drop a shard's in-memory state and replay it (shard lock held).

        The shard reports ``recovering`` until a short-lived thread has
        waited ``retry_after_s`` — the wait its refusals advertise, and
        the restart a real crash needs — and replayed the shard under
        its lock.  The WAL handle is closed without a checkpoint, so
        the replay sees exactly what the crash left on disk.
        """
        shard = self._shards[index]
        with self._lock:
            self._status[index] = "recovering"
            self._restarts[index] += 1
        if shard.wal is not None:
            try:
                shard.wal.close()
            except WalError:
                pass  # its records are already flushed to the segment
        shard.scorer, shard.wal = None, None
        shard.dedup = OrderedDict()
        shard.since_snapshot = 0
        self._observer.count("shard_restarts")
        threading.Thread(target=self._restart, args=(index,),
                         name=f"repro-shard-{index}-replay",
                         daemon=True).start()

    def _restart(self, index: int) -> None:
        """Body of a crashed shard's replay thread."""
        time.sleep(self._retry_after_s)
        self._recover(index)

    def _recover(self, index: int) -> None:
        """Build one shard from its WAL, under the shard's lock.

        A fresh scorer; with WAL enabled, the last checkpoint restored
        and the WAL suffix replayed (each replayed block's outcome
        cached under its ``block_id``).  An unusable WAL or a malformed
        snapshot leaves the shard ``failed: …`` — serving blindly
        without the log it was asked to keep would be worse.
        """
        shard = self._shards[index]
        with shard.lock:
            with self._lock:
                bundle, bundle_sha256 = self._bundle, self._bundle_sha256
            scorer = StreamScorer(bundle, observer=NULL_OBSERVER)
            status, replayed = "serving", 0
            if self._wal_dir is not None:
                wal = ShardWal(self._wal_dir / f"shard-{index:03d}",
                               fsync_every=self._wal_fsync_every,
                               bundle_sha256=bundle_sha256,
                               generation=bundle.generation)
                try:
                    recovery = wal.open()
                    for block_id, outcome in replay_wal(scorer, recovery):
                        _remember(shard.dedup, block_id, outcome,
                                  self._dedup_limit)
                    replayed = recovery.replayed_blocks
                    shard.wal = wal
                except Exception as error:  # WalError, ServeError, torn data
                    status = f"failed: {type(error).__name__}: {error}"
                    scorer = None
            shard.scorer = scorer
        if replayed:
            self._observer.count("wal_replayed_blocks", replayed)
        recovered = ({serial: self._ring.shard_of(serial)
                      for serial in scorer.state.serials()}
                     if scorer is not None else {})
        with self._lock:
            self._status[index] = status
            self._placement.update(recovered)
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
                lambda: not any(self._inflight)
                and "recovering" not in self._status)
        try:
            yield
        finally:
            with self._lock:
                self._held = False
                self._changed.notify_all()

    def _final_snapshot(self, index: int) -> dict[str, Any]:
        """Checkpoint and close one shard; its counters and drive state."""
        shard = self._shards[index]
        with shard.lock:
            scorer = shard.scorer
            if scorer is None:
                return {"shard": index, "samples_scored": 0,
                        "alerts_emitted": 0, "drives_tracked": 0,
                        "state": None}
            if shard.wal is not None:
                try:
                    shard.wal.write_snapshot(scorer.dump_state())
                    shard.wal.close()
                except WalError:
                    pass  # a failed final checkpoint only lengthens replay
            return {
                "shard": index,
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
