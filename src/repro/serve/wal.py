"""Per-shard write-ahead log with snapshot-bounded replay.

The crash-safety backbone of the serving daemon (`docs/robustness.md`):
every admitted ingest block is appended to its shard's WAL *before*
scoring, and the shard's full scorer state is checkpointed to an atomic
snapshot every N blocks — so a killed shard recovers by loading the
last snapshot and replaying only the WAL suffix past it, reproducing
its pre-crash state byte for byte.

Layout of one shard's WAL directory::

    wal.json                  # identity: schema + bundle sha256
    segment-000000000001.wal  # records, named by their first seq
    segment-000000000087.wal
    snapshot-000000000086.json  # scorer state as of seq 86

Records are framed, not bare JSONL: each is a header line
``WAL <seq> <n_bytes> <sha256>\\n`` followed by exactly ``n_bytes`` of
JSON payload and a newline.  The digest makes corruption detectable
per record, and the length makes scanning O(records), not O(bytes).
On open, a damaged or short record *at the tail of the last segment*
is a torn write (the crash happened mid-append): the segment is
truncated at the record boundary and recovery proceeds.  Damage
anywhere else means real corruption and raises
:class:`~repro.errors.WalError` — replaying past a hole would
silently diverge from the pre-crash state.

Durability is batched: ``fsync`` runs every ``fsync_every`` appends
(and always at snapshot/close).  A process killed outright
(``kill -9``) loses nothing from batching — written pages survive in
the OS cache — so crash recovery is exact even between fsyncs; only whole-machine power loss
can drop the last unsynced appends.  Set ``fsync_every=1`` for strict
power-loss durability.

Snapshots use the fsync-then-``os.replace`` pattern of
:mod:`repro.experiments.checkpoint` (via :mod:`repro.ioutil`), embed
the sequence number they cover, and prune both older snapshots and
segments wholly behind them — steady-state disk usage is one snapshot
plus the live WAL suffix.

Float fidelity: a block's sample matrix is stored as the raw
little-endian ``float64`` buffer, base64-coded — bit-exact by
construction and an order of magnitude cheaper to encode than
``repr``-ing every float on the ingest hot path.  Snapshot state still
goes through plain ``json.dumps``, whose ``repr``-based floats
round-trip ``float64`` exactly.  The canonical JSON helpers
(:mod:`repro.core.serialize`) round to 12 significant digits for
diffable artifacts and must never be used here — a rounded sample
would break replay byte-identity.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.errors import WalError
from repro.ioutil import atomic_write_text

#: Version stamped into ``wal.json``, record headers and snapshots;
#: bump on breaking format changes.
WAL_SCHEMA = 1

#: Rotate to a fresh segment once the current one exceeds this size.
DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024

#: Appends between fsyncs (1 = strict power-loss durability).
DEFAULT_FSYNC_EVERY = 8

_META_NAME = "wal.json"
_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".wal"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"
_HEADER_MAGIC = b"WAL"


def encode_block(block_id: str, serials: list[str], hours: list[int],
                 matrix: np.ndarray) -> dict[str, Any]:
    """The WAL payload for one admitted ingest block.

    The sample matrix is stored as its raw little-endian ``float64``
    buffer, base64-coded, plus its shape — bit-exact by construction
    (no float formatting at all) and cheap enough for the ingest hot
    path; :func:`decode_block` restores the identical matrix.
    """
    values = np.ascontiguousarray(matrix, dtype="<f8")
    return {
        "block_id": block_id,
        "serials": list(serials),
        "hours": [int(hour) for hour in hours],
        "shape": list(values.shape),
        "values": base64.b64encode(values.tobytes()).decode("ascii"),
    }


def decode_block(payload: dict[str, Any]) -> tuple[
        str, list[str], list[int], np.ndarray]:
    """Invert :func:`encode_block` (bit-exact float64 round-trip)."""
    try:
        shape = tuple(int(side) for side in payload["shape"])
        matrix = np.frombuffer(
            base64.b64decode(payload["values"], validate=True),
            dtype="<f8").reshape(shape).astype(np.float64, copy=True)
        return (str(payload["block_id"]),
                [str(serial) for serial in payload["serials"]],
                [int(hour) for hour in payload["hours"]],
                matrix)
    except (KeyError, TypeError, ValueError) as error:
        raise WalError(f"malformed WAL block payload: {error}") from error


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One replayable WAL entry: its sequence number and JSON payload."""

    seq: int
    payload: dict[str, Any]


@dataclass(frozen=True, slots=True)
class WalRecovery:
    """What :meth:`ShardWal.open` found on disk.

    ``snapshot`` is the newest valid snapshot's embedded state payload
    (``None`` on a fresh WAL), ``snapshot_seq`` the sequence it covers,
    and ``records`` the suffix to replay — every record with
    ``seq > snapshot_seq``, in order.
    """

    snapshot: dict[str, Any] | None
    snapshot_seq: int
    records: list[WalRecord]

    @property
    def replayed_blocks(self) -> int:
        """Records in the replay suffix."""
        return len(self.records)


class ShardWal:
    """Append-only framed log + atomic snapshots for one shard.

    Single-writer by construction: exactly one shard owns a WAL
    directory at a time, and only under that shard's lock (a crashed
    shard's handle is closed before its replacement opens the
    directory).  Not thread-safe.

    Parameters
    ----------
    directory:
        This shard's WAL directory (created on open).
    segment_max_bytes / fsync_every:
        Rotation threshold and fsync batching (see module docs).
    bundle_sha256:
        Identity of the model bundle producing the logged stream; a WAL
        written under a different bundle refuses to open, because
        replaying its blocks through other models would silently
        produce different state.
    generation:
        Lineage generation of that bundle (see
        :attr:`repro.serve.bundle.ModelBundle.generation`).  Stamped
        into the identity file and every snapshot; a WAL or snapshot
        recorded under a different generation refuses to open for the
        same reason the sha check exists — after a live promotion,
        replay must run through the models of the generation that
        logged the suffix.  ``None`` adopts whatever the directory
        already records.
    """

    def __init__(self, directory: str | Path, *,
                 segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
                 fsync_every: int = DEFAULT_FSYNC_EVERY,
                 bundle_sha256: str | None = None,
                 generation: int | None = None) -> None:
        if segment_max_bytes < 1:
            raise WalError("segment_max_bytes must be positive")
        if fsync_every < 1:
            raise WalError("fsync_every must be positive")
        self._dir = Path(directory)
        self._segment_max_bytes = int(segment_max_bytes)
        self._fsync_every = int(fsync_every)
        self._bundle_sha256 = bundle_sha256
        self._generation = generation
        self._file: Any = None
        self._segment_path: Path | None = None
        self._segment_bytes = 0
        self._last_seq = 0
        self._unsynced = 0
        self._opened = False

    # -- lifecycle --------------------------------------------------------

    @property
    def directory(self) -> Path:
        """This shard's WAL directory."""
        return self._dir

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest appended (or recovered) record."""
        return self._last_seq

    @property
    def generation(self) -> int | None:
        """Bundle generation recorded in the WAL identity (if any)."""
        return self._generation

    def open(self) -> WalRecovery:
        """Create/validate the directory and scan it for recovery.

        Returns the newest snapshot plus the record suffix past it (see
        :class:`WalRecovery`); truncates a torn tail in place.  Must be
        called exactly once, before any append.
        """
        if self._opened:
            raise WalError(f"WAL {self._dir} is already open")
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise WalError(
                f"cannot create WAL directory {self._dir}: {error}"
            ) from error
        self._check_meta()
        snapshot_seq, snapshot = self._load_newest_snapshot()
        records: list[WalRecord] = []
        segments = self._segments()
        for index, segment in enumerate(segments):
            last_segment = index == len(segments) - 1
            for record in self._scan_segment(segment,
                                             truncate_torn=last_segment):
                if record.seq != self._last_seq + 1 and self._last_seq:
                    raise WalError(
                        f"{segment}: sequence jumped from {self._last_seq} "
                        f"to {record.seq}")
                self._last_seq = record.seq
                if record.seq > snapshot_seq:
                    records.append(record)
        self._last_seq = max(self._last_seq, snapshot_seq)
        self._opened = True
        return WalRecovery(snapshot=snapshot, snapshot_seq=snapshot_seq,
                           records=records)

    def close(self) -> None:
        """Flush, fsync and close the live segment (idempotent)."""
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None
        self._opened = False

    # -- appending --------------------------------------------------------

    def append(self, payload: dict[str, Any]) -> int:
        """Frame and append one record; returns its sequence number.

        Rotates to a fresh segment when the current one is over the
        size threshold, and fsyncs every ``fsync_every`` appends.
        """
        if not self._opened:
            raise WalError("WAL must be opened before appending")
        seq = self._last_seq + 1
        body = json.dumps(payload, separators=(",", ":"),
                          sort_keys=True).encode("utf-8")
        digest = hashlib.sha256(body).hexdigest()
        frame = (_HEADER_MAGIC
                 + f" {seq} {len(body)} {digest}\n".encode("ascii")
                 + body + b"\n")
        try:
            if (self._file is None
                    or self._segment_bytes >= self._segment_max_bytes):
                self._rotate(seq)
            assert self._file is not None
            self._file.write(frame)
            self._segment_bytes += len(frame)
            self._unsynced += 1
            if self._unsynced >= self._fsync_every:
                self.sync()
            else:
                self._file.flush()
        except OSError as error:
            raise WalError(
                f"cannot append to WAL {self._dir}: {error}") from error
        self._last_seq = seq
        return seq

    def sync(self) -> None:
        """Flush and fsync the live segment (no-op when nothing is open)."""
        if self._file is None:
            return
        try:
            self._file.flush()
            os.fsync(self._file.fileno())
        except OSError as error:
            raise WalError(
                f"cannot fsync WAL {self._dir}: {error}") from error
        self._unsynced = 0

    # -- snapshots --------------------------------------------------------

    def write_snapshot(self, state: dict[str, Any]) -> Path:
        """Checkpoint ``state`` as of the last appended record.

        The snapshot is written atomically (fsync before ``os.replace``)
        after syncing the live segment, so it never references records
        that are not themselves durable.  Older snapshots and segments
        wholly covered by this one are pruned.
        """
        if not self._opened:
            raise WalError("WAL must be opened before snapshotting")
        self.sync()
        seq = self._last_seq
        path = self._dir / f"{_SNAPSHOT_PREFIX}{seq:012d}{_SNAPSHOT_SUFFIX}"
        document = {"schema": WAL_SCHEMA, "seq": seq,
                    "bundle_sha256": self._bundle_sha256,
                    "generation": self._generation, "state": state}
        body = json.dumps(document, separators=(",", ":"), sort_keys=True)
        try:
            atomic_write_text(path, body + "\n")
        except OSError as error:
            raise WalError(
                f"cannot write WAL snapshot {path}: {error}") from error
        self._prune(seq)
        return path

    # -- internals --------------------------------------------------------

    def _check_meta(self) -> None:
        """Create or validate the WAL identity file."""
        meta_path = self._dir / _META_NAME
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as error:
                raise WalError(
                    f"unreadable WAL meta {meta_path}: {error}") from error
            recorded = meta.get("bundle_sha256")
            if (self._bundle_sha256 is not None and recorded is not None
                    and recorded != self._bundle_sha256):
                raise WalError(
                    f"WAL {self._dir} was written by bundle "
                    f"{recorded[:12]}…, refusing to replay it through "
                    f"bundle {self._bundle_sha256[:12]}… — move the WAL "
                    f"aside or serve the original bundle")
            recorded_gen = meta.get("generation")
            if (self._generation is not None and recorded_gen is not None
                    and int(recorded_gen) != self._generation):
                raise WalError(
                    f"WAL {self._dir} was written under bundle "
                    f"generation {recorded_gen}, refusing to replay it "
                    f"through generation {self._generation} — recover "
                    f"with the bundle generation that logged it")
            if self._generation is None and recorded_gen is not None:
                self._generation = int(recorded_gen)
            if meta.get("schema") != WAL_SCHEMA:
                raise WalError(
                    f"WAL {self._dir} has schema {meta.get('schema')!r}, "
                    f"this build reads schema {WAL_SCHEMA}")
            return
        self._write_meta()

    def _write_meta(self) -> None:
        """Atomically (re)write the WAL identity file."""
        meta_path = self._dir / _META_NAME
        try:
            atomic_write_text(meta_path, json.dumps(
                {"schema": WAL_SCHEMA,
                 "bundle_sha256": self._bundle_sha256,
                 "generation": self._generation},
                sort_keys=True) + "\n")
        except OSError as error:
            raise WalError(
                f"cannot write WAL meta {meta_path}: {error}") from error

    def rebind(self, bundle_sha256: str, generation: int) -> None:
        """Re-identify an open WAL to a newly promoted bundle.

        Atomically rewrites the identity file with the new sha256 and
        generation; the caller (a shard applying a promotion) must
        snapshot immediately after, so the replayable suffix never
        crosses a bundle boundary — everything past the post-promote
        snapshot was logged, and will be replayed, under the new
        models.
        """
        if not self._opened:
            raise WalError("WAL must be opened before rebinding")
        self._bundle_sha256 = bundle_sha256
        self._generation = int(generation)
        self._write_meta()

    def _segments(self) -> list[Path]:
        """Segment files sorted by first sequence number."""
        return sorted(self._dir.glob(
            f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))

    def _snapshots(self) -> list[Path]:
        """Snapshot files sorted by covered sequence number."""
        return sorted(self._dir.glob(
            f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}"))

    def _load_newest_snapshot(self) -> tuple[int, dict[str, Any] | None]:
        """The newest valid snapshot's ``(seq, state)``, or ``(0, None)``.

        An unreadable *newest* snapshot falls back to the previous one
        (its covered records are still in un-pruned segments, so
        recovery stays exact); the damaged file is ignored.
        """
        for path in reversed(self._snapshots()):
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
                seq = int(document["seq"])
                state = document["state"]
            except (OSError, json.JSONDecodeError, KeyError,
                    TypeError, ValueError):
                continue
            if (self._bundle_sha256 is not None
                    and document.get("bundle_sha256") is not None
                    and document["bundle_sha256"] != self._bundle_sha256):
                raise WalError(
                    f"WAL snapshot {path} was produced by a different "
                    f"bundle; refusing to restore from it")
            snapshot_gen = document.get("generation")
            if (self._generation is not None and snapshot_gen is not None
                    and int(snapshot_gen) != self._generation):
                raise WalError(
                    f"WAL snapshot {path} was produced under bundle "
                    f"generation {snapshot_gen}, this WAL expects "
                    f"generation {self._generation}; refusing to "
                    f"restore from it")
            return seq, state
        return 0, None

    def _scan_segment(self, path: Path, *,
                      truncate_torn: bool) -> Iterator[WalRecord]:
        """Yield every valid record of one segment, in order.

        A damaged record ends the scan: with ``truncate_torn`` (the last
        segment) the file is truncated at the damage and the torn bytes
        discarded; otherwise damage is corruption and raises
        :class:`~repro.errors.WalError`.
        """
        try:
            with path.open("rb") as handle:
                while True:
                    start = handle.tell()
                    header = handle.readline()
                    if not header:
                        return
                    record = self._parse_record(handle, header)
                    if record is None:
                        if not truncate_torn:
                            raise WalError(
                                f"corrupt WAL record at {path}:{start} "
                                f"with later data present; refusing to "
                                f"replay past a hole")
                        with path.open("r+b") as writer:
                            writer.truncate(start)
                        return
                    yield record
        except OSError as error:
            raise WalError(
                f"cannot read WAL segment {path}: {error}") from error

    @staticmethod
    def _parse_record(handle: Any, header: bytes) -> WalRecord | None:
        """Decode one framed record; ``None`` on any damage."""
        parts = header.split()
        if (len(parts) != 4 or parts[0] != _HEADER_MAGIC
                or not header.endswith(b"\n")):
            return None
        try:
            seq, n_bytes = int(parts[1]), int(parts[2])
        except ValueError:
            return None
        expected = parts[3].decode("ascii", errors="replace")
        body = handle.read(n_bytes + 1)
        if len(body) != n_bytes + 1 or not body.endswith(b"\n"):
            return None
        body = body[:-1]
        if hashlib.sha256(body).hexdigest() != expected:
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return WalRecord(seq=seq, payload=payload)

    def _rotate(self, first_seq: int) -> None:
        """Open a fresh segment that will start at ``first_seq``."""
        if self._file is not None:
            self.sync()
            self._file.close()
        self._segment_path = self._dir / (
            f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}")
        self._file = self._segment_path.open("ab")
        self._segment_bytes = self._segment_path.stat().st_size
        self._unsynced = 0

    def _prune(self, snapshot_seq: int) -> None:
        """Drop snapshots and segments made redundant by ``snapshot_seq``.

        A segment is redundant when the *next* segment starts at or
        before ``snapshot_seq + 1`` (every record it holds is covered);
        the live segment is never pruned.  Pruning failures are
        non-fatal — stale files cost disk, not correctness.
        """
        for path in self._snapshots()[:-1]:
            try:
                path.unlink()
            except OSError:
                pass
        segments = self._segments()
        firsts = [self._segment_first_seq(path) for path in segments]
        for index, path in enumerate(segments[:-1]):
            if path == self._segment_path:
                continue
            next_first = firsts[index + 1]
            if next_first is not None and next_first <= snapshot_seq + 1:
                try:
                    path.unlink()
                except OSError:
                    pass

    @staticmethod
    def _segment_first_seq(path: Path) -> int | None:
        """The first sequence number encoded in a segment's file name."""
        stem = path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
        try:
            return int(stem)
        except ValueError:
            return None

    def __enter__(self) -> "ShardWal":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.close()
        return False
