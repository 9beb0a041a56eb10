"""Serving-plane chaos: seeded crash drills for the WAL recovery path.

Where :mod:`repro.faults.injectors` corrupts *data*, this module kills
*shards*: it drives a :class:`~repro.serve.shard.ShardSet` through a
scripted ingest stream while crashing shards at seeded points,
then lets the caller compare the surviving verdict stream byte for byte
against an uninterrupted run.  The paper's serving claim — crash
recovery reproduces the exact pre-crash state — is only testable by
actually crashing, so the drill is a library function rather than a
shell script: deterministic (a seed fully fixes the kill schedule,
and each kill is :meth:`~repro.serve.shard.ShardSet.kill_shard`, which
drops the shard's in-memory state and replays it from its WAL) and
assertion-friendly (it returns the verdict lines in stream order).

:class:`BlackholeSink` is the delivery-plane counterpart: an alert sink
that refuses every emit, for drills that pin the dead-letter file's
contents under total sink outage.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

import numpy as np

from repro.errors import FaultInjectionError, ShardRecoveringError, SinkError
from repro.serve.shard import ShardSet
from repro.serve.sinks import AlertSink

#: How long one drill waits for a killed shard to finish recovering
#: before declaring its replay broken.
DEFAULT_RECOVERY_TIMEOUT_S = 60.0


def kill_plan(n_blocks: int, n_kills: int, n_shards: int, *,
              seed: int = 0) -> list[tuple[int, int]]:
    """A seeded schedule of ``(block_index, shard)`` kill points.

    Kills land strictly between block submissions — *before* the block
    at ``block_index`` is submitted — at distinct positions chosen
    uniformly from the stream's interior (never before block 0, so
    every drill scores something pre-crash).  Equal arguments produce
    the identical plan, which is what makes a crash drill re-runnable.
    """
    if n_kills < 0:
        raise FaultInjectionError(f"n_kills must be >= 0, got {n_kills}")
    if n_shards < 1:
        raise FaultInjectionError(f"n_shards must be >= 1, got {n_shards}")
    if n_kills >= n_blocks:
        raise FaultInjectionError(
            f"cannot place {n_kills} kills in a {n_blocks}-block stream "
            f"(need at least one more block than kills)")
    rng = np.random.default_rng(seed)
    positions = sorted(rng.choice(
        np.arange(1, n_blocks), size=n_kills, replace=False).tolist())
    shards = rng.integers(0, n_shards, size=n_kills).tolist()
    return [(int(position), int(shard))
            for position, shard in zip(positions, shards)]


def run_chaos_stream(shards: ShardSet,
                     blocks: Sequence[tuple[Sequence[str], Sequence[int],
                                            np.ndarray]],
                     plan: Sequence[tuple[int, int]] = (), *,
                     block_id_prefix: str = "chaos",
                     recovery_timeout_s: float = DEFAULT_RECOVERY_TIMEOUT_S,
                     ) -> list[str]:
    """Drive ``blocks`` through ``shards``, killing shards per ``plan``.

    Each block is submitted with a stable ``block_id``
    (``<prefix>-<index>``) and retried on
    :class:`~repro.errors.ShardRecoveringError` until it scores, so a
    block whose shard crashed in the ack gap — WAL-appended but
    unanswered — is recovered through the dedup cache rather than
    double-scored.  Before submitting block ``i``, every plan entry
    ``(i, shard)`` kills that shard abruptly.  Returns every verdict as
    its canonical JSON line, in stream order — byte-comparable against
    an uninterrupted run of the same blocks.

    Raises :class:`~repro.errors.FaultInjectionError` when a shard
    fails to recover within ``recovery_timeout_s`` — the drill's way of
    reporting a broken replay instead of hanging the suite.
    """
    schedule: dict[int, list[int]] = {}
    for position, shard in plan:
        if not 0 <= shard < shards.n_shards:
            raise FaultInjectionError(
                f"kill plan names shard {shard} of {shards.n_shards}")
        schedule.setdefault(int(position), []).append(int(shard))
    lines: list[str] = []
    for index, (serials, hours, matrix) in enumerate(blocks):
        for shard in schedule.get(index, ()):
            shards.kill_shard(shard)
        deadline = time.monotonic() + recovery_timeout_s
        while True:
            try:
                block = shards.submit_block(
                    serials, hours, matrix,
                    block_id=f"{block_id_prefix}-{index}")
            except ShardRecoveringError as error:
                if time.monotonic() > deadline:
                    raise FaultInjectionError(
                        f"shard {error.shard} did not recover within "
                        f"{recovery_timeout_s:g}s at block {index}"
                    ) from error
                time.sleep(min(0.02, max(error.retry_after_s, 0.001)))
                continue
            break
        lines.extend(block.to_json_lines())
    return lines


class BlackholeSink(AlertSink):
    """An alert sink that drops every delivery on the floor.

    ``emit`` always raises :class:`~repro.errors.SinkError` — the
    stand-in for a pager endpoint that is hard-down.  With a
    dead-letter file configured, every alert the daemon tried to send
    through this sink must appear there, byte for byte; the chaos
    tests pin exactly that.
    """

    kind = "blackhole"

    def __init__(self) -> None:
        self._attempts = 0

    @property
    def attempts(self) -> int:
        """Delivery attempts absorbed (including retries)."""
        return self._attempts

    def emit(self, line: str) -> None:
        """Refuse the delivery."""
        self._attempts += 1
        raise SinkError("blackhole sink dropped an alert")

    def describe(self) -> str:
        """``blackhole`` (the sink has no destination by design)."""
        return self.kind


def verdict_lines(blocks: Sequence[Any]) -> list[str]:
    """Flatten scored blocks into one canonical-JSONL verdict stream.

    Convenience for drills that score reference streams through
    :meth:`~repro.serve.scorer.StreamScorer.score_block` and compare
    them against :func:`run_chaos_stream` output.
    """
    lines: list[str] = []
    for block in blocks:
        lines.extend(block.to_json_lines())
    return lines
