"""``repro-serve`` — score live SMART telemetry against a model bundle.

The deployment-side entry point.  Where ``repro-characterize`` trains
(and, with ``--export-model``, publishes) the models, ``repro-serve``
consumes the published artifact:

* ``score`` — read a sample stream (CSV rows of ``serial,hour,<Table I
  attributes>``, stdin by default) and emit one canonical JSON verdict
  line per sample;
* ``replay`` — push a whole dataset through one scorer at maximum
  throughput;
* ``watch`` — the ``daemon`` below with one shard, fed from a CSV
  stream instead of ``POST /ingest``: verdicts come out exactly as
  ``score`` writes them, while the daemon's HTTP surface answers
  (``/metrics``, ``/health``, ``/status``, ``/recorder`` and its POST
  routes) and a flight recorder keeps the recent alerts;
* ``daemon`` — the fleet-scale serving process: samples arrive over
  HTTP (``POST /ingest``), score on ``--shards`` consistent-hash
  shards with bounded queues and explicit 429 backpressure, and alerts
  fan out to ``--alert-sink`` destinations; SIGTERM drains gracefully
  (see :mod:`repro.serve.daemon` and ``docs/operations.md``);
* ``recover`` — offline crash-recovery tooling: replay a daemon's
  per-shard WAL directories (``--wal-dir``) the way a restarted shard
  would and print the recovered counters, and/or re-deliver a
  dead-letter file (``--dead-letter``) through fresh sinks.

Examples::

   repro-characterize --simulate 2000 --export-model fleet.bundle.json
   repro-serve score --bundle fleet.bundle.json < stream.csv
   repro-serve replay --bundle fleet.bundle.json --simulate 500
   repro-serve watch --bundle fleet.bundle.json --port 9100 < stream.csv
   repro-serve daemon --bundle fleet.bundle.json --shards 4 --port 9200 \\
       --wal-dir /var/lib/repro/wal --dead-letter dead-letters.jsonl \\
       --alert-sink jsonl:alerts.jsonl
   repro-serve recover --bundle fleet.bundle.json \\
       --wal-dir /var/lib/repro/wal
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import signal
import sys
import threading
import time
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro.core.serialize import canonical_json_dumps
from repro.errors import ReproError, ServeError
from repro.obs import logging as obs_logging
from repro.obs.export import PeriodicSnapshotWriter
from repro.obs.observer import (
    NULL_OBSERVER,
    PipelineObserver,
    TelemetryObserver,
)
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.serve.bundle import content_hash, load_bundle
from repro.serve.daemon import ServingDaemon
from repro.serve.scorer import (StreamScorer, VerdictBlock,
                                first_hour_out_of_range)
from repro.serve.shard import (DEFAULT_QUEUE_CAPACITY,
                               DEFAULT_SNAPSHOT_INTERVAL_BLOCKS, replay_wal)
from repro.serve.sinks import parse_sink_spec, reprocess_dead_letter
from repro.serve.wal import ShardWal

#: Rows per column block on the ``score`` stream — one normalizer pass
#: and one tree pass per group per block, while keeping arrival-order
#: latency bounded.
STREAM_BATCH_SIZE = 256


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument grammar, one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Score SMART telemetry streams against a trained "
                    "degradation model bundle.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, *,
                   require_bundle: bool = True) -> None:
        sub.add_argument("--bundle", required=require_bundle, metavar="PATH",
                         help="model bundle written by "
                              "'repro-characterize --export-model'")
        telemetry = sub.add_argument_group("telemetry")
        telemetry.add_argument("-v", "--verbose", action="count", default=0,
                               help="log progress (-vv for debug)")
        telemetry.add_argument("--log-json", action="store_true",
                               help="emit log records as JSON lines")
        telemetry.add_argument("--trace", metavar="PATH", default=None,
                               help="write the span tree here as JSON")
        telemetry.add_argument("--metrics", metavar="PATH", default=None,
                               help="write the metrics snapshot here as JSON")

    score = commands.add_parser(
        "score", help="score a CSV sample stream to JSONL verdicts")
    add_common(score)
    score.add_argument("--input", metavar="PATH", default="-",
                       help="sample stream: CSV with a "
                            "'serial,hour,<attributes>' header "
                            "(default '-': stdin)")
    score.add_argument("--output", metavar="PATH", default=None,
                       help="write JSONL verdicts here (default: stdout)")
    score.add_argument("--alerts-only", action="store_true",
                       help="emit only WATCH/CRITICAL verdicts")

    replay = commands.add_parser(
        "replay", help="replay a whole dataset at maximum throughput")
    add_common(replay)
    source = replay.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", metavar="PATH",
                        help="native-format CSV dataset to replay")
    source.add_argument("--simulate", type=int, metavar="N_DRIVES",
                        help="simulate a fleet of this size instead")
    replay.add_argument("--seed", type=int, default=42,
                        help="seed for --simulate")
    replay.add_argument("--output", metavar="PATH", default=None,
                        help="write JSONL verdicts here (default: "
                             "summary only)")
    replay.add_argument("--alerts-only", action="store_true",
                        help="write only WATCH/CRITICAL verdicts")

    watch = commands.add_parser(
        "watch", help="score a CSV stream through a one-shard daemon "
                      "while its HTTP surface answers")
    add_common(watch)
    watch.add_argument("--input", metavar="PATH", default="-",
                       help="sample stream: CSV with a "
                            "'serial,hour,<attributes>' header "
                            "(default '-': stdin)")
    watch.add_argument("--output", metavar="PATH", default=None,
                       help="write JSONL verdicts here (default: stdout)")
    watch.add_argument("--alerts-only", action="store_true",
                       help="emit only WATCH/CRITICAL verdicts")
    watch.add_argument("--host", default="127.0.0.1",
                       help="telemetry HTTP bind host (default 127.0.0.1)")
    watch.add_argument("--port", type=int, default=0,
                       help="telemetry HTTP port (default 0: ephemeral)")
    watch.add_argument("--port-file", metavar="PATH", default=None,
                       help="write the bound port here once listening "
                            "(for scripts scraping an ephemeral port)")
    watch.add_argument("--batch-size", type=int, default=STREAM_BATCH_SIZE,
                       metavar="N",
                       help="samples scored per batch "
                            f"(default {STREAM_BATCH_SIZE})")
    watch.add_argument("--throttle", type=float, default=0.0,
                       metavar="SECONDS",
                       help="sleep between batches (default 0: full speed)")
    watch.add_argument("--linger", type=float, default=0.0,
                       metavar="SECONDS",
                       help="keep serving this long after the stream "
                            "ends (default 0)")
    watch.add_argument("--recorder-capacity", type=int,
                       default=DEFAULT_CAPACITY, metavar="N",
                       help="flight recorder ring size "
                            f"(default {DEFAULT_CAPACITY})")
    watch.add_argument("--recorder-dump", metavar="PATH", default=None,
                       help="dump the flight recorder here at exit "
                            "(and on crash)")
    watch.add_argument("--snapshot", metavar="PATH", default=None,
                       help="periodically write a combined metrics "
                            "snapshot here")
    watch.add_argument("--snapshot-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="snapshot refresh interval (default 5)")

    daemon = commands.add_parser(
        "daemon", help="serve scoring over HTTP: sharded state, bounded "
                       "queues, alert sinks, graceful drain")
    add_common(daemon)
    daemon.add_argument("--shards", type=int, default=1, metavar="N",
                        help="shards; drives spread by consistent hash of "
                             "serial (default 1)")
    daemon.add_argument("--backend", default="thread", choices=("thread",),
                        help="changes nothing (shards score on the "
                             "request thread); kept only because "
                             "perfbench/workloads.py passes it")
    daemon.add_argument("--queue-capacity", type=int,
                        default=DEFAULT_QUEUE_CAPACITY, metavar="N",
                        help="batches in flight per shard before 429 "
                             f"(default {DEFAULT_QUEUE_CAPACITY})")
    daemon.add_argument("--host", default="127.0.0.1",
                        help="HTTP bind host (default 127.0.0.1)")
    daemon.add_argument("--port", type=int, default=0,
                        help="HTTP port (default 0: ephemeral)")
    daemon.add_argument("--port-file", metavar="PATH", default=None,
                        help="write the bound port here once listening "
                             "(for scripts scraping an ephemeral port)")
    daemon.add_argument("--alert-sink", action="append", default=[],
                        metavar="SPEC",
                        help="alert destination, repeatable: jsonl:PATH "
                             "or webhook:URL")
    daemon.add_argument("--recorder-capacity", type=int,
                        default=DEFAULT_CAPACITY, metavar="N",
                        help="flight recorder ring size "
                             f"(default {DEFAULT_CAPACITY})")
    daemon.add_argument("--retry-after", type=float, default=1.0,
                        metavar="SECONDS",
                        help="Retry-After hint on 429 replies (default 1)")
    daemon.add_argument("--final-snapshot", metavar="PATH", default=None,
                        help="write per-shard state snapshots here at "
                             "shutdown (atomic)")
    daemon.add_argument("--wal-dir", metavar="DIR", default=None,
                        help="per-shard write-ahead logs under this "
                             "directory: crashed shards replay back to "
                             "byte-identical state (default: no WAL)")
    daemon.add_argument("--snapshot-interval-blocks", type=int,
                        default=DEFAULT_SNAPSHOT_INTERVAL_BLOCKS,
                        metavar="N",
                        help="blocks scored between WAL state checkpoints "
                             f"(default {DEFAULT_SNAPSHOT_INTERVAL_BLOCKS})")
    daemon.add_argument("--dead-letter", metavar="PATH", default=None,
                        help="park undeliverable alerts in this JSONL file "
                             "(reprocess with 'repro-serve recover')")
    daemon.add_argument("--learn", action="store_true",
                        help="attach the drift-detection plane: ingest "
                             "feeds per-attribute baselines and drift "
                             "alarms surface in /status and the flight "
                             "recorder (see docs/learning.md)")

    recover = commands.add_parser(
        "recover", help="inspect/replay WAL directories offline and "
                        "re-deliver dead-letter alerts")
    add_common(recover, require_bundle=False)
    recover.add_argument("--wal-dir", metavar="DIR", default=None,
                         help="daemon WAL root (shard-*/ subdirectories); "
                              "replays each shard offline and prints a "
                              "recovery summary (needs --bundle)")
    recover.add_argument("--dead-letter", metavar="PATH", default=None,
                         help="dead-letter JSONL to re-deliver; the file "
                              "is rewritten to hold only what still fails")
    recover.add_argument("--alert-sink", action="append", default=[],
                         metavar="SPEC",
                         help="destination(s) for --dead-letter redelivery, "
                              "same grammar as the daemon flag")
    return parser


def read_sample_blocks(handle: IO[str], attributes: tuple[str, ...],
                       size: int = STREAM_BATCH_SIZE,
                       ) -> Iterator[tuple[list[str], list[int], np.ndarray]]:
    """Parse a ``serial,hour,<attributes>`` CSV stream into column blocks.

    Yields ``(serials, hours, matrix)`` blocks of up to ``size`` rows
    (a float64 ``(rows, attributes)`` matrix), ready for
    :meth:`~repro.serve.scorer.StreamScorer.score_block`.  The header
    must name exactly the bundle's attribute columns, in order — a
    scorer fed columns in another drive's convention would silently
    produce garbage stages, so the mismatch is a hard
    :class:`~repro.errors.ServeError` instead.  So are a wrong field
    count, an unparseable value, a non-finite one (``nan``/``inf``) and
    an hour outside ``int64``, each naming its line; nothing of a
    refused block is scored.
    """
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise ServeError("sample stream is empty (no header row)") from None
    expected = ["serial", "hour", *attributes]
    if [column.strip() for column in header] != expected:
        raise ServeError(
            f"sample stream header {header!r} does not match the "
            f"bundle's feature space {expected!r}"
        )
    serials: list[str] = []
    hours: list[int] = []
    values: list[list[float]] = []
    line_numbers: list[int] = []

    def block() -> tuple[list[str], list[int], np.ndarray]:
        matrix = np.array(values, dtype=np.float64)
        finite = np.isfinite(matrix)
        if not finite.all():
            row, column = np.argwhere(~finite)[0]
            raise ServeError(
                f"sample stream line {line_numbers[row]}: column "
                f"{attributes[column]!r} is not finite "
                f"({float(matrix[row, column])!r})")
        row = first_hour_out_of_range(hours)
        if row is not None:
            raise ServeError(
                f"sample stream line {line_numbers[row]}: hour "
                f"{hours[row]} is outside the int64 range")
        return serials, hours, matrix

    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(expected):
            raise ServeError(
                f"sample stream line {line_number}: {len(row)} fields, "
                f"expected {len(expected)}"
            )
        try:
            hours.append(int(row[1]))
            values.append(list(map(float, row[2:])))
        except ValueError as error:
            raise ServeError(
                f"sample stream line {line_number}: {error}") from error
        serials.append(row[0])
        line_numbers.append(line_number)
        if len(serials) >= size:
            yield block()
            serials, hours, values, line_numbers = [], [], [], []
    if serials:
        yield block()


def _write_verdicts(block: VerdictBlock, sink: IO[str], *,
                    alerts_only: bool) -> int:
    """Emit a block's verdicts as JSONL; returns the number of lines written.

    One columnar encode (:meth:`VerdictBlock.to_json_lines`) and one
    write per block; ``alerts_only`` keeps the WATCH/CRITICAL rows
    (:meth:`VerdictBlock.alert_lines`, shared with the daemon's sinks).
    """
    lines = block.alert_lines() if alerts_only else block.to_json_lines()
    if lines:
        sink.write("\n".join(lines) + "\n")
    return len(lines)


def run_score(args: argparse.Namespace,
              observer: PipelineObserver) -> int:
    """``score``: CSV sample stream in, JSONL verdict stream out."""
    bundle = load_bundle(args.bundle, observer=observer)
    scorer = StreamScorer(bundle, observer=observer)

    def score_stream(source: IO[str], sink: IO[str]) -> int:
        lines = 0
        with observer.span("score-stream"):
            for columns in read_sample_blocks(source, bundle.attributes):
                lines += _write_verdicts(scorer.score_block(*columns), sink,
                                         alerts_only=args.alerts_only)
        return lines

    source = sys.stdin if args.input == "-" else open(args.input, newline="")
    try:
        if args.output:
            with open(args.output, "w") as sink:
                lines = score_stream(source, sink)
        else:
            lines = score_stream(source, sys.stdout)
    finally:
        if source is not sys.stdin:
            source.close()
    print(f"scored {scorer.samples_scored} samples from "
          f"{scorer.drives_tracked} drives: {scorer.alerts_emitted} "
          f"alerts, {lines} verdicts written", file=sys.stderr)
    return 0


def run_watch(args: argparse.Namespace,
              observer: PipelineObserver) -> int:
    """``watch``: a one-shard :class:`ServingDaemon` fed from a CSV stream.

    Every block of the stream goes through
    :meth:`ServingDaemon.ingest_block` and its verdicts are written
    exactly as ``score`` writes them, while the daemon's HTTP surface
    (``/metrics``, ``/health``, ``/status``, ``/recorder`` and the POST
    routes) answers.  A ``POST /drain`` stops reading the stream.
    """
    if args.batch_size < 1:
        raise ServeError(f"--batch-size must be >= 1, got {args.batch_size}")
    bundle = load_bundle(args.bundle, observer=observer)
    recorder = FlightRecorder(capacity=args.recorder_capacity)

    def watch_stream(source: IO[str], sink: IO[str]) -> int:
        lines = 0
        with observer.span("watch-stream"):
            for columns in read_sample_blocks(source, bundle.attributes,
                                              args.batch_size):
                if daemon.draining:
                    break
                block = daemon.ingest_block(*columns)
                if args.throttle > 0:
                    time.sleep(args.throttle)
                lines += _write_verdicts(block, sink,
                                         alerts_only=args.alerts_only)
        return lines

    source = sys.stdin if args.input == "-" else open(args.input, newline="")
    # Built after the input opens: a missing file must not leave shard
    # threads and a bound socket behind.
    daemon = ServingDaemon(bundle, n_shards=1, observer=observer,
                           recorder=recorder, host=args.host, port=args.port)
    snapshotter = (PeriodicSnapshotWriter(daemon.registry, args.snapshot,
                                          args.snapshot_interval)
                   if args.snapshot else None)
    dump_cm = (recorder.guard(args.recorder_dump) if args.recorder_dump
               else contextlib.nullcontext())
    with daemon:
        if args.port_file:
            daemon.handle.write_port_file(args.port_file)
        print(f"telemetry listening on {daemon.url} "
              f"(GET /metrics /health /status /recorder; "
              f"POST /ingest /promote /drain)", file=sys.stderr)
        if snapshotter is not None:
            snapshotter.start()
        try:
            with dump_cm:
                if args.output:
                    with open(args.output, "w") as sink:
                        lines = watch_stream(source, sink)
                else:
                    lines = watch_stream(source, sys.stdout)
                if args.linger > 0:
                    time.sleep(args.linger)
        finally:
            if source is not sys.stdin:
                source.close()
            if snapshotter is not None:
                snapshotter.stop()
    if args.recorder_dump:
        recorder.dump_jsonl(args.recorder_dump)
        print(f"flight recorder dumped to {args.recorder_dump}",
              file=sys.stderr)
    print(f"watched {daemon.samples_accepted} samples from "
          f"{daemon.shards.drives_tracked()} drives: "
          f"{daemon.alerts_emitted} alerts, {lines} verdicts written",
          file=sys.stderr)
    return 0


def run_daemon(args: argparse.Namespace,
               observer: PipelineObserver) -> int:
    """``daemon``: serve sharded scoring over HTTP until drained.

    Blocks in :meth:`ServingDaemon.serve_forever` until SIGTERM/SIGINT
    (installed only when running on the main thread) or ``POST /drain``
    asks for a graceful stop; every admitted batch finishes scoring and
    the optional ``--final-snapshot`` document is written before exit.
    """
    bundle = load_bundle(args.bundle, observer=observer)
    sinks = [parse_sink_spec(spec) for spec in args.alert_sink]
    recorder = FlightRecorder(capacity=args.recorder_capacity)
    daemon = ServingDaemon(
        bundle, n_shards=args.shards,
        queue_capacity=args.queue_capacity, sinks=sinks,
        observer=observer, recorder=recorder,
        host=args.host, port=args.port,
        retry_after_s=args.retry_after,
        final_snapshot=args.final_snapshot,
        wal_dir=args.wal_dir,
        snapshot_interval_blocks=args.snapshot_interval_blocks,
        dead_letter=args.dead_letter,
        learn=args.learn,
    )
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum,
                          lambda _signum, _frame: daemon.request_stop())
    daemon.start()
    if args.port_file:
        daemon.handle.write_port_file(args.port_file)
    print(f"serving daemon on {daemon.url} "
          f"({args.shards} shard(s); "
          f"POST /ingest, /promote, /drain; "
          f"GET /metrics /health /status /recorder)",
          file=sys.stderr)
    daemon.serve_forever()
    print(f"daemon drained: {daemon.samples_accepted} samples accepted, "
          f"{daemon.alerts_emitted} alerts emitted", file=sys.stderr)
    return 0


def run_recover(args: argparse.Namespace,
                observer: PipelineObserver) -> int:
    """``recover``: offline WAL replay and dead-letter redelivery.

    With ``--wal-dir``, every ``shard-*`` subdirectory is replayed
    through a fresh scorer by :func:`~repro.serve.shard.replay_wal`,
    the restarted shard's own replay (last snapshot, then the WAL
    suffix; a block that fails to score is skipped as the shard skips
    it), and the resulting counters are printed as a JSON summary —
    the kill -9 drill's verification step, and a way to audit what
    state a restarted daemon will resume with.  With ``--dead-letter``,
    the parked alerts are re-delivered through each ``--alert-sink``
    and the file is rewritten to hold only what still fails.
    """
    if args.wal_dir is None and args.dead_letter is None:
        raise ServeError(
            "recover needs --wal-dir and/or --dead-letter; nothing to do")
    summary: dict[str, object] = {}
    if args.wal_dir is not None:
        if not args.bundle:
            raise ServeError(
                "--wal-dir replay needs --bundle (the WAL refuses to "
                "replay through a different model)")
        bundle = load_bundle(args.bundle, observer=observer)
        bundle_sha = content_hash(bundle.to_payload())
        root = Path(args.wal_dir)
        shard_dirs = sorted(root.glob("shard-*"))
        if not shard_dirs:
            raise ServeError(
                f"no shard-* WAL directories under {root}")
        shards = []
        for shard_dir in shard_dirs:
            scorer = StreamScorer(bundle, observer=observer)
            with ShardWal(shard_dir, bundle_sha256=bundle_sha,
                          generation=bundle.generation) as wal:
                recovery = wal.open()
                for _block_id, _outcome in replay_wal(scorer, recovery):
                    pass
                shards.append({
                    "directory": str(shard_dir),
                    "snapshot_seq": recovery.snapshot_seq,
                    "replayed_blocks": recovery.replayed_blocks,
                    "last_seq": wal.last_seq,
                    "samples_scored": scorer.samples_scored,
                    "alerts_emitted": scorer.alerts_emitted,
                    "drives_tracked": scorer.drives_tracked,
                })
        summary["wal"] = {"dir": str(root), "shards": shards}
    if args.dead_letter is not None:
        if not args.alert_sink:
            raise ServeError(
                "--dead-letter redelivery needs at least one --alert-sink")
        delivered = 0
        remaining = 0
        for spec in args.alert_sink:
            sink = parse_sink_spec(spec)
            try:
                sent, remaining = reprocess_dead_letter(args.dead_letter,
                                                        sink)
                delivered += sent
            finally:
                sink.close()
        summary["dead_letter"] = {
            "path": str(args.dead_letter),
            "delivered": delivered,
            "remaining": remaining,
        }
    print(canonical_json_dumps(summary), end="")
    return 0


def run_replay(args: argparse.Namespace,
               observer: PipelineObserver) -> int:
    """``replay``: full-dataset scoring at maximum throughput.

    One scorer takes each profile as one ``score_block``, and with
    ``--output`` its verdicts are written as ``score`` writes them.
    """
    from repro.data.loader import load_csv
    from repro.sim.config import FleetConfig
    from repro.sim.fleet import simulate_fleet

    bundle = load_bundle(args.bundle, observer=observer)
    if args.simulate is not None:
        dataset = simulate_fleet(FleetConfig(n_drives=args.simulate,
                                             seed=args.seed)).dataset
    else:
        dataset = load_csv(args.csv, observer=observer)
    profiles = dataset.profiles
    scorer = StreamScorer(bundle, observer=observer)

    written = 0
    start = time.perf_counter()
    with (open(args.output, "w") if args.output
          else contextlib.nullcontext()) as sink:
        for profile in profiles:
            block = scorer.score_block([profile.serial] * len(profile),
                                       profile.hours, profile.matrix)
            if sink is not None:
                written += _write_verdicts(block, sink,
                                           alerts_only=args.alerts_only)
    elapsed = time.perf_counter() - start

    if args.output:
        print(f"{written} verdicts written to {args.output}")
    n_samples = scorer.samples_scored
    throughput = n_samples / elapsed if elapsed > 0 else float("inf")
    print(f"replayed {n_samples} samples from {len(profiles)} drives "
          f"in {elapsed:.2f}s ({throughput:,.0f} samples/s, "
          f"{scorer.alerts_emitted} alerts)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: any library or I/O failure exits 2 with one line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def run(args: argparse.Namespace) -> int:
    """Dispatch one parsed subcommand (telemetry configured first)."""
    obs_logging.configure(
        level=obs_logging.verbosity_to_level(args.verbose),
        json_mode=args.log_json,
    )
    collect_telemetry = bool(args.verbose or args.log_json
                             or args.trace or args.metrics)
    observer = TelemetryObserver() if collect_telemetry else NULL_OBSERVER
    if args.command in ("watch", "daemon") and observer is NULL_OBSERVER:
        # These surfaces *are* telemetry: /metrics needs a registry
        # behind the observer whatever the logging flags say.
        observer = TelemetryObserver()

    handlers = {"score": run_score, "replay": run_replay,
                "watch": run_watch, "daemon": run_daemon,
                "recover": run_recover}
    status = handlers[args.command](args, observer)

    if args.trace:
        observer.tracer.save_json(args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics:
        Path(args.metrics).write_text(observer.metrics.to_json())
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
