"""Tests for the scoring partition: identity, backpressure, drain.

The contracts pinned here: a :class:`ShardSet` returns byte-identical
verdicts however the stream is cut into batches; a full ingest queue
rejects whole batches (all-or-nothing — a rejected batch is never
partially scored); ``stop()`` drains every admitted batch before the
partition snapshots; and a promotion is a clean fence.  The
consistent-hash ring that placed drives on shards is pinned too:
``perfbench`` still places its inputs with it.
"""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import BackpressureError, ServeError
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import TelemetryObserver
from repro.serve.bundle import build_bundle, stamp_lineage
from repro.serve.scorer import StreamScorer
from repro.serve.shard import HashRing, ShardSet
from tests.oracle import oracle_lines


@pytest.fixture(scope="module")
def bundle(mid_report):
    return build_bundle(mid_report, seed=7)


@pytest.fixture(scope="module")
def columnar_samples(mid_fleet):
    """A columnar batch mixing failed and good drives."""
    dataset = mid_fleet.dataset
    profiles = dataset.failed_profiles[:4] + dataset.good_profiles[:8]
    serials, hours, rows = [], [], []
    for profile in profiles:
        # Failed drives contribute their whole history (their late hours
        # are what alerts), good drives a short prefix.
        keep = None if profile.failed else 6
        for hour, row in zip(profile.hours[:keep], profile.matrix[:keep]):
            serials.append(profile.serial)
            hours.append(int(hour))
            rows.append(np.asarray(row, dtype=np.float64).ravel())
    return serials, hours, np.vstack(rows)


@pytest.fixture(scope="module")
def expected_lines(bundle, columnar_samples):
    """The per-sample oracle's lines for the whole batch."""
    serials, hours, matrix = columnar_samples
    return oracle_lines(bundle, zip(serials, hours, matrix))


# -- hash ring --------------------------------------------------------------

def test_ring_is_deterministic_across_instances():
    a, b = HashRing(4), HashRing(4)
    for serial in (f"drive-{i}" for i in range(200)):
        assert a.shard_of(serial) == b.shard_of(serial)


def test_ring_covers_every_shard_reasonably():
    ring = HashRing(4)
    counts = [0, 0, 0, 0]
    for i in range(2000):
        counts[ring.shard_of(f"serial-{i:05d}")] += 1
    assert min(counts) > 0
    # 64 vnodes keep imbalance well inside 2x of the fair share.
    assert max(counts) < 2 * (2000 / 4)


def test_ring_single_shard_takes_everything():
    ring = HashRing(1)
    assert all(ring.shard_of(f"d{i}") == 0 for i in range(50))


def test_ring_rejects_bad_parameters():
    with pytest.raises(ServeError, match="n_shards"):
        HashRing(0)
    with pytest.raises(ServeError, match="vnodes"):
        HashRing(2, vnodes=0)


# -- byte identity ----------------------------------------------------------

def _cut(columns, n_batches):
    """``columns`` cut into ``n_batches`` consecutive batches."""
    serials, hours, matrix = columns
    bounds = np.linspace(0, len(serials), n_batches + 1).astype(int)
    return [(serials[lo:hi], hours[lo:hi], matrix[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("n_batches", [1, 2, 4])
def test_sharded_verdicts_byte_identical(bundle, columnar_samples,
                                         expected_lines, n_batches):
    """The stream cut into ``n_batches`` batches scores to the oracle's
    lines, materialized verdict by verdict."""
    with ShardSet(bundle) as partition:
        got = [v.to_json_line()
               for batch in _cut(columnar_samples, n_batches)
               for v in partition.submit_block(*batch).verdicts()]
    assert got == expected_lines


@pytest.mark.parametrize("n_batches", [1, 2, 4])
def test_submit_block_byte_identical(bundle, columnar_samples,
                                     expected_lines, n_batches):
    """The lazy block surface matches the oracle however the stream is
    cut into batches."""
    expected = iter(expected_lines)
    with ShardSet(bundle) as partition:
        for serials, hours, matrix in _cut(columnar_samples, n_batches):
            block = partition.submit_block(serials, hours, matrix)
            lines = [next(expected) for _ in serials]
            assert block.to_json_lines() == lines
            assert block.serials == list(serials)
            assert block.n_alerting == sum(
                1 for line in lines if '"level":"HEALTHY"' not in line)
            for row in block.alerting_rows():
                assert (block.verdict_at(int(row)).to_json_line()
                        == lines[row])
    assert next(expected, None) is None


def test_multiple_submits_keep_per_drive_state_whole(bundle,
                                                     columnar_samples):
    serials, hours, matrix = columnar_samples
    with ShardSet(bundle) as partition:
        partition.submit_block(serials, hours, matrix)
        partition.submit_block(serials, hours, matrix)
        snapshot = partition.stop()
    assert snapshot["drives_tracked"] == len(set(serials))
    assert sorted(snapshot["state"]["drives"]) == sorted(set(serials))
    assert snapshot["samples_scored"] == 2 * len(serials)


def test_parent_telemetry_matches_unsharded(bundle, columnar_samples):
    serials, hours, matrix = columnar_samples
    plain, served = TelemetryObserver(), TelemetryObserver()
    StreamScorer(bundle, observer=plain).score_block(serials, hours, matrix)
    with ShardSet(bundle, observer=served) as partition:
        partition.submit_block(serials, hours, matrix)
    for name in ("samples_scored", "alerts_emitted"):
        assert (plain.metrics.counter(name).value
                == served.metrics.counter(name).value > 0)
    assert (plain.metrics.histogram("verdict_stage").cumulative_buckets()
            == served.metrics.histogram("verdict_stage").cumulative_buckets())


def test_stage_histogram_exposition_equals_the_observe_loop(
        bundle, columnar_samples):
    """The set records each batch's stages with one ``observe_many``;
    the ``/metrics`` text must equal one ``observe`` per stage."""
    serials, hours, matrix = columnar_samples
    observer = TelemetryObserver()
    reference = MetricsRegistry()
    scorer = StreamScorer(bundle)
    with ShardSet(bundle, observer=observer) as partition:
        for start in range(0, len(serials), 50):
            window = slice(start, start + 50)
            partition.submit_block(serials[window], hours[window],
                                   matrix[window])
            block = scorer.score_block(serials[window], hours[window],
                                       matrix[window])
            for stage in block.finite_stages():
                reference.histogram("verdict_stage").observe(float(stage))

    def stage_lines(registry):
        return [line for line in render_prometheus(registry).splitlines()
                if "verdict_stage" in line]

    assert len(stage_lines(reference)) > 3
    assert stage_lines(observer.metrics) == stage_lines(reference)


# -- backpressure -----------------------------------------------------------

def test_saturated_shard_rejects_whole_batch(bundle, columnar_samples):
    """Capacity 1 + throttled scoring: concurrent submits beyond the
    first are refused, and no refused sample is ever scored."""
    serials, hours, matrix = columnar_samples
    partition = ShardSet(bundle, queue_capacity=1, throttle_s=0.4)
    barrier = threading.Barrier(3)
    outcomes = []

    def submitter():
        barrier.wait()
        try:
            block = partition.submit_block(serials, hours, matrix)
            outcomes.append(("ok", len(block)))
        except BackpressureError as error:
            outcomes.append(("rejected", error))

    threads = [threading.Thread(target=submitter) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    snapshot = partition.stop()

    accepted = [n for kind, n in outcomes if kind == "ok"]
    rejected = [e for kind, e in outcomes if kind == "rejected"]
    assert accepted and rejected
    error = rejected[0]
    assert not hasattr(error, "shard")
    assert error.retry_after_s > 0
    assert error.capacity == 1
    # All-or-nothing admission: exactly the accepted batches were
    # scored — a rejected batch contributed zero samples.
    assert snapshot["samples_scored"] == sum(accepted)


def test_refused_batches_add_no_tracked_drives(bundle, columnar_samples):
    """A batch refused with 429 (backpressure) or as malformed leaves
    ``drives_tracked`` where it was; an admitted one adds its drives."""
    serials, hours, matrix = columnar_samples
    partition = ShardSet(bundle, queue_capacity=1, throttle_s=0.4)
    try:
        held = threading.Thread(target=partition.submit_block,
                                args=(serials[:20], hours[:20], matrix[:20]))
        held.start()
        deadline = time.monotonic() + 10.0
        while partition.inflight() != 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        fresh = [f"new-{index}" for index in range(5)]
        with pytest.raises(BackpressureError):
            partition.submit_block(fresh, hours[:5], matrix[:5])
        held.join(timeout=30)
        tracked = partition.drives_tracked()
        assert tracked == len(set(serials[:20]))
        with pytest.raises(ServeError, match="bundle expects"):
            partition.submit_block(fresh, hours[:5], matrix[:5, :3])
        with pytest.raises(ServeError, match="hours must be integers"):
            partition.submit_block(fresh, [10**30] * 5, matrix[:5])
        assert partition.drives_tracked() == tracked
        partition.submit_block(fresh, hours[:5], matrix[:5])
        assert partition.drives_tracked() == tracked + len(fresh)
    finally:
        partition.stop()


def test_stopped_shardset_refuses_new_batches(bundle, columnar_samples):
    serials, hours, matrix = columnar_samples
    partition = ShardSet(bundle)
    partition.stop()
    with pytest.raises(ServeError, match="stopped"):
        partition.submit_block(serials, hours, matrix)


# -- drain ------------------------------------------------------------------

def test_stop_drains_in_flight_batches(bundle, columnar_samples):
    """stop() lands behind queued work: the in-flight batch finishes
    scoring and appears in the final snapshot."""
    serials, hours, matrix = columnar_samples
    partition = ShardSet(bundle, throttle_s=0.2)
    result = {}

    def submitter():
        result["block"] = partition.submit_block(serials, hours, matrix)

    thread = threading.Thread(target=submitter)
    thread.start()
    # Let the batch get admitted, then stop while it is (likely) still
    # throttled; either way every admitted sample must end up scored.
    deadline = time.monotonic() + 10.0
    while (partition.inflight() == 0 and thread.is_alive()
           and time.monotonic() < deadline):
        time.sleep(0.005)
    snapshot = partition.stop()
    thread.join(timeout=30)

    assert len(result["block"]) == len(serials)
    assert snapshot["samples_scored"] == len(serials)


def test_stop_is_idempotent(bundle, columnar_samples):
    serials, hours, matrix = columnar_samples
    partition = ShardSet(bundle)
    partition.submit_block(serials, hours, matrix)
    first = partition.stop()
    second = partition.stop()
    assert first == second


def test_shard_set_starts_no_thread(bundle, columnar_samples, tmp_path,
                                    monkeypatch):
    """The partition scores on the caller's thread: construction (WAL
    replay included), submits, a promotion and the drain start no
    thread."""
    serials, hours, matrix = columnar_samples
    started = []
    monkeypatch.setattr(threading.Thread, "start", started.append)
    with ShardSet(bundle, wal_dir=tmp_path / "wal") as partition:
        partition.submit_block(serials, hours, matrix)
    partition = ShardSet(bundle, wal_dir=tmp_path / "wal")
    partition.submit_block(serials, hours, matrix)
    partition.promote(stamp_lineage(bundle, bundle))
    partition.submit_block(serials, hours, matrix)
    assert partition.stop()["samples_scored"] == 3 * len(serials)
    assert started == []


# -- promotion fence --------------------------------------------------------

def test_promote_is_a_clean_fence_for_concurrent_batches(
        bundle, columnar_samples, monkeypatch):
    """Throttled batches race a promotion: each batch scores wholly
    under the champion or wholly under the challenger, and no two
    batches score at once (a batch holds the scoring lock until it is
    scored)."""
    serials, hours, matrix = columnar_samples
    # Thresholds that relabel nearly every row, so a batch scored partly
    # under each bundle differs from both oracles.
    challenger = replace(stamp_lineage(bundle, bundle), watch_threshold=2.0,
                         critical_threshold=bundle.watch_threshold)
    batches = [(serials[start::8], hours[start::8], matrix[start::8])
               for start in range(8)]
    expected = [(oracle_lines(bundle, zip(*batch)),
                 oracle_lines(challenger, zip(*batch)))
                for batch in batches]
    partition = ShardSet(bundle, throttle_s=0.03)
    for old, new in expected:
        assert old != new

    current = threading.local()
    calls = []  # (batch, start, end) of every batch scored
    score_block = StreamScorer.score_block

    def timed_score_block(scorer, *args):
        start = time.monotonic()
        try:
            return score_block(scorer, *args)
        finally:
            # Long enough that a batch letting go of the scoring lock
            # early would overlap the next batch.
            time.sleep(0.02)
            calls.append((current.index, start, time.monotonic()))

    monkeypatch.setattr(StreamScorer, "score_block", timed_score_block)
    results = {}

    def submitter(indices):
        for index in indices:
            current.index = index
            results[index] = partition.submit_block(
                *batches[index]).to_json_lines()

    threads = [threading.Thread(target=submitter, args=(range(k, 8, 2),))
               for k in (0, 1)]
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        while not results and time.monotonic() < deadline:
            time.sleep(0.002)
        partition.promote(challenger)
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        partition.stop()

    assert sorted(results) == list(range(8))
    bundles_seen = {(lines == old, lines == new)
                    for lines, (old, new) in zip(
                        (results[index] for index in range(8)), expected)}
    assert bundles_seen == {(True, False), (False, True)}
    spans = {}
    for index, start, end in calls:
        first, last = spans.get(index, (start, end))
        spans[index] = (min(first, start), max(last, end))
    for index, start, _end in calls:
        for other, (first, last) in spans.items():
            assert other == index or not first < start < last


# -- validation -------------------------------------------------------------

def test_shardset_validates_configuration(bundle):
    with pytest.raises(ServeError, match="queue_capacity"):
        ShardSet(bundle, queue_capacity=0)
    for retry_after_s in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ServeError, match="retry_after_s"):
            ShardSet(bundle, retry_after_s=retry_after_s)


def test_submit_validates_columns(bundle):
    with ShardSet(bundle) as partition:
        with pytest.raises(ServeError, match="2-D"):
            partition.submit_block(["a"], [1], np.zeros(4))
        with pytest.raises(ServeError, match="disagree"):
            partition.submit_block(["a", "b"], [1], np.zeros((1, 4)))
        with pytest.raises(ServeError, match="bundle expects"):
            partition.submit_block([], [], np.zeros((0, 4)))
        assert len(partition.submit_block(
            [], [], np.zeros((0, bundle.n_attributes)))) == 0
