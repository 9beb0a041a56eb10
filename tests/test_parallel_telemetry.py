"""Fan-out telemetry: ``n_jobs`` must not change what a run reports.

Mapped functions emit no telemetry of their own; the caller's observer
sees the fan-out bookkeeping (``parallel_chunks``, fallbacks).  The
end-to-end pin lives at the bottom: a ``CharacterizationPipeline`` run
with ``n_jobs=4`` reports the same ``signatures_skipped`` and
``cache_hits`` counters as a serial run.
"""

import threading

from repro.core.pipeline import CharacterizationPipeline
from repro.data.cache import DatasetCache
from repro.obs.observer import TelemetryObserver
from repro.parallel import ParallelConfig, RetryPolicy, map_drives


def _square(x: int) -> int:
    return x * x


def _fails_in_worker_threads(x: int) -> int:
    """Fails in pool threads, succeeds in the main-thread fallback."""
    if threading.current_thread() is not threading.main_thread():
        raise RuntimeError("worker refused")
    return x


def _counter_values(observer):
    snapshot = observer.metrics.snapshot()
    return {name: body["value"] for name, body in snapshot.items()
            if body["kind"] == "counter"}


def test_null_observer_parallel_path_skips_capture():
    results = map_drives(_square, range(8),
                         ParallelConfig(n_jobs=2, backend="thread"))
    assert results == [x * x for x in range(8)]


def test_serial_fallback_still_reports_telemetry():
    observer = TelemetryObserver()
    config = ParallelConfig(
        n_jobs=2, backend="thread", chunk_size=2,
        retry=RetryPolicy(max_retries=0, timeout_s=None,
                          serial_fallback=True),
    )
    results = map_drives(_fails_in_worker_threads, range(6), config,
                         observer=observer)
    assert results == list(range(6))
    assert observer.metrics.counter("parallel_chunks").value == 3
    assert observer.metrics.counter("parallel_serial_fallbacks").value == 3


# -- the end-to-end pipeline pin -------------------------------------------


def _pipeline_counters(dataset, cache_dir, n_jobs):
    observer = TelemetryObserver()
    cache = DatasetCache(cache_dir, observer=observer)
    pipeline = CharacterizationPipeline(
        seed=1, n_jobs=n_jobs, parallel_backend="thread", cache=cache,
        observer=observer,
    )
    pipeline.run(dataset)
    return _counter_values(observer)


def test_pipeline_jobs4_reports_same_counters_as_serial(
        small_fleet, tmp_path):
    """`--jobs 4` must report the same `signatures_skipped` and
    `cache_hits` as a serial run — telemetry is part of the n_jobs-is-
    a-pure-performance-knob contract."""
    cache_dir = tmp_path / "cache"
    warm = _pipeline_counters(small_fleet.dataset, cache_dir, n_jobs=1)
    assert warm.get("cache_hits", 0.0) == 0.0  # cold cache on first run

    serial = _pipeline_counters(small_fleet.dataset, cache_dir, n_jobs=1)
    parallel = _pipeline_counters(small_fleet.dataset, cache_dir, n_jobs=4)

    assert serial["cache_hits"] == parallel["cache_hits"] == 1.0
    assert (serial.get("signatures_skipped", 0.0)
            == parallel.get("signatures_skipped", 0.0))
    assert (serial["signatures_derived"]
            == parallel["signatures_derived"] > 0)
    # every counter except the fan-out bookkeeping matches exactly
    fanout = {"parallel_chunks"}
    assert ({k: v for k, v in serial.items() if k not in fanout}
            == {k: v for k, v in parallel.items() if k not in fanout})
