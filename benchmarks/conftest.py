"""Shared fixtures of the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures on the
default experiment fleet (~4,000 drives, seed-pinned — a scaled-down
version of the paper's 23,395-drive population) and writes the rendered
artifact to ``benchmarks/output/`` for inspection.

The session is instrumented: a :class:`~repro.obs.TelemetryObserver` is
installed before the first fleet/report build, so the one expensive
pipeline construction of the session is traced per-stage and its
metrics collected.  Both are written to ``benchmarks/output/telemetry.json``
at session end, letting ``BENCH_*.json`` trajectories be cut per-stage
rather than only end-to-end.

Run with::

   pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialize import canonical_json_dumps
from repro.experiments.common import (
    default_fleet,
    default_report,
    set_pipeline_observer,
)
from repro.obs import TelemetryObserver

OUTPUT_DIR = Path(__file__).parent / "output"

#: Session-wide telemetry sink; installed before any fleet is built so
#: the memoized pipeline run is the one that gets traced.
_TELEMETRY = TelemetryObserver()


def pytest_configure(config):
    set_pipeline_observer(_TELEMETRY)


def pytest_sessionfinish(session, exitstatus):
    set_pipeline_observer(None)
    if not _TELEMETRY.tracer.roots and not len(_TELEMETRY.metrics):
        return
    OUTPUT_DIR.mkdir(exist_ok=True)
    payload = {
        "stage_timings": _TELEMETRY.tracer.stage_timings(),
        "metrics": _TELEMETRY.metrics.snapshot(),
        "trace": _TELEMETRY.tracer.to_dict(),
    }
    (OUTPUT_DIR / "telemetry.json").write_text(canonical_json_dumps(payload))


def bench_environment() -> dict:
    """The host descriptor every recorded ``perf_*.json`` embeds.

    One definition so every benchmark stamps the same keys; throughput
    comparisons across recordings are only meaningful when the
    environment matches.
    """
    return {
        "cpus_available": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@pytest.fixture(scope="session")
def bench_observer() -> TelemetryObserver:
    """The session's telemetry sink (tracer + metrics registry)."""
    return _TELEMETRY


@pytest.fixture(scope="session")
def bench_fleet():
    """The default experiment fleet (memoized by the experiments layer)."""
    return default_fleet()


@pytest.fixture(scope="session")
def bench_report(bench_fleet):
    """Full pipeline report on the default fleet."""
    return default_report()


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture()
def save_artifact(artifact_dir):
    """Writer that stores an experiment's rendering next to the bench."""

    def writer(result) -> None:
        path = artifact_dir / f"{result.experiment_id}.txt"
        path.write_text(str(result) + "\n")

    return writer
