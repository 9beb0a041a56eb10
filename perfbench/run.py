"""Layered benchmark of the serving and characterization paths.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures half the time untraced and half with the layer
wrappers installed, and reports the per-layer metrics.  The report
lists every metric by name and unit, the workload's input properties
and an environment block; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The exit code is 0 when every workload ran to the end; a failed output
check still exits 0 and reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: How far ``trace.coverage`` may stray from 1 before the report says so.
COVERAGE_TOLERANCE = 0.10


def environment(path: Path) -> dict[str, str]:
    """nproc, interpreter, numpy, kernel, and the filesystem under ``path``."""
    import numpy
    fstype, best = "unknown", ""
    resolved = str(path.resolve())
    with open("/proc/mounts") as mounts:
        for line in mounts:
            _device, mount, kind = line.split()[:3]
            inside = (resolved == mount
                      or resolved.startswith(mount.rstrip("/") + "/"))
            if inside and len(mount) >= len(best):
                best, fstype = mount, f"{kind} on {mount}"
    return {
        "nproc": str(len(os.sched_getaffinity(0))),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "wal_filesystem": fstype,
    }


def report(name: str, outcome: Any, values: dict[str, float],
           units: dict[str, str]) -> dict[str, dict[str, Any]]:
    """Print one workload's table; return its metrics for the JSON line."""
    print(f"== {name} ==")
    for note in outcome.notes:
        print(f"  {note}")
    for check in outcome.checks:
        print(f"  CHECK FAILED: {check}")
    print(f"  operations: {outcome.attempted} attempted, {outcome.failed} "
          f"failed (failed_share {outcome.failed / outcome.attempted:.4g})")
    for metric, unit in units.items():
        print(f"  {metric:<36} {values[metric]:>16.6g} {unit}")
    coverage = values.get("trace.coverage")
    if coverage is not None and not (1 - COVERAGE_TOLERANCE <= coverage
                                     <= 1 + COVERAGE_TOLERANCE):
        print(f"  NOTE: layer self times cover {coverage:.3f} of wall "
              f"time, outside the ±{COVERAGE_TOLERANCE:.0%} tolerance")
    return {metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="fleet-tick, offline or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER
    from workloads import END_TO_END, WORK, WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = ({name: unit for name, unit, _spans in PER_LAYER} if args.trace
             else dict(END_TO_END))
    seed = args.seed % 2**31
    env = environment(BENCH)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    attempted = failed = 0
    correct = True
    metrics: dict[str, dict[str, Any]] = {}
    for name in names:
        work = WORK / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            outcome = WORKLOADS[name](seed, args.seconds, bool(args.trace),
                                      work)
            if (work / "spans").exists():
                kept = WORK / "spans" / name
                shutil.rmtree(kept, ignore_errors=True)
                kept.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(work / "spans", kept)
                outcome.notes.append(
                    f"spans written to {kept.relative_to(ROOT)}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += outcome.attempted
        failed += outcome.failed
        correct = correct and not outcome.checks
        values = (outcome.layers if args.trace
                  else {k: v for k, (v, _unit) in outcome.metrics.items()})
        table = report(name, outcome, values, units)
        if len(names) == 1:
            metrics = table
        else:
            metrics.update({f"{name}.{k}": v for k, v in table.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
