#!/usr/bin/env python
"""Diff two benchmark JSON files and fail on speedup regressions.

The benchmark harness records before/after comparisons as nested JSON
(``benchmarks/output/perf_ml.json``, ``perf_serve.json``,
``perf_daemon.json``, ``perf_columnar.json``, ...).  Two kinds of keys
are *pinned*:

- keys named ``speedup`` — machine-relative ratios, so a committed
  baseline from one host is comparable to a fresh run on another;
- numeric keys ending ``samples_per_s`` — serving-plane throughputs
  (including dict-valued ones, whose numeric leaves are pinned
  individually).  These move with the
  hardware, so only compare recordings stamped with the same
  ``environment`` block.

This script walks both files, matches pinned metrics by dotted path,
and exits non-zero when any candidate value falls more than
``--threshold`` (default 20%) below its baseline, or when a baseline
metric disappeared.

Run from the repository root::

   python scripts/compare_bench.py benchmarks/output/perf_ml.json \
       /tmp/fresh_perf_ml.json

Raw ``*_s`` wall-clock values are ignored: they move with the hardware,
the ratios should not.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterator

#: A pinned metric is any key with this exact name or ending with this
#: suffix; everything else in the payloads (wall-clock seconds,
#: environment, notes) is context.
PINNED_KEY = "speedup"
PINNED_SUFFIX = "samples_per_s"


def pinned_metrics(payload: Any, prefix: str = "",
                   pinned: bool = False) -> Iterator[tuple[str, float]]:
    """Yield (dotted path, value) for every pinned metric in ``payload``.

    A pinned key with a dict value (e.g. a throughput keyed by batch
    size) pins each numeric leaf underneath it.
    """
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            yield from pinned_metrics(
                value, path,
                pinned or key == PINNED_KEY or key.endswith(PINNED_SUFFIX))
    elif (pinned and isinstance(payload, (int, float))
          and not isinstance(payload, bool)):
        yield prefix, float(payload)


def _fmt(path: str, value: float) -> str:
    """Render a pinned value with its unit (ratio ``x`` vs samples/s)."""
    if PINNED_SUFFIX in path:
        return f"{value:,.0f}"
    return f"{value:.2f}x"


def compare(baseline: dict, candidate: dict,
            threshold: float) -> tuple[list[str], list[str]]:
    """Return (report lines, failure lines) for the two payloads."""
    candidate_metrics = dict(pinned_metrics(candidate))
    lines: list[str] = []
    failures: list[str] = []
    for path, base_value in pinned_metrics(baseline):
        cand_value = candidate_metrics.get(path)
        if cand_value is None:
            failures.append(f"{path}: missing from candidate")
            continue
        change = (cand_value - base_value) / base_value
        verdict = "ok"
        if change < -threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{path}: {_fmt(path, base_value)} -> "
                f"{_fmt(path, cand_value)} "
                f"({change:+.1%}, allowed -{threshold:.0%})"
            )
        lines.append(f"{path:45s} {_fmt(path, base_value):>12s} "
                     f"{_fmt(path, cand_value):>12s} "
                     f"{change:+8.1%}  {verdict}")
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare pinned speedup metrics of two bench JSON files."
    )
    parser.add_argument("baseline", type=Path, help="reference bench JSON")
    parser.add_argument("candidate", type=Path, help="bench JSON under test")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="allowed fractional drop per metric "
                             "(default 0.2 = 20%%)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.threshold < 1.0:
        print("threshold must lie in [0, 1)", file=sys.stderr)
        return 2

    try:
        baseline = json.loads(args.baseline.read_text())
        candidate = json.loads(args.candidate.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot load bench files: {error}", file=sys.stderr)
        return 2

    lines, failures = compare(baseline, candidate, args.threshold)
    if not lines and not failures:
        print("no pinned metrics found in baseline", file=sys.stderr)
        return 2
    header = f"{'metric':45s} {'baseline':>12s} {'candidate':>12s} {'change':>8s}"
    print(header)
    for line in lines:
        print(line)
    if failures:
        print()
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
