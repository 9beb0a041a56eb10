#!/usr/bin/env python
"""Alternating benchmark pairs: a base revision against the working tree.

Runs ``perfbench/run.py --trace 0`` on a checkout of ``--base REV`` and
on a snapshot of the working tree, one after the other, ``--pairs``
times.  The
order flips every pair (base first, then working tree first), so a
host that drifts between fast and slow phases hurts neither side more.
Then it prints, for every end-to-end metric, each side's median and
quartiles and how many pairs each side won, plus the median ratio::

   python scripts/bench_pairs.py --base HEAD~1 --pairs 10 \\
       --workload fleet-tick --seconds 30

Both sides run from fresh copies unpacked side by side into one
temporary directory (deleted afterwards): the base is ``git archive
REV``, the head is a snapshot of the working tree — tracked changes and
untracked files, not ignored ones such as ``perfbench/.cache`` — taken
through a temporary index, so the repository's own index is untouched.
Neither side runs in the working tree's long-lived ``perfbench/.cache``
and ``.work``, and each builds its own inputs on its first run.  Win
directions come from the working tree's
``BENCHMARK.json``.  ``--json OUT`` also writes every run's metrics
and the summary.  The exit code is 1 when any run fails, reports
``"correct": false`` or counts failed operations.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: The two sides of every pair, in report order.
SIDES = ("base", "head")


def _spread(values: list[float]) -> dict[str, float]:
    """Median and inclusive quartiles of one side's values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict[str, dict[str, float]]],
              better: dict[str, str]) -> dict[str, dict[str, Any]]:
    """Per-metric medians, quartiles and win counts over paired runs.

    ``pairs`` holds one ``{"base": metrics, "head": metrics}`` per pair,
    each side a ``{metric: value}`` map; ``better`` gives ``"higher"``
    or ``"lower"`` per metric name (workload prefixes such as
    ``fleet-tick.`` are ignored for the lookup).  Only metrics present
    on both sides of every pair and named in ``better`` are reported.
    A pair is a win for the side whose value is strictly better; ties
    count for neither.  ``ratio`` is the head median over the base
    median.
    """
    if not pairs:
        return {}
    names = set.intersection(*(set(pair[side]) for pair in pairs
                               for side in SIDES))
    summary: dict[str, dict[str, Any]] = {}
    for name in sorted(names):
        direction = better.get(name.rsplit(".", 1)[-1])
        if direction is None:
            continue
        sign = 1.0 if direction == "higher" else -1.0
        base = [pair["base"][name] for pair in pairs]
        head = [pair["head"][name] for pair in pairs]
        base_spread, head_spread = _spread(base), _spread(head)
        summary[name] = {
            "better": direction,
            "pairs": len(pairs),
            "base": base_spread,
            "head": head_spread,
            "base_wins": sum(sign * (b - h) > 0 for b, h in zip(base, head)),
            "head_wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "ratio": (head_spread["median"] / base_spread["median"]
                      if base_spread["median"] else float("nan")),
        }
    return summary


def render(summary: dict[str, dict[str, Any]]) -> str:
    """The summary as an aligned text table."""
    lines = [f"{'metric':<34} {'base median [q1, q3]':>30} "
             f"{'head median [q1, q3]':>30} {'wins b/h':>9} {'ratio':>7}"]
    for name, row in summary.items():
        cells = [f"{row[side]['median']:.6g} [{row[side]['q1']:.4g}, "
                 f"{row[side]['q3']:.4g}]" for side in SIDES]
        lines.append(f"{name:<34} {cells[0]:>30} {cells[1]:>30} "
                     f"{row['base_wins']:>4}/{row['head_wins']:<4} "
                     f"{row['ratio']:>7.3f}")
    return "\n".join(lines)


def snapshot_tree(root: Path = ROOT) -> str:
    """The git tree id of ``root``'s working tree as it is now.

    Tracked changes and untracked files are included, ignored files are
    not.  The tree is built in a temporary index (``GIT_INDEX_FILE``),
    so the repository's own index and worktree are left as they were.
    """
    with tempfile.TemporaryDirectory(prefix="bench-pairs-index-") as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(scratch) / "index")}

        def git(*args: str) -> str:
            return subprocess.run(["git", *args], cwd=root, env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout.strip()

        git("read-tree", "HEAD")
        git("add", "-A")
        return git("write-tree")


def extract(revision: str, target: Path, root: Path = ROOT) -> None:
    """Unpack the files of ``revision`` (any tree-ish) into ``target``."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             cwd=root, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)


def _run(checkout: Path, args: argparse.Namespace) -> dict[str, Any]:
    """One untraced perfbench run; its final JSON line."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {checkout} "
                         f"(exit {completed.returncode}):\n"
                         f"{completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/bench_pairs.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="fleet-tick")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--json", type=Path, default=None,
                        help="also write every run and the summary here")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"]
              for metric in benchmark["end_to_end"]}

    pairs: list[dict[str, dict[str, float]]] = []
    healthy = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        checkouts = {side: Path(scratch) / side for side in SIDES}
        extract(args.base, checkouts["base"])
        extract(snapshot_tree(), checkouts["head"])
        for index in range(args.pairs):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair: dict[str, dict[str, float]] = {}
            for side in order:
                result = _run(checkouts[side], args)
                healthy = (healthy and result["correct"]
                           and result["failed"] == 0)
                pair[side] = {name: entry["value"]
                              for name, entry in result["metrics"].items()}
                sys.stderr.write(
                    f"pair {index + 1}/{args.pairs} {side}: " + ", ".join(
                        f"{name}={value:.6g}"
                        for name, value in sorted(pair[side].items()))
                    + "\n")
            pairs.append(pair)
    summary = summarize(pairs, better)
    sys.stdout.write(f"{args.workload}, seed {args.seed}, {args.seconds:g} s "
                     f"per run, {args.pairs} pairs, base {args.base}\n"
                     + render(summary) + "\n")
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"base": args.base, "workload": args.workload,
             "seed": args.seed, "seconds": args.seconds, "pairs": pairs,
             "summary": summary}, indent=2) + "\n")
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
