"""Run one program entry point in a process the benchmark controls.

Usage::

    python3 perfbench/launch.py --result OUT.json [--trace SPANS.json]
        [--time LABEL=MODULE:FUNCTION ...]
        [--repeat SECONDS --job-dir TEMPLATE [--digest NAME ...]
         [--discard NAME ...]] MODULE [ARG ...] [--then MODULE [ARG ...]]

Imports ``MODULE`` from the checkout's ``src`` tree, calls its
``main(ARGS)`` and writes ``OUT.json`` with the process's peak RSS and,
per job, the exit code, the wall time of ``main()`` and, per ``--time``
label, the wall time spent inside the named functions (``inside_s``).
A job with ``--then`` steps calls each step's ``main()`` in turn and
stops at the first that fails; its time runs from the first call to
the end of the last.  A few calls per job cost nothing measurable, so
``--time`` is used untraced, to split a job into its set-up step and
its work.

With ``--repeat`` the first job is a warm-up, and jobs run again, back
to back in the same process, until ``SECONDS`` have passed since the
warm-up ended.  ``{i}`` in ``TEMPLATE`` and in every step's ``ARGS``
becomes the job's index; the job directory is created before the job
and receives its standard output as ``stdout.txt``.  After the job,
each ``--digest`` file in the job directory is replaced by its sha256
and line count in the result, and each ``--discard`` file or directory
is removed, so a long run does not fill the disk.

With ``--trace`` the layer wrappers of :mod:`layers` are installed
first, and the recorded spans (plus a ``launch.main`` span around each
job) are written to ``SPANS.json`` when the last job ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--time", action="append", default=[])
    parser.add_argument("--repeat", type=float, default=None)
    parser.add_argument("--job-dir", default=None)
    parser.add_argument("--digest", action="append", default=[])
    parser.add_argument("--discard", action="append", default=[])
    parser.add_argument("module")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    if (options.repeat is None) != (options.job_dir is None):
        parser.error("--repeat and --job-dir go together")
    tracer = None
    if options.trace:
        from layers import MAIN_SPAN, TARGETS
        from spantrace import Tracer
        tracer = Tracer()
        tracer.install(TARGETS)
    timer = None
    if options.time:
        from spantrace import Target, Tracer
        timer = Tracer()
        for spec in options.time:
            label, _, target = spec.partition("=")
            module, _, qualname = target.partition(":")
            timer.install([Target(label, module, qualname)])
    steps = [(importlib.import_module(words[0]), words[1:])
             for words in split_steps([options.module, *options.args])]
    jobs: list[dict[str, Any]] = []
    deadline = None
    try:
        while True:
            index = len(jobs)
            job = call(steps, options, index, timer)
            if tracer is not None:
                tracer.record(MAIN_SPAN, job["start_ns"], job["end_ns"])
            jobs.append(job)
            if options.repeat is None or job["exit"] != 0:
                break
            if deadline is None:
                deadline = job["end_ns"] + int(options.repeat * 1e9)
            typical = statistics.median(j["main_s"] for j in jobs[1:] or jobs)
            if time.perf_counter_ns() + typical * 1e9 > deadline:
                break
    finally:
        if timer is not None:
            timer.uninstall()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(options.trace)
    Path(options.result).write_text(json.dumps({
        "jobs": jobs,
        "maxrss_kb": peak_rss_kb(),
    }))
    return int(jobs[-1]["exit"] or 0)


def split_steps(words: list[str]) -> list[list[str]]:
    """``MODULE ARG ... --then MODULE ARG ...`` as one list per step."""
    steps: list[list[str]] = [[]]
    for word in words:
        if word == "--then":
            steps.append([])
        else:
            steps[-1].append(word)
    return steps


def call(steps: list[tuple[Any, list[str]]], options: argparse.Namespace,
         index: int, timer: Any) -> dict[str, Any]:
    """Run every step's ``main()`` once as job ``index``; describe the job."""
    directory = None
    if options.job_dir is not None:
        directory = Path(options.job_dir.replace("{i}", str(index)))
        directory.mkdir(parents=True)
    mark = len(timer.spans) if timer is not None else 0
    with contextlib.ExitStack() as stack:
        if directory is not None:
            out = stack.enter_context(open(directory / "stdout.txt", "w"))
            stack.enter_context(contextlib.redirect_stdout(out))
        start = time.perf_counter_ns()
        try:
            for program, args in steps:
                code = program.main([arg.replace("{i}", str(index))
                                     for arg in args])
                if code:
                    break
        finally:
            end = time.perf_counter_ns()
    inside: dict[str, float] = {}
    for row in (timer.spans[mark:] if timer is not None else []):
        inside[row[1]] = inside.get(row[1], 0.0) + (row[3] - row[2]) / 1e9
    digests = {}
    if directory is not None:
        for name in options.digest:
            path = directory / name
            if not path.exists():
                digests[name] = None
                continue
            sha256, lines = digest_file(path)
            path.unlink()
            digests[name] = {"sha256": sha256, "lines": lines}
        for name in options.discard:
            path = directory / name
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
    return {"exit": int(code or 0), "start_ns": start, "end_ns": end,
            "main_s": (end - start) / 1e9, "inside_s": inside,
            "digests": digests}


def digest_file(path: Path) -> tuple[str, int]:
    """sha256 hex digest and line count of one file."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def peak_rss_kb() -> int:
    """This process's own peak RSS (``VmHWM``).

    ``getrusage`` is not used: Linux folds the parent's RSS at fork into
    the child's ``ru_maxrss``, so a child of a large benchmark process
    would report the benchmark's memory instead of its own.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    raise SystemExit(main())
