"""The two workloads: how each is driven, timed and checked.

* ``fleet-tick`` — a ``repro-serve daemon`` (2 shards, thread backend,
  WAL on at its default fsync batching and snapshot interval, one JSONL
  alert sink) in its own process, fed tick-major JSONL ``POST /ingest``
  batches of 256 samples by one closed-loop client over one keep-alive
  connection.  A 429 or 503 is counted and the batch is retried after
  the ``Retry-After`` wait, as a collector would.
* ``offline`` — back-to-back jobs in one program process
  (``launch.py --repeat``, one warm-up job first).  A job runs
  ``repro-characterize --simulate N --export-model`` with an empty
  dataset cache, then ``repro-serve score`` with the exported bundle on
  a drive-major CSV, every verdict out as JSONL.

Program processes start through ``launch.py``; in a traced phase it
installs the layer wrappers inside them.  A run with tracing measures
half its time untraced and half traced, so ``trace.overhead`` compares
the two within one run.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs
from layers import MAIN_SPAN, PER_LAYER, ROUND_TRIP_SPAN, layer_metrics
from percentiles import latency_summary
from spantrace import Span, Tracer, load_spans, spans_from

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
LAUNCH = BENCH / "launch.py"

#: End-to-end metrics every untraced run reports, with their units.
END_TO_END = (("samples_per_s", "samples/s"), ("latency_p50_ms", "ms"),
              ("latency_p99_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

#: Daemon launches per untraced fleet-tick run (set-up time is their median).
DAEMON_LAUNCHES = 3
#: What an offline job times inside itself (``launch.py --time``): its
#: set-up step, the fleet simulation that stands in for its input, and
#: the calls that do its work: the pipeline, the bundle build and save,
#: and ``score`` (which loads the bundle it scores with).
OFFLINE_TIMED = (
    "setup=repro.sim.fleet:simulate_fleet",
    "work=repro.core.pipeline:CharacterizationPipeline.run",
    "work=repro.serve.bundle:build_bundle",
    "work=repro.serve.bundle:save_bundle",
    "work=repro.serve.cli:run_score")
#: Upper bound on any single wait for a program process, beyond the
#: time it is asked to run.
PROCESS_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one run measured: operations, metrics and report lines."""

    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None

    def fail(self, message: str) -> None:
        """Record one failed check (it counts as a failed operation)."""
        self.failed += 1
        self.checks.append(message)


def _env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["TMPDIR"] = str(work)
    env["REPRO_CACHE_DIR"] = str(work / "repro-cache")
    return env


def _launch_cmd(directory: Path, module: str, args: list[str],
                trace: bool, timed: tuple[str, ...] = (),
                options: list[str] | None = None) -> list[str]:
    cmd = [sys.executable, str(LAUNCH), "--result",
           str(directory / "result.json"), *(options or [])]
    if trace:
        cmd += ["--trace", str(directory / "spans.json")]
    for spec in timed:
        cmd += ["--time", spec]
    return cmd + [module, *args]


def _read_json(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


# -- fleet-tick -------------------------------------------------------------

class Daemon:
    """One ``repro-serve daemon`` process and a keep-alive connection to it."""

    def __init__(self, directory: Path, bundle: str, trace: bool) -> None:
        self.dir = directory
        directory.mkdir(parents=True)
        self.alerts_path = directory / "alerts.jsonl"
        port_file = directory / "port"
        cmd = _launch_cmd(directory, "repro.serve.cli", [
            "daemon", "--bundle", bundle, "--shards", str(inputs.SHARDS),
            "--backend", "thread", "--wal-dir", str(directory / "wal"),
            "--alert-sink", f"jsonl:{self.alerts_path}",
            "--port-file", str(port_file)], trace)
        start = time.perf_counter()
        self._log = open(directory / "daemon.log", "wb")
        self.proc = subprocess.Popen(cmd, stdout=self._log,
                                     stderr=subprocess.STDOUT,
                                     env=_env(directory), cwd=ROOT)
        try:
            while not port_file.exists():
                self._check_alive(start)
                time.sleep(0.002)
            self.port = int(port_file.read_text())
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=PROCESS_TIMEOUT_S)
            while True:
                self.conn.request("GET", "/health")
                response = self.conn.getresponse()
                response.read()
                if response.status == 200:
                    break
                self._check_alive(start)
                time.sleep(0.002)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _check_alive(self, start: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {self.proc.returncode} "
                               f"during start-up (see {self.dir}/daemon.log)")
        if time.perf_counter() - start > PROCESS_TIMEOUT_S:
            raise RuntimeError("daemon did not become healthy in time")

    def counters(self) -> dict[str, float]:
        """Counter totals from ``/metrics`` (``repro_<name>_total``)."""
        self.conn.request("GET", "/metrics")
        response = self.conn.getresponse()
        text = response.read().decode("utf-8")
        totals: dict[str, float] = {}
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            if name.startswith("repro_") and name.endswith("_total"):
                key = name[len("repro_"):-len("_total")]
                totals[key] = float(value)
        return totals

    def drain(self) -> dict[str, Any]:
        """``POST /drain``, wait for exit, return the launcher's result."""
        try:
            self.conn.request("POST", "/drain", body=b"")
            self.conn.getresponse().read()
            self.conn.close()
            code = self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        finally:
            self.kill()
        if code != 0:
            raise RuntimeError(f"daemon exited with {code} after drain")
        return _read_json(self.dir / "result.json")

    def kill(self) -> None:
        """Stop the process if it is still running and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


@dataclass
class Load:
    """What the closed-loop client saw during one timed phase."""

    latencies_ns: list[int] = field(default_factory=list)
    accepted: int = 0
    refused: int = 0
    errors: int = 0
    mismatched: int = 0
    accepted_batches: list[int] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def drive_load(daemon: Daemon, bodies: list[bytes],
               reference: dict[str, list], seconds: float, seed: int,
               tracer: Tracer | None = None) -> Load:
    """POST batches in order, one at a time, until time or batches run out.

    Every reply must accept the whole batch and report the reference's
    alert count for it.
    """
    load = Load()
    conn = daemon.conn
    clock = time.perf_counter_ns
    headers = {"Content-Type": "application/jsonl"}
    load.start_ns = clock()
    deadline = load.start_ns + int(seconds * 1e9)
    index = 0
    while index < len(bodies) and clock() < deadline:
        batch_id = f"s{seed}-b{index}"
        start = clock()
        conn.request("POST", f"/ingest?format=jsonl&batch={batch_id}",
                     body=bodies[index], headers=headers)
        response = conn.getresponse()
        payload = response.read()
        end = clock()
        load.latencies_ns.append(end - start)
        if tracer is not None:
            tracer.record(ROUND_TRIP_SPAN, start, end, rid=batch_id,
                          value=response.status)
        if response.status in (429, 503):
            load.refused += 1
            time.sleep(min(1.0, float(response.getheader("Retry-After", 1))))
            continue
        if response.status != 200:
            load.errors += 1
            index += 1
            continue
        reply = json.loads(payload)
        if (reply.get("accepted") != reference["rows"][index]
                or reply.get("alerts") != reference["alerts"][index]):
            load.mismatched += 1
        load.accepted += int(reply.get("accepted", 0))
        load.accepted_batches.append(index)
        index += 1
    load.end_ns = clock()
    return load


def check_load(outcome: Outcome, load: Load, alerts_path: Path,
               reference: dict[str, list]) -> None:
    """Count one phase's operations and check the sink against the reference.

    Each POST is one operation and the phase's sink check one more; a
    refused or failed POST, a reply that disagrees with the reference
    and a sink that does not hold exactly the reference alert lines each
    count as failed.
    """
    outcome.attempted += len(load.latencies_ns) + 1
    outcome.failed += load.refused + load.errors
    if load.refused or load.errors:
        outcome.notes.append(f"{load.refused} refused and {load.errors} "
                             f"failed POSTs")
    if load.mismatched:
        outcome.fail(f"{load.mismatched} replies disagree with the reference")
    expected = [line for index in load.accepted_batches
                for line in reference["alert_lines"][index]]
    sunk = (alerts_path.read_text().splitlines()
            if alerts_path.exists() else [])
    error = sink_error(sunk, expected)
    if error is not None:
        outcome.fail(error)


def fleet_tick(seed: int, seconds: float, trace: bool, work: Path
               ) -> Outcome:
    data = inputs.fleet_tick(seed)
    blob = (Path(data["dir"]) / "bodies.bin").read_bytes()
    offsets = data["offsets"]
    bodies = [blob[offsets[i]:offsets[i + 1]]
              for i in range(len(offsets) - 1)]
    del blob
    reference = data["reference"]
    outcome = Outcome()
    outcome.notes.append(_describe_properties(data["properties"]))

    def phase(name: str, traced: bool, length: float
              ) -> tuple[Daemon, Load, dict[str, Any], dict[str, float],
                         Tracer | None]:
        daemon = Daemon(work / name, data["bundle"], traced)
        try:
            tracer = Tracer() if traced else None
            load = drive_load(daemon, bodies, reference, length, seed, tracer)
            counters = daemon.counters() if traced else {}
            result = daemon.drain()
        except BaseException:
            daemon.kill()
            raise
        check_load(outcome, load, daemon.alerts_path, reference)
        return daemon, load, result, counters, tracer

    if not trace:
        setups = []
        for launch in range(DAEMON_LAUNCHES - 1):
            daemon = Daemon(work / f"setup-{launch}", data["bundle"], False)
            setups.append(daemon.setup_s)
            daemon.drain()
        daemon, load, result, _, _ = phase("daemon", False, seconds)
        setups.append(daemon.setup_s)
        summary = latency_summary([ns / 1e6 for ns in load.latencies_ns])
        outcome.metrics = {
            "samples_per_s": (load.accepted / load.wall_s, "samples/s"),
            "latency_p50_ms": (summary["p50"], "ms"),
            "latency_p99_ms": (summary["tail"], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
        }
        outcome.notes.append(
            f"{summary['n']} POSTs in {load.wall_s:.1f} s; latency tail is "
            f"p{summary['tail_pct']:.2f} (>=10 POSTs beyond it); set-up is "
            f"the median of {len(setups)} daemon launches")
        return outcome

    _, plain, _, _, _ = phase("plain", False, seconds / 2)
    daemon, load, _, counters, tracer = phase("traced", True, seconds / 2)
    assert tracer is not None
    spans = spans_from(os.getpid(), tracer.spans)
    spans += load_spans(daemon.dir / "spans.json")
    overhead = ((load.accepted / load.wall_s) / (plain.accepted / plain.wall_s)
                if plain.accepted and load.accepted else 0.0)
    outcome.layers = layer_metrics(spans, (load.start_ns, load.end_ns),
                                   load.wall_s, overhead, counters)
    _keep_spans(work, daemon.dir / "spans.json", "daemon")
    tracer.dump(work / "spans" / "client.json")
    outcome.notes.append(
        f"traced phase: {len(load.latencies_ns)} POSTs in "
        f"{load.wall_s:.1f} s, {len(spans)} spans")
    return outcome


# -- job workloads ----------------------------------------------------------

@dataclass
class Job:
    """One timed job: its time, the time inside its calls, its samples."""

    main_s: float
    setup_s: float
    work_s: float
    units: float


@dataclass
class Jobs:
    """The timed jobs of one program process, in the order they ran."""

    jobs: list[Job] = field(default_factory=list)
    maxrss_kb: int = 0
    spans: list[Span] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0

    def rate(self) -> float:
        """Samples per second over the run: all samples ÷ all work time."""
        work = sum(job.work_s for job in self.jobs)
        return sum(job.units for job in self.jobs) / work if work else 0.0


@dataclass(frozen=True)
class JobSpec:
    """How a job workload runs and checks its jobs.

    ``command`` maps the job directory template to the module and its
    arguments; ``check`` maps a job's directory and its ``launch.py``
    record to the samples it handled and an error message (or
    ``None``); ``digest`` and ``discard`` name job files that
    ``launch.py`` hashes or removes after each job.
    """

    command: Callable[[Path], tuple[str, list[str]]]
    check: Callable[[Path, dict[str, Any]], tuple[float, str | None]]
    timed: tuple[str, ...]
    digest: tuple[str, ...] = ()
    discard: tuple[str, ...] = ()


def run_jobs(outcome: Outcome, work: Path, name: str, seconds: float,
             traced: bool, spec: JobSpec) -> Jobs:
    """One program process running jobs back to back for ``seconds``.

    ``launch.py --repeat`` runs one warm-up job and then jobs until the
    time is up, in one process, so interpreter start-up and imports are
    paid once.  Every job, the warm-up too, is checked by ``spec.check``
    and counts as one operation; one that exits non-zero or fails its
    check counts as failed.  Each timed job keeps its samples, the time
    inside its ``work`` calls and the time inside its ``setup`` call
    (``spec.timed``, see ``launch.py --time``).
    """
    directory = work / name
    directory.mkdir(parents=True)
    template = directory / "job-{i}"
    module, args = spec.command(template)
    options = ["--repeat", str(seconds), "--job-dir", str(template)]
    options += [f"--digest={file}" for file in spec.digest]
    options += [f"--discard={file}" for file in spec.discard]
    cmd = _launch_cmd(directory, module, args, traced, spec.timed, options)
    with open(directory / "stdout.txt", "wb") as stdout:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.STDOUT,
                                env=_env(directory), cwd=ROOT)
        try:
            code = proc.wait(timeout=seconds + PROCESS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = directory / "result.json"
    if not result_path.exists():
        outcome.attempted += 1
        outcome.fail(f"{name}: job process exited with {code} "
                     f"(see {directory}/stdout.txt)")
        return Jobs()
    result = _read_json(result_path)
    jobs = Jobs(maxrss_kb=result["maxrss_kb"])
    records = result["jobs"]
    for index, record in enumerate(records):
        outcome.attempted += 1
        job_dir = Path(str(template).replace("{i}", str(index)))
        error = (f"job exited with {record['exit']}" if record["exit"] != 0
                 else None)
        if error is None:
            units, error = spec.check(job_dir, record)
        if error is not None:
            outcome.fail(f"{name} job {index}: {error}")
        elif index > 0:
            inside = record["inside_s"]
            jobs.jobs.append(Job(main_s=record["main_s"],
                                 setup_s=inside["setup"],
                                 work_s=inside["work"], units=units))
        shutil.rmtree(job_dir, ignore_errors=True)
    timed = records[1:] or records
    jobs.start_ns, jobs.end_ns = timed[0]["start_ns"], timed[-1]["end_ns"]
    if traced:
        spans_file = directory / "spans.json"
        jobs.spans = [span for span in load_spans(spans_file)
                      if span.start >= jobs.start_ns]
        _keep_spans(work, spans_file, name)
    return jobs


def _job_phases(outcome: Outcome, work: Path, seconds: float, trace: bool,
                spec: JobSpec, what: str) -> Outcome:
    """Time jobs (untraced), or compare an untraced and a traced half.

    Untraced, the end-to-end metrics are the run's rate (all samples
    over all time inside the work calls), the median and tail of the
    jobs' times (interpreter start-up and imports are not part of a
    job), the median time inside the set-up call, and the job
    process's peak RSS.  Traced, half the time runs untraced and half
    traced, and the per-layer metrics come from the traced half.
    """
    if not trace:
        jobs = run_jobs(outcome, work, what, seconds, False, spec)
        summary = latency_summary([job.main_s * 1e3
                                   for job in jobs.jobs] or [0.0])
        outcome.metrics = {
            "samples_per_s": (jobs.rate(), "samples/s"),
            "latency_p50_ms": (summary["p50"], "ms"),
            "latency_p99_ms": (summary["tail"], "ms"),
            "setup_s": (statistics.median(job.setup_s for job in jobs.jobs)
                        if jobs.jobs else 0.0, "s"),
            "peak_rss_mb": (jobs.maxrss_kb / 1024.0, "MB"),
        }
        outcome.notes.append(
            f"{len(jobs.jobs)} timed {what} jobs in "
            f"{(jobs.end_ns - jobs.start_ns) / 1e9:.1f} s after one warm-up "
            f"job, in one process; latency is each job's time, tail is "
            f"p{summary['tail_pct']:.2f}")
        return outcome

    plain = run_jobs(outcome, work, "plain", seconds / 2, False, spec)
    traced = run_jobs(outcome, work, "traced", seconds / 2, True, spec)
    wall = sum(s.duration for s in traced.spans if s.name == MAIN_SPAN) / 1e9
    overhead = traced.rate() / plain.rate() if plain.rate() else 0.0
    layers = layer_metrics(
        traced.spans, (traced.start_ns, traced.end_ns), wall, overhead, {})
    # Times and counts per job, so runs with more or fewer jobs compare.
    per_job = {name for name, unit, _spans in PER_LAYER
               if unit in ("s", "count")}
    count = max(1, len(traced.jobs))
    outcome.layers = {name: value / count if name in per_job else value
                      for name, value in layers.items()}
    outcome.notes.append(f"traced phase: {len(traced.jobs)} jobs, "
                         f"{len(traced.spans)} spans; times and counts "
                         f"are per job")
    return outcome


def offline(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    data = inputs.offline(seed)
    csv_path = Path(data["dir"]) / data["csv"]
    fleet_samples = data["properties"]["fleet_samples"]
    outcome = Outcome()
    outcome.notes.append(_describe_properties(data["properties"]))

    def command(job_dir: Path) -> tuple[str, list[str]]:
        bundle = str(job_dir / "bundle.json")
        return "repro.cli", [
            "--simulate", str(data["drives"]), "--seed", str(data["sim_seed"]),
            "--export-model", bundle, "--cache-dir", str(job_dir / "cache"),
            "--then", "repro.serve.cli", "score", "--bundle", bundle,
            "--input", str(csv_path),
            "--output", str(job_dir / "verdicts.jsonl")]

    def check(job_dir: Path, record: dict[str, Any]
              ) -> tuple[float, str | None]:
        """Samples characterized plus verdicts written, and any error."""
        error = bundle_error(_read_json(job_dir / "bundle.json"),
                             (job_dir / "stdout.txt").read_text(),
                             data["bundle_sha256"])
        digest = record["digests"]["verdicts.jsonl"]
        if digest is None:
            return 0, error or "no verdict output"
        return (fleet_samples + digest["lines"],
                error or verdicts_error(digest["sha256"],
                                        data["verdicts_sha256"]))

    return _job_phases(outcome, work, seconds, trace, JobSpec(
        command, check, OFFLINE_TIMED, digest=("verdicts.jsonl",),
        discard=("cache",)), "offline")


# -- reference checks -------------------------------------------------------

def verdicts_error(digest: str, sha256: str) -> str | None:
    """``score`` output's digest must equal the reference lines' digest."""
    if digest != sha256:
        return "verdict output differs from the reference digest"
    return None


def sink_error(sunk: list[str], expected: list[str]) -> str | None:
    """The alert sink must hold exactly the reference alert lines, in order."""
    if sunk != expected:
        return (f"alert sink holds {len(sunk)} lines, the reference "
                f"{len(expected)} (or their bytes differ)")
    return None


def bundle_error(payload: dict[str, Any], report: str,
                 bundle_sha256: str) -> str | None:
    """The exported bundle must hash to the reference; the report has 3 groups.

    The bundle's own ``content_sha256`` field must also match its
    content, so a corrupted artifact fails even if the stored hash was
    copied from the reference.
    """
    from repro.serve.bundle import content_hash
    content = {key: value for key, value in payload.items()
               if key != "content_sha256"}
    digest = content_hash(content)
    if digest != bundle_sha256 or payload.get("content_sha256") != digest:
        return "bundle content hash differs from the reference"
    groups = {line.split("|")[1].strip() for line in report.splitlines()
              if line.startswith("| Group ")}
    if len(groups) != 3:
        return f"report lists {len(groups)} groups, expected 3"
    return None


# -- helpers ----------------------------------------------------------------

def _describe_properties(properties: dict[str, float]) -> str:
    return "inputs: " + ", ".join(
        f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}"
        for key, value in properties.items())


def _keep_spans(work: Path, path: Path, name: str) -> None:
    """Move one span file into the run's ``spans`` directory."""
    keep = work / "spans"
    keep.mkdir(exist_ok=True)
    shutil.move(path, keep / f"{name}.json")


WORKLOADS: dict[str, Callable[[int, float, bool, Path], Outcome]] = {
    "fleet-tick": fleet_tick,
    "offline": offline,
}
