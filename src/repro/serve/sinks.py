"""Pluggable alert delivery for the serving daemon.

When the daemon scores a sample above HEALTHY it pushes the verdict's
canonical JSON line — rendered once per batch by
:meth:`~repro.serve.scorer.VerdictBlock.to_json_lines`, the same bytes
``repro-serve score`` writes — to every configured :class:`AlertSink`.
Three shapes cover the common operational setups:

:class:`JsonlAlertSink`
    Appends one line per alert to a file — the durable default;
    ``tail -f`` is the minimum viable pager.
:class:`WebhookAlertSink`
    POSTs each alert line to an HTTP endpoint (stdlib ``urllib`` only)
    — for chat-ops bridges and incident routers.
:class:`CallbackAlertSink`
    Hands each alert line (a ``str``) to an in-process callable — for
    embedding the daemon as a library.

Sinks receive only alerting verdicts, after scoring is complete, so a
slow or failing sink can never change a verdict or block admission.
Delivery failures raise :class:`~repro.errors.SinkError` from
:meth:`AlertSink.emit`; the daemon catches these, counts them under
``alert_sink_errors``, and keeps serving.

Guaranteed delivery is layered on top by :class:`DeliveryPipeline`: the
daemon hands each alert to a per-sink queue and a worker thread retries
failed deliveries with exponential backoff (honoring a server-supplied
``Retry-After`` hint when the webhook answered 429/503), trips a
circuit breaker after consecutive final failures, and writes alerts it
could not deliver to a dead-letter file — a :class:`JsonlAlertSink`
with ``fsync``, so it holds the very lines the sinks were offered, and
an operator can re-deliver them later with
:func:`reprocess_dead_letter` (or ``repro-serve recover``).  An alert
handed to a pipeline is never silently dropped: it is delivered,
or it lands in the dead letter.

:func:`parse_sink_spec` turns the CLI's ``--alert-sink`` strings
(``jsonl:PATH[|fsync]``, ``webhook:URL[|timeout=SECONDS]``) into sink
instances.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import SinkError
from repro.ioutil import atomic_write_text
from repro.obs.observer import PipelineObserver, resolve_observer
from repro.serve.scorer import MonitorVerdict

#: Webhook delivery timeout (seconds) unless the caller overrides it.
DEFAULT_WEBHOOK_TIMEOUT_S = 5.0


class AlertSink:
    """Interface every alert sink implements.

    ``emit`` delivers one alerting verdict as its canonical JSON line
    (no trailing newline); ``close`` releases any resources
    (idempotent).  Subclasses raise
    :class:`~repro.errors.SinkError` on delivery failure so the daemon
    can count and survive it.
    """

    #: Short name used in ``/status`` payloads and error messages.
    kind = "null"

    def emit(self, line: str) -> None:
        """Deliver one canonical verdict line (no-op in the base class)."""

    def close(self) -> None:
        """Release sink resources (no-op in the base class)."""

    def describe(self) -> str:
        """One-line, human-readable identity for status payloads."""
        return self.kind


class JsonlAlertSink(AlertSink):
    """Appends alert lines to a file.

    The file is opened lazily on the first alert and flushed after
    every line, so a crashed daemon leaves no half-written alert and an
    operator's ``tail -f`` sees alerts immediately.  Writes hold an
    internal lock, so several delivery pipelines may share one sink —
    the daemon's dead letter is one, with ``fsync``.
    """

    kind = "jsonl"

    def __init__(self, path: str | Path, *, fsync: bool = False) -> None:
        self._path = Path(path)
        self._file: Any = None
        self._fsync = fsync
        self._lock = threading.Lock()

    @property
    def path(self) -> Path:
        """Destination file."""
        return self._path

    def emit(self, line: str) -> None:
        """Append one line (create the file on demand).

        With ``fsync`` the line is forced to stable storage before
        returning — alerts then survive machine power loss, not just a
        daemon crash, at a per-alert fsync cost.
        """
        with self._lock:
            try:
                if self._file is None:
                    self._path.parent.mkdir(parents=True, exist_ok=True)
                    self._file = self._path.open("a", encoding="utf-8")
                self._file.write(line + "\n")
                self._file.flush()
                if self._fsync:
                    os.fsync(self._file.fileno())
            except OSError as error:
                raise SinkError(f"jsonl sink cannot write {self._path}: "
                                f"{error}") from error

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def describe(self) -> str:
        """``jsonl:<path>``."""
        return f"jsonl:{self._path}"


class WebhookAlertSink(AlertSink):
    """POSTs each alert line, a JSON document, to an HTTP endpoint."""

    kind = "webhook"

    def __init__(self, url: str, *,
                 timeout_s: float = DEFAULT_WEBHOOK_TIMEOUT_S) -> None:
        if not url.startswith(("http://", "https://")):
            raise SinkError(f"webhook sink needs an http(s) URL, got {url!r}")
        self._url = url
        self._timeout_s = timeout_s

    @property
    def url(self) -> str:
        """Destination endpoint."""
        return self._url

    @property
    def timeout_s(self) -> float:
        """Per-request timeout, seconds."""
        return self._timeout_s

    def emit(self, line: str) -> None:
        """POST the line; non-2xx or transport failure is SinkError.

        A 429 or 503 answer carrying a numeric ``Retry-After`` header
        raises a :class:`~repro.errors.SinkError` with
        ``retry_after_s`` set — the delivery pipeline waits that long
        instead of its own exponential backoff.
        """
        body = (line + "\n").encode("utf-8")
        request = urllib.request.Request(
            self._url, data=body, method="POST",
            headers={"Content-Type": "application/json; charset=utf-8"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self._timeout_s) as reply:
                code = reply.status
        except urllib.error.HTTPError as error:
            raise SinkError(
                f"webhook {self._url} answered {error.code}",
                retry_after_s=_retry_after_of(error)) from error
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            raise SinkError(
                f"webhook {self._url} unreachable: {error}") from error
        if not 200 <= code < 300:
            raise SinkError(f"webhook {self._url} answered {code}")

    def describe(self) -> str:
        """``webhook:<url>``."""
        return f"webhook:{self._url}"


def _retry_after_of(error: urllib.error.HTTPError) -> float | None:
    """Numeric ``Retry-After`` of a 429/503 answer, if present and sane.

    Only the delta-seconds form is honored (the HTTP-date form needs
    clock agreement that a retry hint does not deserve); anything
    unparsable or negative is ignored.
    """
    if error.code not in (429, 503):
        return None
    raw = error.headers.get("Retry-After") if error.headers else None
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


class CallbackAlertSink(AlertSink):
    """Hands each alert line to an in-process callable (library embedding)."""

    kind = "callback"

    def __init__(self, callback: Callable[[str], None]) -> None:
        if not callable(callback):
            raise SinkError("callback sink needs a callable")
        self._callback = callback

    def emit(self, line: str) -> None:
        """Invoke the callback; its exceptions become SinkError."""
        try:
            self._callback(line)
        except Exception as error:
            raise SinkError(
                f"callback sink raised {type(error).__name__}: {error}"
            ) from error

    def describe(self) -> str:
        """``callback:<name>``."""
        name = getattr(self._callback, "__name__", type(self._callback).__name__)
        return f"callback:{name}"


@dataclass(frozen=True, slots=True)
class DeliveryPolicy:
    """How hard a :class:`DeliveryPipeline` tries before giving up.

    ``max_attempts`` bounds total tries per alert (1 = no retries);
    between tries the worker sleeps ``backoff_s * 2**attempt`` capped
    at ``backoff_cap_s`` — unless the failure carried a server
    ``retry_after_s`` hint, which wins.  ``breaker_threshold``
    consecutive *final* failures open the circuit breaker: for
    ``breaker_cooldown_s`` every alert fast-fails straight to the dead
    letter instead of burning retries against a down endpoint.
    ``queue_capacity`` bounds the pipeline's buffer; an alert arriving
    at a full queue goes directly to the dead letter (delivery must
    never push back into the scoring path).
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0
    queue_capacity: int = 1024

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SinkError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise SinkError("backoff seconds must be >= 0")
        if self.breaker_threshold < 1:
            raise SinkError("breaker_threshold must be >= 1")
        if self.queue_capacity < 1:
            raise SinkError("queue_capacity must be >= 1")


class DeliveryPipeline:
    """Guaranteed-delivery wrapper around one :class:`AlertSink`.

    The daemon submits alerts here instead of calling ``emit``
    directly; a worker thread delivers them in FIFO order under the
    pipeline's :class:`DeliveryPolicy`.  Outcomes per alert, exactly
    one of:

    - delivered — ``alert_sink_emits`` counted (``sink_retries``
      counted once per extra attempt it took);
    - finally failed — ``alert_sink_errors`` counted once, a
      ``sink-error`` event recorded, and the alert written to the dead
      letter (``dead_letter_alerts``) when one is configured.

    ``close`` drains the queue before closing the sink, so every
    submitted alert reaches one of those outcomes — the daemon calls
    it after the scoring partition has stopped.
    """

    def __init__(self, sink: AlertSink, *,
                 policy: DeliveryPolicy | None = None,
                 dead_letter: JsonlAlertSink | None = None,
                 observer: PipelineObserver | None = None,
                 recorder: Any = None) -> None:
        self._sink = sink
        self._policy = policy if policy is not None else DeliveryPolicy()
        self._dead_letter = dead_letter
        self._observer = resolve_observer(observer)
        self._recorder = recorder
        self._queue: "queue.Queue[str | None]" = queue.Queue(
            maxsize=self._policy.queue_capacity)
        self._breaker_failures = 0
        self._breaker_open_until = 0.0
        self._delivered = 0
        self._failed = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name=f"repro-delivery-{sink.kind}",
            daemon=True)
        self._worker.start()

    @property
    def sink(self) -> AlertSink:
        """The wrapped destination."""
        return self._sink

    @property
    def delivered(self) -> int:
        """Alerts delivered successfully."""
        return self._delivered

    @property
    def failed(self) -> int:
        """Alerts that exhausted every attempt."""
        return self._failed

    def describe(self) -> str:
        """The wrapped sink's identity."""
        return self._sink.describe()

    def offer(self, line: str) -> bool:
        """Enqueue one alert line; never blocks the scoring path.

        Returns ``False`` when the queue is full — the alert then goes
        straight to the dead letter (and counts as a failure) rather
        than stalling ingest.
        """
        if self._closed:
            raise SinkError(
                f"delivery pipeline for {self.describe()} is closed")
        try:
            self._queue.put_nowait(line)
            return True
        except queue.Full:
            self._give_up(line, "delivery queue full")
            return False

    def close(self) -> None:
        """Drain everything submitted, then close the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._worker.join()
        try:
            self._sink.close()
        except SinkError as error:
            self._record_error(str(error))

    # -- worker -----------------------------------------------------------

    def _run(self) -> None:
        while True:
            line = self._queue.get()
            if line is None:
                return
            self._deliver(line)

    def _deliver(self, line: str) -> None:
        """Drive one alert to delivered-or-dead-lettered."""
        policy = self._policy
        if time.monotonic() < self._breaker_open_until:
            self._give_up(line, "circuit breaker open")
            return
        last_error = "delivery failed"
        for attempt in range(policy.max_attempts):
            if attempt:
                self._observer.count("sink_retries")
            try:
                self._sink.emit(line)
            except SinkError as error:
                last_error = str(error)
                if attempt + 1 < policy.max_attempts:
                    backoff = min(policy.backoff_s * (2 ** attempt),
                                  policy.backoff_cap_s)
                    if error.retry_after_s is not None:
                        backoff = min(error.retry_after_s,
                                      policy.backoff_cap_s)
                    if backoff > 0:
                        time.sleep(backoff)
                continue
            self._delivered += 1
            self._breaker_failures = 0
            self._observer.count("alert_sink_emits")
            return
        self._breaker_failures += 1
        if self._breaker_failures >= policy.breaker_threshold:
            self._breaker_open_until = (time.monotonic()
                                        + policy.breaker_cooldown_s)
            self._breaker_failures = 0
        self._give_up(line, last_error)

    def _give_up(self, line: str, reason: str) -> None:
        """Count one final failure and park the alert in the dead letter."""
        self._failed += 1
        self._observer.count("alert_sink_errors")
        self._record_error(reason)
        if self._dead_letter is not None:
            try:
                self._dead_letter.emit(line)
            except SinkError as error:
                self._record_error(str(error))
            else:
                self._observer.count("dead_letter_alerts")

    def _record_error(self, message: str) -> None:
        if self._recorder is not None:
            self._recorder.record("sink-error", message,
                                  sink=self._sink.describe())


#: Keys every canonical verdict line carries.
_VERDICT_KEYS = frozenset(MonitorVerdict.__dataclass_fields__)


def read_dead_letter(path: str | Path) -> list[str]:
    """The alert lines of a dead-letter file, in order, blank lines skipped.

    Raises :class:`~repro.errors.SinkError` on unreadable files or on a
    line that is not a JSON object carrying the verdict keys — a dead
    letter is a hand-off artifact, and silently skipping a corrupt
    alert would lose it twice.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise SinkError(
            f"cannot read dead letter {path}: {error}") from error
    lines = []
    for line_number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{line_number}: malformed dead-letter line"
        try:
            record = json.loads(line)
        except ValueError as error:
            raise SinkError(f"{where} ({error})") from error
        missing = _VERDICT_KEYS - (record.keys() if isinstance(record, dict)
                                   else set())
        if missing:
            raise SinkError(f"{where} (no {', '.join(sorted(missing))})")
        lines.append(line)
    return lines


def reprocess_dead_letter(path: str | Path, sink: AlertSink) -> tuple[
        int, int]:
    """Re-deliver a dead-letter file through ``sink``.

    Each line is emitted once, verbatim (no retries — run again for
    another pass), so downstream consumers cannot tell a reprocessed
    alert from a live one; lines that still fail are written back
    atomically, so the file always holds exactly the undelivered
    remainder.  Returns ``(delivered, remaining)``.
    """
    path = Path(path)
    lines = read_dead_letter(path)
    remaining = []
    for line in lines:
        try:
            sink.emit(line)
        except SinkError:
            remaining.append(line)
    try:
        atomic_write_text(path, "".join(line + "\n" for line in remaining))
    except OSError as error:
        raise SinkError(
            f"cannot rewrite dead letter {path}: {error}") from error
    return len(lines) - len(remaining), len(remaining)


def parse_sink_spec(spec: str) -> AlertSink:
    """Build a sink from a CLI spec string.

    Accepted forms (the ``--alert-sink`` grammar):

    - ``jsonl:PATH`` — append alerts to a JSONL file; ``|fsync`` after
      the path forces each line to stable storage.
    - ``webhook:URL`` — POST alerts to an http(s) endpoint;
      ``|timeout=SECONDS`` after the URL overrides the
      request timeout (default
      :data:`DEFAULT_WEBHOOK_TIMEOUT_S`).
    """
    scheme, separator, rest = spec.partition(":")
    if not separator or not rest:
        raise SinkError(
            f"malformed sink spec {spec!r}; expected jsonl:PATH or "
            f"webhook:URL")
    rest, _, options = rest.partition("|")
    if not rest:
        raise SinkError(f"sink spec {spec!r} has an empty target")
    if scheme == "jsonl":
        fsync = False
        if options:
            if options != "fsync":
                raise SinkError(
                    f"unknown jsonl sink option {options!r} in {spec!r}; "
                    f"expected 'fsync'")
            fsync = True
        return JsonlAlertSink(rest, fsync=fsync)
    if scheme == "webhook":
        timeout_s = DEFAULT_WEBHOOK_TIMEOUT_S
        if options:
            key, eq, value = options.partition("=")
            if key != "timeout" or not eq:
                raise SinkError(
                    f"unknown webhook sink option {options!r} in "
                    f"{spec!r}; expected 'timeout=SECONDS'")
            try:
                timeout_s = float(value)
            except ValueError as error:
                raise SinkError(
                    f"bad webhook timeout {value!r} in {spec!r}") from error
            if timeout_s <= 0:
                raise SinkError(
                    f"webhook timeout must be positive, got {value!r}")
        return WebhookAlertSink(rest, timeout_s=timeout_s)
    raise SinkError(
        f"unknown sink scheme {scheme!r} in {spec!r}; expected jsonl "
        f"or webhook")
