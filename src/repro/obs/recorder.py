"""Flight recorder: a bounded ring buffer of recent structured events.

Counters tell an operator *how much* happened; when a scorer
misbehaves, they need to know *what happened last*.  The
:class:`FlightRecorder` keeps the most recent ``capacity`` events —
alerts, errors, lifecycle marks — each with a monotone sequence number,
a wall-clock timestamp, a kind, a message and arbitrary JSON-clean
context.  Memory is O(capacity) no matter how long the stream runs;
older events fall off the front and are only counted (``dropped``).

The recorder is thread-safe (the serving HTTP surface reads the tail
while the scorer appends) and dumps on demand (:meth:`tail`,
:meth:`to_dicts`, :meth:`dump_jsonl`) or on crash: wrap the risky
region in :meth:`guard` and an escaping exception writes the full ring
— with the failure recorded as its final event — before propagating::

    recorder = FlightRecorder(capacity=512)
    with recorder.guard("crash_dump.jsonl"):
        serve_forever(recorder)
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import ObservabilityError
from repro.ioutil import atomic_write_text

#: Default ring size; at one event per alert this covers the recent
#: history an incident review actually reads.
DEFAULT_CAPACITY = 512


@dataclass(frozen=True, slots=True)
class FlightEvent:
    """One recorded event: sequence number, time, kind, message, context."""

    seq: int
    wall_time: float
    kind: str
    message: str
    context: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """Plain-type mapping, ready for JSON serialization."""
        return {
            "seq": self.seq,
            "wall_time": self.wall_time,
            "kind": self.kind,
            "message": self.message,
            "context": dict(self.context),
        }


class FlightRecorder:
    """Bounded ring buffer of the last ``capacity`` structured events.

    Parameters
    ----------
    capacity:
        Maximum events retained; older events are evicted (and counted
        in :attr:`dropped`).
    clock:
        Timestamp source (``time.time`` by default); injectable so
        tests can pin deterministic timestamps.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 clock: Callable[[], float] = time.time) -> None:
        if capacity < 1:
            raise ObservabilityError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._clock = clock
        self._events: deque[FlightEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0

    @property
    def capacity(self) -> int:
        """Maximum events retained."""
        return self._capacity

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (including evicted ones)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted from the front of the ring."""
        with self._lock:
            return self._seq - len(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def record(self, kind: str, message: str,
               **context: Any) -> FlightEvent:
        """Append one event and return it.

        ``kind`` is a coarse routing tag (``"alert"``, ``"error"``,
        ``"lifecycle"``, ...); ``context`` is arbitrary JSON-clean
        detail.
        """
        with self._lock:
            event = FlightEvent(
                seq=self._seq,
                wall_time=float(self._clock()),
                kind=str(kind),
                message=str(message),
                context=dict(context),
            )
            self._seq += 1
            self._events.append(event)
        return event

    def tail(self, n: int | None = None) -> list[FlightEvent]:
        """The most recent ``n`` events, oldest first (all if ``None``)."""
        with self._lock:
            events = list(self._events)
        if n is None:
            return events
        if n < 0:
            raise ObservabilityError(f"tail length must be >= 0, got {n}")
        return events[len(events) - min(n, len(events)):]

    def to_dicts(self, n: int | None = None) -> list[dict[str, Any]]:
        """The tail as plain dicts, ready for a JSON status payload."""
        return [event.to_dict() for event in self.tail(n)]

    def dump_jsonl(self, path: str | Path) -> Path:
        """Write the retained ring as JSONL, one event per line.

        Atomic (temp file + rename), so a crash during the dump never
        leaves a torn file under the final name.
        """
        path = Path(path)
        lines = [json.dumps(event, sort_keys=True)
                 for event in self.to_dicts()]
        try:
            atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
        except OSError as error:
            raise ObservabilityError(
                f"cannot dump flight recorder to {path}: {error}"
            ) from error
        return path

    @contextmanager
    def guard(self, path: str | Path) -> Iterator["FlightRecorder"]:
        """Dump the ring to ``path`` if the guarded block raises.

        The escaping exception is recorded as a final ``"crash"`` event
        (type and message) and always propagates; a clean exit writes
        nothing.
        """
        try:
            yield self
        except BaseException as error:
            self.record("crash", f"{type(error).__name__}: {error}",
                        exception=type(error).__name__)
            self.dump_jsonl(path)
            raise
