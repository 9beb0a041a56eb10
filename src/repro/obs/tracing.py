"""Nestable span tracing for the characterization pipeline.

A :class:`Tracer` records a tree of named spans — one per pipeline stage
or sub-stage — with wall time (``time.perf_counter``), CPU time
(``time.process_time``) and arbitrary attributes::

    tracer = Tracer()
    with tracer.span("cluster", k=3):
        with tracer.span("elbow"):
            ...

The finished trace is a plain tree of :class:`Span` records exportable
as JSON (:meth:`Tracer.to_dict` / :meth:`Tracer.save_json`), so stage
timings survive the process and can be diffed across runs.

The tracer is deliberately simple: spans nest via an explicit stack, so
one tracer serves one thread of execution.  Concurrent pipelines should
each carry their own tracer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ObservabilityError

#: Version written into exported traces; bump on breaking changes.
TRACE_SCHEMA_VERSION = 1


@dataclass
class Span:
    """One timed region of the trace tree.

    ``wall_s`` and ``cpu_s`` are filled in when the span closes; a span
    that exited through an exception carries ``status="error"`` and the
    formatted exception in ``error``.
    """

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    status: str = "ok"
    error: str | None = None
    children: list["Span"] = field(default_factory=list)

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.error is not None:
            payload["error"] = self.error
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload


class _ActiveSpan:
    """Context manager closing one span and popping the tracer stack."""

    __slots__ = ("_tracer", "span", "_wall_start", "_cpu_start")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self.span

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.span.wall_s = time.perf_counter() - self._wall_start
        self.span.cpu_s = time.process_time() - self._cpu_start
        if exc is not None:
            self.span.status = "error"
            self.span.error = f"{type(exc).__name__}: {exc}"
        self._tracer._pop(self.span)
        return False  # never swallow the exception


class Tracer:
    """Collects a forest of nested spans for one pipeline run."""

    def __init__(self) -> None:
        self._roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def roots(self) -> tuple[Span, ...]:
        """Top-level spans, in start order."""
        return tuple(self._roots)

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attributes: Any) -> _ActiveSpan:
        """Open a child span of the current span (or a new root)."""
        span = Span(name=name, attributes=attributes)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of order"
            )
        self._stack.pop()

    def walk(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for root in self._roots:
            yield from root.walk()

    def find(self, name: str) -> Span | None:
        """First recorded span with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def stage_timings(self) -> dict[str, float]:
        """Total wall seconds per span name, summed over occurrences."""
        timings: dict[str, float] = {}
        for span in self.walk():
            timings[span.name] = timings.get(span.name, 0.0) + span.wall_s
        return dict(sorted(timings.items()))

    def to_dict(self) -> dict[str, Any]:
        """Export the whole trace as JSON-serializable types."""
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "spans": [root.to_dict() for root in self._roots],
        }

    def save_json(self, path: str | Path) -> None:
        """Write the trace to ``path`` as indented, key-sorted JSON."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
