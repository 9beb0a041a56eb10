"""The observer seam between the pipeline and the instrumentation.

Pipeline stages never talk to a tracer or a metrics registry directly;
they call the tiny :class:`PipelineObserver` surface — ``span``,
``count``, ``gauge``, ``observe``, ``observe_many``, ``event`` — and
callers decide what backs it.  The default is :data:`NULL_OBSERVER`,
whose every operation is a no-op cheap enough to leave in hot paths, so
uninstrumented runs behave exactly as before.  :class:`TelemetryObserver`
is the real implementation bundling a :class:`~repro.obs.tracing.Tracer`,
a :class:`~repro.obs.metrics.MetricsRegistry` and a logger.
"""

from __future__ import annotations

from typing import Any, ContextManager, Iterable, Protocol, runtime_checkable

from repro.obs.logging import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


@runtime_checkable
class PipelineObserver(Protocol):
    """What an instrumented stage may emit."""

    def span(self, name: str, **attributes: Any) -> ContextManager[Any]:
        """Open a nested timed region named ``name``."""

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increase the named counter."""

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge."""

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        """Record a batch of observations, in order, into one histogram.

        Same end state as calling :meth:`observe` once per value, at
        one registry lookup per batch.
        """

    def event(self, message: str, **fields: Any) -> None:
        """Emit a progress event (a structured log line)."""


class _NullSpan:
    """Reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NoopObserver:
    """Observer that discards everything (the default everywhere)."""

    __slots__ = ()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        pass

    def event(self, message: str, **fields: Any) -> None:
        pass


#: Shared no-op instance; stages default to this.
NULL_OBSERVER = NoopObserver()


def resolve_observer(observer: PipelineObserver | None) -> PipelineObserver:
    """``observer`` if given, else the shared no-op."""
    return observer if observer is not None else NULL_OBSERVER


class TelemetryObserver:
    """Observer backed by a tracer, a metrics registry and a logger."""

    def __init__(self, *, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 logger=None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.logger = logger if logger is not None else get_logger("pipeline")

    def span(self, name: str, **attributes: Any) -> ContextManager[Any]:
        self.logger.debug("stage %s started", name)
        return self.tracer.span(name, **attributes)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def observe_many(self, name: str, values: Iterable[float]) -> None:
        self.metrics.histogram(name).observe_many(values)

    def event(self, message: str, **fields: Any) -> None:
        self.logger.info(message, extra={"fields": fields})

    def telemetry_section(self) -> dict[str, Any]:
        """Stage timings + metric snapshot, for report embedding."""
        return {
            "stage_timings": self.tracer.stage_timings(),
            "metrics": self.metrics.snapshot(),
        }
