"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch one type to handle any library failure while letting programming
errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class UnknownAttributeError(ReproError, KeyError):
    """A SMART attribute symbol is not present in the Table I registry."""

    def __init__(self, symbol: str) -> None:
        super().__init__(symbol)
        self.symbol = symbol

    def __str__(self) -> str:
        return f"unknown SMART attribute symbol: {self.symbol!r}"


class NormalizationError(ReproError):
    """Normalization was applied before fitting or to mismatched data."""


class DatasetError(ReproError):
    """A dataset container is malformed or an operation on it is invalid."""


class SimulationError(ReproError):
    """The fleet simulator was configured or driven inconsistently."""


class ModelError(ReproError):
    """A machine-learning model was used before fitting or misconfigured."""


class ConvergenceError(ModelError):
    """An iterative algorithm failed to converge within its iteration cap."""


class SignatureError(ReproError):
    """Degradation-signature extraction failed (e.g. empty window)."""


class ExperimentError(ReproError):
    """An experiment harness was invoked with invalid parameters."""


class ObservabilityError(ReproError):
    """The instrumentation layer was misused (e.g. metric kind clash)."""


class CacheError(ReproError):
    """The on-disk dataset cache was misused or its directory is unusable."""


class FaultInjectionError(ReproError):
    """A chaos specification or fault injector was misconfigured."""


class QuarantineError(ReproError):
    """Sanitization left no usable data (every profile was quarantined)."""


class CheckpointError(ReproError):
    """A checkpoint directory is unusable or holds a malformed entry."""


class ServeError(ReproError):
    """The serving layer was misused (bad stream input or configuration)."""


class BundleError(ServeError):
    """A model-bundle artifact is corrupt, stale or malformed."""


class SinkError(ServeError):
    """An alert sink is misconfigured or failed to deliver an alert.

    Attributes
    ----------
    retry_after_s:
        Optional server-supplied wait hint (seconds) before the
        delivery should be retried — set by the webhook sink when the
        endpoint answered 429/503 with a ``Retry-After`` header.  The
        delivery pipeline prefers it over its own exponential backoff.
    """

    def __init__(self, message: str, *,
                 retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class WalError(ServeError):
    """A write-ahead log directory is unusable or holds corrupt records.

    Raised on non-tail corruption (a damaged record *followed by* valid
    data — torn tails are silently truncated instead), on segment
    files that cannot be read or written, and on recovery against a
    WAL produced by a different model bundle.
    """


class ShardRecoveringError(ServeError):
    """A batch targeted a shard that is being rebuilt after a crash.

    The serving daemon maps this to HTTP 503 with a ``Retry-After``
    header.  Like backpressure, admission is all-or-nothing: no sample
    of the rejected batch was admitted, so the caller can retry the
    whole batch once the shard has replayed its snapshot + WAL suffix.

    Attributes
    ----------
    shard:
        Index of the recovering shard.
    retry_after_s:
        Suggested wait before retrying, in seconds.
    """

    def __init__(self, shard: int, retry_after_s: float) -> None:
        super().__init__(
            f"shard {shard} is recovering from a crash "
            f"(snapshot + WAL replay in progress); retry in "
            f"{retry_after_s:g}s"
        )
        self.shard = shard
        self.retry_after_s = retry_after_s


class BackpressureError(ServeError):
    """A bounded shard queue is full; the caller should retry later.

    The serving daemon maps this to HTTP 429 with a ``Retry-After``
    header.  Admission is all-or-nothing: when this error is raised,
    *no* sample from the rejected batch was enqueued or scored, so a
    retried batch never double-scores a drive-hour.

    Attributes
    ----------
    shard:
        Index of the saturated shard.
    retry_after_s:
        Suggested wait before retrying, in seconds.
    """

    def __init__(self, shard: int, retry_after_s: float,
                 capacity: int) -> None:
        super().__init__(
            f"shard {shard} ingest queue is full "
            f"({capacity} batches in flight); retry in {retry_after_s:g}s"
        )
        self.shard = shard
        self.retry_after_s = retry_after_s
        self.capacity = capacity


class LearnError(ReproError):
    """The continuous-learning loop was misused or misconfigured.

    Raised by :mod:`repro.learn` on invalid drift policies, refits
    attempted before the sliding window holds any failed drives,
    shadow reports over mismatched streams, and promotion decisions
    evaluated against the wrong champion generation.
    """


class PipelineStageError(ReproError):
    """A pipeline stage crashed on an unexpected (non-library) exception.

    The error boundary around each stage converts arbitrary crashes into
    this typed form so callers can tell *where* the pipeline died and
    what had already been computed, instead of parsing a raw traceback.

    Attributes
    ----------
    stage:
        Name of the stage that crashed (e.g. ``"signatures"``).
    completed:
        Names of the stages that finished before the crash, in order.
    partial:
        Coarse counts describing the partial results available at the
        time of the crash (e.g. drives processed, records built).
    """

    def __init__(self, stage: str, cause: BaseException,
                 completed: tuple[str, ...] = (),
                 partial: dict[str, int] | None = None) -> None:
        super().__init__(stage, str(cause))
        self.stage = stage
        self.cause = cause
        self.completed = completed
        self.partial = dict(partial or {})

    def __str__(self) -> str:
        done = ", ".join(self.completed) if self.completed else "none"
        suffix = ""
        if self.partial:
            counts = ", ".join(f"{key}={value}"
                               for key, value in sorted(self.partial.items()))
            suffix = f" [partial results: {counts}]"
        return (f"pipeline stage {self.stage!r} failed: "
                f"{type(self.cause).__name__}: {self.cause} "
                f"(completed stages: {done}){suffix}")
