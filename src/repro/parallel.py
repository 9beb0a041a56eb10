"""Deterministic fan-out of per-drive work across worker pools.

The characterization workload is embarrassingly parallel across drives:
each failed drive's distance series, degradation window and polynomial
fit depend on that drive alone, and each simulated drive draws from its
own ``child_rng(seed, serial, ...)`` stream.  :func:`map_drives` exploits
that shape while keeping the library's determinism guarantee:

* items are split into contiguous chunks and dispatched to a process or
  thread pool;
* results are merged back **in input order**, regardless of completion
  order, so ``map_drives(fn, items)`` returns exactly
  ``[fn(item) for item in items]`` for any ``n_jobs``;
* ``n_jobs=1`` short-circuits to a plain in-process loop — no executor,
  no pickling — so the serial path behaves exactly as before.

Backends
--------
``"process"`` (the default) sidesteps the GIL and suits the CPU-bound
signature/simulation stages; the mapped function and its items must be
picklable, which every profile, spec and params dataclass in this
library is.  ``"thread"`` avoids process start-up and pickling overhead
and suits NumPy-heavy callables that release the GIL, or tests that need
cheap concurrency.

Observers hold loggers and locks that must not cross process
boundaries, so the caller's observer never ships to workers and mapped
functions emit no telemetry of their own; callers count what comes
back.  The caller's observer sees one span per fan-out with the chunk
geometry in its attributes, plus the ``parallel_chunks`` counter and
``parallel_jobs`` gauge.

Resilience
----------
A :class:`RetryPolicy` turns worker failure from fatal into recoverable:
each chunk gets a result deadline (``timeout_s``), failed or timed-out
chunks are retried in a *fresh* pool up to ``max_retries`` rounds with
exponential backoff, and — because the items themselves may be fine
even when the infrastructure is not — exhausted chunks fall back to
serial in-process re-execution (``serial_fallback``).  Results still
merge in input order, so a run that survived a crashed worker is
byte-identical to one that never crashed.  The default policy retries
nothing and keeps the original fail-fast semantics.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import ParallelError, WorkerCrashError, WorkerTimeoutError
from repro.obs.observer import PipelineObserver, resolve_observer

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Supported executor backends.
BACKENDS = ("process", "thread")

#: Chunks dispatched per worker; >1 smooths imbalance between chunks
#: (some drives carry longer profiles than others) at the cost of a
#: little more dispatch overhead.
CHUNKS_PER_JOB = 4


def available_cpus() -> int:
    """CPUs this process may run on (affinity-aware, always >= 1)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def effective_jobs(n_jobs: int | None) -> int:
    """Resolve a job count: ``None``/``0`` means every available CPU."""
    if n_jobs is None or n_jobs == 0:
        return available_cpus()
    if n_jobs < 0:
        raise ParallelError(f"n_jobs must be >= 0, got {n_jobs}")
    return int(n_jobs)


def validate_backend(backend: str) -> str:
    """Check an executor backend name and return it unchanged.

    The single place the :data:`BACKENDS` contract is enforced — used
    by :class:`ParallelConfig` and by the serving daemon's shard layer,
    so both reject unknown backends with the same
    :class:`~repro.errors.ParallelError` message.
    """
    if backend not in BACKENDS:
        raise ParallelError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How a fan-out behaves when workers fail.

    Parameters
    ----------
    max_retries:
        Pool rounds to retry failed chunks before giving up on the pool
        (``0`` = no pool retries, the historical fail-fast behavior).
    backoff_s:
        Base of the exponential backoff slept between retry rounds
        (``backoff_s * 2**round``); ``0`` retries immediately.
    timeout_s:
        Per-chunk result deadline, or ``None`` for no deadline.  A
        timed-out chunk counts as failed; its pool is abandoned (the
        stuck worker may never return) and survivors are retried in a
        fresh one.
    serial_fallback:
        After pool retries are exhausted, re-execute the failed chunks
        serially in-process.  This isolates infrastructure failure from
        data failure: if the items are fine the run completes with
        byte-identical results, and if an item genuinely raises, the
        exception propagates exactly as on the serial path.
    """

    max_retries: int = 0
    backoff_s: float = 0.1
    timeout_s: float | None = None
    serial_fallback: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ParallelError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ParallelError(
                f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ParallelError(
                f"timeout_s must be positive, got {self.timeout_s}")

    @classmethod
    def resilient(cls, *, max_retries: int = 2,
                  timeout_s: float | None = None) -> "RetryPolicy":
        """The production preset: retry, back off, fall back to serial."""
        return cls(max_retries=max_retries, backoff_s=0.1,
                   timeout_s=timeout_s, serial_fallback=True)


@dataclass(frozen=True, slots=True)
class ParallelConfig:
    """How a fan-out runs.

    Parameters
    ----------
    n_jobs:
        Worker count; ``0`` means one per available CPU, ``1`` runs
        inline without an executor.
    backend:
        ``"process"`` or ``"thread"``.
    chunk_size:
        Items per dispatched chunk, or ``None`` to derive one from the
        item count (:func:`default_chunk_size`).
    retry:
        Worker-failure policy; the default retries nothing (failures
        propagate immediately, exactly as before).
    """

    n_jobs: int = 1
    backend: str = "process"
    chunk_size: int | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.n_jobs < 0:
            raise ParallelError(f"n_jobs must be >= 0, got {self.n_jobs}")
        validate_backend(self.backend)
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ParallelError("chunk_size must be at least 1")


def default_chunk_size(n_items: int, n_jobs: int) -> int:
    """Items per chunk targeting :data:`CHUNKS_PER_JOB` chunks per worker."""
    if n_items <= 0:
        return 1
    target_chunks = max(1, n_jobs * CHUNKS_PER_JOB)
    return max(1, -(-n_items // target_chunks))


def chunked(items: Sequence[_T], chunk_size: int) -> list[list[_T]]:
    """Split ``items`` into contiguous chunks of ``chunk_size``."""
    if chunk_size < 1:
        raise ParallelError("chunk_size must be at least 1")
    return [
        list(items[start:start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]


def _run_chunk(fn: Callable[[_T], _R], chunk: list[_T]) -> list[_R]:
    """Worker body: apply ``fn`` to one chunk (module-level so process
    backends can pickle it)."""
    return [fn(item) for item in chunk]


def map_drives(fn: Callable[[_T], _R], items: Iterable[_T],
               config: ParallelConfig | None = None, *,
               observer: PipelineObserver | None = None,
               label: str = "map-drives",
               initializer: Callable[..., None] | None = None,
               initargs: tuple[Any, ...] = ()) -> list[_R]:
    """Apply ``fn`` to every item, fanning out according to ``config``.

    Returns results in input order for every backend and job count —
    the ordered merge is what makes ``n_jobs`` a pure performance knob
    with no analytic effect.  Exceptions raised by ``fn`` propagate to
    the caller (the earliest-submitted failing chunk wins).

    ``initializer(*initargs)`` runs once in every worker before any
    chunk (and once inline on the serial path), so callers can replicate
    process-wide state — e.g. the experiment harness re-applies its
    fleet scale in each worker.  ``observer`` receives a ``label`` span wrapping the whole fan-out with ``n_items`` /
    ``n_jobs`` / ``backend`` / ``n_chunks`` attributes.
    """
    cfg = config if config is not None else ParallelConfig()
    obs = resolve_observer(observer)
    materialized = list(items)
    if not materialized:
        return []
    jobs = min(effective_jobs(cfg.n_jobs), len(materialized))
    if jobs <= 1:
        if initializer is not None:
            initializer(*initargs)
        with obs.span(label, n_items=len(materialized), n_jobs=1,
                      backend="inline"):
            return [fn(item) for item in materialized]

    chunk_size = (cfg.chunk_size if cfg.chunk_size is not None
                  else default_chunk_size(len(materialized), jobs))
    chunks = chunked(materialized, chunk_size)
    executor_cls: Any = (ProcessPoolExecutor if cfg.backend == "process"
                         else ThreadPoolExecutor)
    with obs.span(label, n_items=len(materialized), n_jobs=jobs,
                  backend=cfg.backend, n_chunks=len(chunks),
                  chunk_size=chunk_size):
        chunk_results = _execute_chunks(fn, chunks, executor_cls, jobs,
                                        cfg.retry, obs,
                                        initializer=initializer,
                                        initargs=initargs)
    obs.count("parallel_chunks", len(chunks))
    obs.gauge("parallel_jobs", jobs)
    return [result for results in chunk_results for result in results]


def _execute_chunks(fn: Callable[[_T], _R], chunks: list[list[_T]],
                    executor_cls: Any, jobs: int, policy: RetryPolicy,
                    obs: PipelineObserver, *,
                    initializer: Callable[..., None] | None,
                    initargs: tuple[Any, ...]) -> list[list[_R]]:
    """Run every chunk through worker pools, retrying per ``policy``.

    Round 0 dispatches everything; each later round re-dispatches only
    the chunks that failed, in a fresh pool (a broken or timed-out pool
    cannot be trusted again).  Chunks still failing after
    ``policy.max_retries`` rounds either re-execute serially in-process
    (``serial_fallback``) or raise a typed error.  The per-chunk result
    slots keep the input-order merge intact whatever the retry history.
    """
    results: list[list[_R] | None] = [None] * len(chunks)
    pending = list(range(len(chunks)))
    last_error: BaseException | None = None
    for round_no in range(policy.max_retries + 1):
        if round_no:
            obs.count("parallel_retries", len(pending))
            obs.event("retrying failed chunks", round=round_no,
                      chunks=len(pending))
            if policy.backoff_s:
                time.sleep(policy.backoff_s * 2 ** (round_no - 1))
        pending, last_error = _pool_round(
            fn, chunks, results, pending, executor_cls, jobs, policy, obs,
            initializer=initializer, initargs=initargs,
        )
        if not pending:
            return results  # type: ignore[return-value]
        if policy.max_retries == 0 and not policy.serial_fallback:
            # Fail-fast compatibility path: no retries requested, no
            # fallback — surface the failure exactly as it occurred.
            break
    if policy.serial_fallback:
        obs.count("parallel_serial_fallbacks", len(pending))
        obs.event("falling back to serial re-execution",
                  chunks=len(pending))
        if initializer is not None:
            initializer(*initargs)
        for index in pending:
            results[index] = _run_chunk(fn, chunks[index])
        return results  # type: ignore[return-value]
    assert last_error is not None
    if isinstance(last_error, FuturesTimeoutError):
        raise WorkerTimeoutError(
            f"{len(pending)} chunk(s) exceeded the {policy.timeout_s}s "
            f"deadline after {policy.max_retries + 1} attempt(s)"
        ) from last_error
    if isinstance(last_error, BrokenProcessPool):
        raise WorkerCrashError(
            f"worker pool broke and {len(pending)} chunk(s) were still "
            f"unfinished after {policy.max_retries + 1} attempt(s)"
        ) from last_error
    raise last_error


def _pool_round(fn: Callable[[_T], _R], chunks: list[list[_T]],
                results: list[list[_R] | None], pending: list[int],
                executor_cls: Any, jobs: int, policy: RetryPolicy,
                obs: PipelineObserver, *,
                initializer: Callable[..., None] | None,
                initargs: tuple[Any, ...],
                ) -> tuple[list[int], BaseException | None]:
    """One dispatch round; returns (still-failed chunk indices, last error)."""
    failed: list[int] = []
    last_error: BaseException | None = None
    pool = executor_cls(max_workers=min(jobs, len(pending)),
                        initializer=initializer, initargs=initargs)
    abandoned = False
    try:
        futures = {index: pool.submit(_run_chunk, fn, chunks[index])
                   for index in pending}
        for index in pending:
            if abandoned:
                # The pool is gone (timeout or crash); drain what
                # already finished, fail the rest without blocking.
                future = futures[index]
                if future.done() and not future.exception():
                    results[index] = future.result()
                else:
                    failed.append(index)
                continue
            try:
                results[index] = futures[index].result(
                    timeout=policy.timeout_s)
            except FuturesTimeoutError as error:
                obs.count("parallel_timeouts")
                failed.append(index)
                last_error = error
                abandoned = True
            except BrokenProcessPool as error:
                obs.count("parallel_worker_crashes")
                failed.append(index)
                last_error = error
                abandoned = True
            except Exception as error:  # noqa: BLE001 — fn's own failure
                failed.append(index)
                last_error = error
    finally:
        # A timed-out pool may hold a stuck worker: do not block on it.
        pool.shutdown(wait=not abandoned, cancel_futures=True)
    return failed, last_error
