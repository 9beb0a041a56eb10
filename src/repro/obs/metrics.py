"""Counters, gauges and histograms for the analysis pipeline.

A :class:`MetricsRegistry` hands out named metrics on first use and
renders the whole set as a JSON snapshot::

    registry = MetricsRegistry()
    registry.counter("drives_processed").inc(4000)
    registry.histogram("window_length").observe(382.0)
    print(registry.to_json())

Metric kinds follow the conventional trio: a :class:`Counter` only ever
accumulates, a :class:`Gauge` holds the latest value, and a
:class:`Histogram` tracks a distribution.

Histograms are **bounded by default** so a streaming scorer can observe
millions of samples without growing memory: exact aggregates (count,
sum, min, max) are tracked incrementally, per-value counts go into the
fixed log-spaced :data:`BUCKET_BOUNDS` (the same buckets Prometheus
exposition renders), and quantiles come from a deterministic compacting
reservoir of at most ``retention`` retained values.  Below the retention
cap the reservoir holds every observation, so quantiles stay *exact* —
identical to the historical behavior — and beyond it the reservoir
thins itself to every 2nd, 4th, ... observation, keeping quantile
estimates representative at O(retention) memory.  Batch callers that
want unbounded exact quantiles regardless of volume pass
``retention=None``.

Metrics may carry **labels** — a small mapping of string key/value
pairs — turning a name into a family of time series (one per label
set), the way Prometheus models dimensions::

    registry.counter("telemetry_requests", labels={"endpoint": "metrics"})
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import json
import math
import operator
import re
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ObservabilityError

#: Quantiles reported in every histogram snapshot.
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99)

#: Default histogram reservoir capacity.  Below this many observations
#: quantiles are exact; beyond it the reservoir compacts (memory stays
#: bounded, quantiles become representative estimates).
DEFAULT_HISTOGRAM_RETENTION = 4096

#: Metric and label-key grammar (Prometheus-compatible snake_case).
_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*$")


def _log_spaced_bounds() -> tuple[float, ...]:
    """Fixed 1-2.5-5 log-spaced bucket bounds, mirrored around zero.

    Positive decades cover 1e-3 .. 5e6 — sub-millisecond latencies up
    to multi-week hour counts — and every positive bound has a negative
    mirror so signed observations (degradation stages are negative)
    resolve too.
    """
    positive = [m * 10.0 ** e for e in range(-3, 7) for m in (1.0, 2.5, 5.0)]
    return tuple([-b for b in reversed(positive)] + [0.0] + positive)


#: Upper bounds (``le``) of the shared histogram buckets; observations
#: above the last bound land in the implicit +Inf bucket.
BUCKET_BOUNDS = _log_spaced_bounds()


def _check_name(name: str) -> str:
    """Enforce the snake_case metric-name grammar."""
    if not _NAME_PATTERN.match(name):
        raise ObservabilityError(
            f"metric name {name!r} is not snake_case "
            "(expected ^[a-z][a-z0-9_]*$)"
        )
    return name


def normalize_labels(labels: Mapping[str, str] | None,
                     ) -> tuple[tuple[str, str], ...]:
    """Canonicalize a label mapping to a sorted, hashable tuple."""
    if not labels:
        return ()
    normalized = []
    for key in sorted(labels):
        if not _NAME_PATTERN.match(key):
            raise ObservabilityError(
                f"label key {key!r} is not snake_case"
            )
        normalized.append((key, str(labels[key])))
    return tuple(normalized)


def render_label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    """``{k="v",...}`` suffix for a label set (empty string if none)."""
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in labels
    )
    return "{" + body + "}"


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str,
                 labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str,
                 labels: tuple[tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Distribution of observed values with bounded streaming state.

    Aggregates (count, sum, min, max) and the fixed
    :data:`BUCKET_BOUNDS` counts are always exact.  Quantiles come from
    a retained sample: with ``retention=None`` every observation is
    kept (exact quantiles at unbounded memory — the batch-analysis
    mode); with an integer ``retention`` (the default,
    :data:`DEFAULT_HISTOGRAM_RETENTION`) the sample is exact until the
    cap is reached, then deterministically compacts to every 2nd, 4th,
    ... observation so memory never exceeds the cap however long the
    stream runs.
    """

    __slots__ = ("name", "labels", "_retention", "_values", "_stride",
                 "_skip", "_count", "_sum", "_min", "_max", "_buckets")
    kind = "histogram"

    def __init__(self, name: str,
                 labels: tuple[tuple[str, str], ...] = (), *,
                 retention: int | None = DEFAULT_HISTOGRAM_RETENTION) -> None:
        if retention is not None and retention < 2:
            raise ObservabilityError(
                f"histogram {name!r}: retention must be >= 2 or None, "
                f"got {retention}"
            )
        self.name = name
        self.labels = labels
        self._retention = retention
        self._values: list[float] = []
        self._stride = 1
        self._skip = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ObservabilityError(
                f"histogram {self.name!r} observed non-finite value {value!r}"
            )
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._buckets[bisect.bisect_left(BUCKET_BOUNDS, value)] += 1
        if self._retention is None:
            self._values.append(value)
            return
        if self._skip:
            self._skip -= 1
            return
        self._values.append(value)
        self._skip = self._stride - 1
        if len(self._values) >= self._retention:
            self._compact()

    def observe_many(self, values: Iterable[float]) -> None:
        """Record ``values`` in order, in one call per batch.

        Leaves exactly the state a loop of :meth:`observe` leaves —
        count, sequential sum, min/max, buckets and the reservoir with
        its stride and skip across compactions — without a Python-level
        step per value.  A batch holding a non-finite (or non-numeric)
        value goes through that loop instead, so it records the same
        prefix and raises the same error.
        """
        values = list(values)
        try:
            floats = list(map(float, values))
        except (TypeError, ValueError):
            floats = []
        if len(floats) != len(values) or not all(map(math.isfinite, floats)):
            for value in values:
                self.observe(value)
            return
        if not floats:
            return
        self._count += len(floats)
        self._sum = functools.reduce(operator.add, floats, self._sum)
        low, high = min(floats), max(floats)
        if low < self._min:
            self._min = low
        if high > self._max:
            self._max = high
        hits = collections.Counter(map(
            bisect.bisect_left, itertools.repeat(BUCKET_BOUNDS), floats))
        for index, count in hits.items():
            self._buckets[index] += count
        if self._retention is None:
            self._values.extend(floats)
            return
        start, end = 0, len(floats)
        while start < end:
            if self._skip:
                skipped = min(self._skip, end - start)
                self._skip -= skipped
                start += skipped
                continue
            # Keep every stride-th value until the reservoir fills (a
            # compaction then doubles the stride) or the batch ends.
            stride = self._stride
            kept = floats[start:end:stride][:self._retention
                                             - len(self._values)]
            self._values.extend(kept)
            start += (len(kept) - 1) * stride + 1
            self._skip = stride - 1
            if len(self._values) >= self._retention:
                self._compact()

    def _compact(self) -> None:
        """Halve the reservoir and double the keep stride."""
        self._values = self._values[::2]
        self._stride *= 2
        self._skip = self._stride - 1

    @property
    def count(self) -> int:
        """Exact number of observations (independent of retention)."""
        return self._count

    @property
    def sum(self) -> float:
        """Exact sum of all observations."""
        return self._sum

    @property
    def retention(self) -> int | None:
        """Reservoir capacity (``None`` = keep everything)."""
        return self._retention

    @property
    def mean(self) -> float:
        if not self._count:
            return 0.0
        return self._sum / self._count

    @property
    def min(self) -> float:
        """Exact smallest observation (0.0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Exact largest observation (0.0 when empty)."""
        return self._max if self._count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs, +Inf bound last."""
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(BUCKET_BOUNDS, self._buckets):
            running += count
            pairs.append((bound, running))
        pairs.append((math.inf, running + self._buckets[-1]))
        return pairs

    def quantile(self, q: float) -> float:
        """Quantile with linear interpolation over the retained sample.

        Exact while the stream fits the retention cap (or with
        ``retention=None``); a representative estimate afterwards.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile {q} outside [0, 1]")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = q * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def snapshot(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind, "count": self.count}
        if self._count:
            payload.update(min=self._min, max=self._max, mean=self.mean)
            for q in SNAPSHOT_QUANTILES:
                payload[f"p{int(q * 100)}"] = self.quantile(q)
        return payload

#: Registry key: (name, normalized label tuple).
_MetricKey = tuple[str, tuple[tuple[str, str], ...]]


class MetricsRegistry:
    """Named metric families, created on first access.

    Re-requesting a name (with the same labels) returns the same
    instance; requesting a name as a different kind — under *any* label
    set — raises :class:`ObservabilityError`: a metric name means one
    thing for the life of the registry.
    """

    def __init__(self) -> None:
        self._metrics: dict[_MetricKey, Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, type] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    def names(self) -> tuple[str, ...]:
        """Sorted unique metric (family) names."""
        return tuple(sorted(self._kinds))

    def counter(self, name: str,
                labels: Mapping[str, str] | None = None) -> Counter:
        return self._get_or_create(name, Counter, labels)

    def gauge(self, name: str,
              labels: Mapping[str, str] | None = None) -> Gauge:
        return self._get_or_create(name, Gauge, labels)

    def histogram(self, name: str,
                  labels: Mapping[str, str] | None = None, *,
                  retention: int | None = DEFAULT_HISTOGRAM_RETENTION,
                  ) -> Histogram:
        """The named histogram; ``retention`` applies on first creation."""
        return self._get_or_create(name, Histogram, labels,
                                   retention=retention)

    def _get_or_create(self, name: str, factory, labels, **kwargs):
        # Fast path for the hot loop: an existing metric's name and
        # labels were validated when it was created, so a hit needs
        # only the kind check, no regex work.
        key = (name, normalize_labels(labels) if labels else ())
        metric = self._metrics.get(key)
        if metric is not None:
            if self._kinds.get(name) is not factory:
                registered = self._kinds[name]
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{registered.kind}, requested as {factory.kind}"
                )
            return metric
        registered = self._kinds.get(_check_name(name))
        if registered is not None and registered is not factory:
            raise ObservabilityError(
                f"metric {name!r} already registered as "
                f"{registered.kind}, requested as {factory.kind}"
            )
        metric = factory(name, key[1], **kwargs)
        self._metrics[key] = metric
        self._kinds[name] = factory
        return metric

    def families(self) -> Iterator[tuple[str, str, list[Counter | Gauge |
                                                        Histogram]]]:
        """``(name, kind, members)`` per family, name-sorted, members
        sorted by rendered label suffix (the unlabeled member first)."""
        by_name: dict[str, list] = {}
        for (name, _), metric in self._metrics.items():
            by_name.setdefault(name, []).append(metric)
        for name in sorted(by_name):
            members = sorted(by_name[name],
                             key=lambda m: render_label_suffix(m.labels))
            yield name, self._kinds[name].kind, members

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All metrics as a key-sorted JSON-serializable mapping.

        Unlabeled metrics key on their name; labeled members key on
        ``name{k="v",...}``.
        """
        flat = {
            name + render_label_suffix(labels): metric.snapshot()
            for (name, labels), metric in self._metrics.items()
        }
        return {key: flat[key] for key in sorted(flat)}

    def to_json(self) -> str:
        """The snapshot as indented, key-sorted JSON text."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n"
