"""Incremental refit: a sliding window of the stream, retrained models.

The second stage of the continuous-learning loop: once drift alarms say
the frozen champion no longer matches the fleet, the stream itself
becomes the next training set.  A :class:`SlidingWindow` accumulates
streamed blocks back into per-drive time series (the inverse of the
columnar flattening the daemon ingests), failure labels arrive through
:meth:`SlidingWindow.mark_failed` (in production from the repair queue,
in the drill from the simulator's ground truth), and
:func:`refit_challenger` re-runs the paper's full characterization —
k-means taxonomy plus per-group regression trees, the exact
:class:`~repro.core.pipeline.CharacterizationPipeline` the offline path
uses — over the window to produce a *challenger*
:class:`~repro.serve.bundle.ModelBundle`.

The challenger reuses :func:`~repro.serve.bundle.build_bundle` and the
schema-version + sha256 machinery, inherits the champion's monitor
thresholds (a refit changes models, not alerting policy), and is
stamped with lineage (:func:`~repro.serve.bundle.stamp_lineage`):
``generation`` one past the champion's and ``parent_sha256`` naming it.
The promotion plane refuses challengers whose lineage does not match
the serving champion, so a stale refit can never skip the chain.

Determinism: the window stores samples in arrival order and sorts
drives by serial when building the dataset, and the pipeline itself is
seed-pinned — the same streamed blocks with the same labels and seed
produce a challenger with the identical content hash, which is what
the drift drill pins across runs.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.pipeline import CharacterizationPipeline
from repro.data.dataset import DiskDataset
from repro.errors import LearnError
from repro.obs.observer import PipelineObserver, resolve_observer
from repro.serve.bundle import ModelBundle, build_bundle, stamp_lineage
from repro.smart.profile import HealthProfile


class SlidingWindow:
    """Per-drive reassembly of recent streamed blocks into a dataset.

    Parameters
    ----------
    attributes:
        Column names of the streamed record matrix, in order (must
        match the champion bundle's attribute ordering).
    max_hours:
        Optional retention horizon: :meth:`trim` drops samples older
        than ``latest_hour - max_hours``, bounding the window's memory
        on an endless stream.  ``None`` keeps everything.
    """

    def __init__(self, attributes: Sequence[str], *,
                 max_hours: int | None = None) -> None:
        if not attributes:
            raise LearnError("a sliding window needs attribute columns")
        if max_hours is not None and max_hours < 1:
            raise LearnError("max_hours must be positive when set")
        self._attributes = tuple(str(name) for name in attributes)
        self._max_hours = max_hours
        self._hours: dict[str, list[int]] = {}
        self._rows: dict[str, list[np.ndarray]] = {}
        self._failed: set[str] = set()
        self._latest_hour: int | None = None
        self._n_samples = 0

    @property
    def n_drives(self) -> int:
        """Drives with at least one sample in the window."""
        return len(self._hours)

    @property
    def n_samples(self) -> int:
        """Samples currently held across all drives."""
        return self._n_samples

    @property
    def failed_serials(self) -> tuple[str, ...]:
        """Serials currently labeled failed, sorted."""
        return tuple(sorted(self._failed))

    def add_block(self, serials: Sequence[str], hours: Sequence[int],
                  matrix: np.ndarray) -> None:
        """Fold one streamed block into the window, row by row."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._attributes):
            raise LearnError(
                f"window expects (n, {len(self._attributes)}) records, "
                f"got shape {tuple(matrix.shape)}")
        if len(serials) != matrix.shape[0] or len(hours) != matrix.shape[0]:
            raise LearnError(
                f"column lengths disagree: {len(serials)} serials, "
                f"{len(hours)} hours, {matrix.shape[0]} rows")
        for row, serial in enumerate(serials):
            serial = str(serial)
            hour = int(hours[row])
            self._hours.setdefault(serial, []).append(hour)
            self._rows.setdefault(serial, []).append(matrix[row].copy())
            self._n_samples += 1
            if self._latest_hour is None or hour > self._latest_hour:
                self._latest_hour = hour
        if self._max_hours is not None:
            self.trim()

    def mark_failed(self, serials: Sequence[str]) -> None:
        """Label drives as failed (the refit's supervision signal)."""
        self._failed.update(str(serial) for serial in serials)

    def trim(self, before_hour: int | None = None) -> int:
        """Drop samples older than the horizon; returns the drop count.

        ``before_hour`` defaults to ``latest_hour - max_hours`` (a
        no-op when no horizon is configured and none is given).
        """
        if before_hour is None:
            if self._max_hours is None or self._latest_hour is None:
                return 0
            before_hour = self._latest_hour - self._max_hours
        dropped = 0
        for serial in list(self._hours):
            hours = self._hours[serial]
            keep = [index for index, hour in enumerate(hours)
                    if hour >= before_hour]
            if len(keep) == len(hours):
                continue
            dropped += len(hours) - len(keep)
            if not keep:
                del self._hours[serial]
                del self._rows[serial]
                continue
            self._hours[serial] = [hours[index] for index in keep]
            self._rows[serial] = [self._rows[serial][index]
                                  for index in keep]
        self._n_samples -= dropped
        return dropped

    def to_dataset(self, *, min_samples: int = 2) -> DiskDataset:
        """Materialize the window as a raw :class:`DiskDataset`.

        Each drive's samples are sorted by hour (keeping the last
        arrival on a duplicated hour — a retried block must not fork a
        timeline) and drives with fewer than ``min_samples`` samples
        are skipped.  Drives iterate in sorted-serial order, so the
        dataset — and everything refit from it — is independent of
        block arrival interleaving across drives.
        """
        profiles: list[HealthProfile] = []
        for serial in sorted(self._hours):
            by_hour: dict[int, np.ndarray] = {}
            for hour, row in zip(self._hours[serial], self._rows[serial]):
                by_hour[hour] = row
            if len(by_hour) < min_samples:
                continue
            hours = sorted(by_hour)
            profiles.append(HealthProfile(
                serial=serial,
                hours=np.asarray(hours, dtype=np.int64),
                matrix=np.vstack([by_hour[hour] for hour in hours]),
                failed=serial in self._failed,
                attributes=self._attributes,
            ))
        if not profiles:
            raise LearnError(
                "sliding window holds no drive with enough samples to "
                "build a dataset")
        return DiskDataset(profiles)


def refit_challenger(dataset: DiskDataset, champion: ModelBundle, *,
                     seed: int = 0, n_clusters: int = 3,
                     observer: PipelineObserver | None = None,
                     ) -> ModelBundle:
    """Retrain the paper's models on ``dataset``; return a challenger.

    Runs the full :class:`~repro.core.pipeline.CharacterizationPipeline`
    (taxonomy k-means + signature fitting + regression trees) with the
    given ``seed``, freezes the result with
    :func:`~repro.serve.bundle.build_bundle` under the champion's
    monitor thresholds, and stamps lineage against the champion.  The
    dataset must carry failed drives (the taxonomy has nothing to
    cluster otherwise) — a window with no marked failures raises
    :class:`~repro.errors.LearnError` before any expensive work.
    """
    obs = resolve_observer(observer)
    if dataset.summary().n_failed < n_clusters:
        raise LearnError(
            f"refit needs at least {n_clusters} failed drives in the "
            f"window, found {dataset.summary().n_failed} — mark failures "
            f"or widen the window")
    with obs.span("learn-refit", n_drives=dataset.summary().n_drives,
                  seed=seed):
        pipeline = CharacterizationPipeline(
            n_clusters=n_clusters, seed=seed, observer=obs)
        report = pipeline.run(dataset)
        challenger = build_bundle(
            report,
            watch_threshold=champion.watch_threshold,
            critical_threshold=champion.critical_threshold,
            history_hours=champion.history_hours,
            seed=seed,
        )
    obs.count("challengers_refit")
    return stamp_lineage(challenger, champion)
