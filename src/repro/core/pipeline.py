"""End-to-end characterization pipeline.

:class:`CharacterizationPipeline` chains every stage of the paper on a
raw dataset: Eq. (1) normalization, failure-record construction, elbow
selection and clustering, Table II taxonomy, per-drive degradation
signatures, attribute influence, z-score diagnosis, and Table III
degradation prediction.  The returned
:class:`CharacterizationReport` is the library's primary result object.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.categorize import CategorizationResult, FailureCategorizer
from repro.core.influence import (
    rw_attribute_correlations,
    top_correlated_attributes,
)
from repro.core.prediction import DegradationPredictor, PredictionReport
from repro.core.records import (
    FailureRecordSet,
    build_failure_records,
    failure_records_from_arrays,
    failure_records_to_arrays,
)
from repro.core.signatures import (
    DegradationSignature,
    WindowParams,
    derive_signature,
)
from repro.core.taxonomy import FailureType
from repro.data.cache import DatasetCache
from repro.data.dataset import DiskDataset
from repro.errors import PipelineStageError, ReproError, SignatureError
from repro.obs.observer import PipelineObserver, resolve_observer


@dataclass(frozen=True, slots=True)
class GroupSignatureSummary:
    """Degradation-signature statistics of one failure group."""

    failure_type: FailureType
    n_drives: int
    median_window: float
    window_range: tuple[int, int]
    canonical_order_votes: dict[int, int]
    consensus_order: int
    centroid_serial: str
    top_correlated: tuple[str, ...]

    @property
    def population(self) -> int:
        return self.n_drives


@dataclass(frozen=True, slots=True)
class CharacterizationReport:
    """Everything the pipeline derives from one dataset."""

    dataset: DiskDataset                       # normalized view
    records: FailureRecordSet
    categorization: CategorizationResult
    signatures: dict[str, DegradationSignature]
    group_summaries: dict[FailureType, GroupSignatureSummary]
    predictions: dict[FailureType, PredictionReport] = field(default_factory=dict)
    #: The fitted Table III trees behind ``predictions`` (``None`` when
    #: the prediction stage is off); ``build_bundle`` exports them as is.
    predictor: DegradationPredictor | None = None

    def signature_of(self, serial: str) -> DegradationSignature:
        try:
            return self.signatures[serial]
        except KeyError:
            raise ReproError(f"no signature derived for {serial!r}") from None


class CharacterizationPipeline:
    """Configure and run the full analysis.

    Parameters
    ----------
    n_clusters:
        Fixed group count, or ``None`` for elbow selection.
    window_params:
        Tunables of the degradation-window extraction.
    run_prediction:
        Whether to train the Table III predictors (the most expensive
        stage; disable for categorization-only runs).
    seed:
        Seed shared by clustering, sampling and splitting.
    cache:
        Optional :class:`~repro.data.cache.DatasetCache` memoizing the
        normalized dataset and failure-record matrix between runs.
        Only raw input datasets are cached (already-normalized inputs
        bypass the cache); a hit restores bit-exact arrays, so cached
        and uncached runs produce byte-identical reports.
    observer:
        Telemetry sink for stage spans, metrics and progress events
        (default: a no-op observer — uninstrumented runs pay nothing).
    """

    def __init__(self, *, n_clusters: int | None = 3,
                 window_params: WindowParams | None = None,
                 run_prediction: bool = True,
                 clustering_method: str = "kmeans",
                 seed: int = 0,
                 cache: DatasetCache | None = None,
                 observer: PipelineObserver | None = None) -> None:
        self._observer = resolve_observer(observer)
        self._categorizer = FailureCategorizer(
            n_clusters=n_clusters, method=clustering_method, seed=seed,
            observer=self._observer,
        )
        self._window_params = window_params or WindowParams()
        self._run_prediction = run_prediction
        self._seed = seed
        self._cache = cache

    def run(self, dataset: DiskDataset) -> CharacterizationReport:
        """Analyze ``dataset`` (raw or already normalized).

        Every stage runs inside an error boundary: a non-library
        exception (a numpy shape error, a corrupt profile, a broken
        cache entry) is wrapped into
        :class:`~repro.errors.PipelineStageError` carrying the failing
        stage's name, the stages already completed and the partial
        progress counts — so callers learn *where* a run died, not just
        that it died.  Library errors (:class:`~repro.errors.ReproError`
        subclasses such as :class:`~repro.errors.SignatureError`) are
        already typed and pass through unchanged.
        """
        obs = self._observer
        completed: list[str] = []
        partial: dict[str, object] = {}
        with obs.span("pipeline", n_drives=len(dataset.profiles)):
            with self._boundary("prepare", completed, partial):
                normalized, records = self._prepare(dataset)
            obs.count("drives_processed", len(normalized.profiles))
            obs.gauge("drives_failed", len(normalized.failed_profiles))
            obs.gauge("failure_records", records.n_records)
            partial["n_drives"] = len(normalized.profiles)
            partial["n_failure_records"] = records.n_records

            with self._boundary("categorize", completed, partial):
                categorization = self._categorizer.categorize(records)
            partial["n_groups"] = len(categorization.groups)

            failed_profiles = normalized.failed_profiles
            signatures: dict[str, DegradationSignature] = {}
            with self._boundary("signatures", completed, partial):
                with obs.span("signatures", n_failed=len(failed_profiles)):
                    for profile in failed_profiles:
                        try:
                            signature = derive_signature(
                                profile, params=self._window_params)
                        except SignatureError:
                            # Degenerate profiles (e.g. two records) carry
                            # no signature; they stay categorized but
                            # unsigned.
                            obs.count("signatures_skipped")
                            continue
                        signatures[profile.serial] = signature
                        obs.count("signatures_derived")
                        obs.observe("window_length",
                                    float(signature.window_size))
                        obs.observe("signature_fit_rmse",
                                    signature.best_fit.rmse)
                obs.event("signatures derived",
                          derived=len(signatures),
                          skipped=len(failed_profiles) - len(signatures))
                if failed_profiles and not signatures:
                    raise SignatureError(
                        "no degradation signature could be derived: every "
                        f"failed profile ({len(failed_profiles)}) has an "
                        "empty or degenerate degradation window — the "
                        "telemetry carries no pre-failure change to "
                        "characterize"
                    )
            partial["n_signatures"] = len(signatures)

            with self._boundary("influence", completed, partial):
                with obs.span("influence"):
                    summaries = self._summarize_groups(
                        normalized, categorization, signatures
                    )

            predictions: dict[FailureType, PredictionReport] = {}
            predictor = None
            if self._run_prediction:
                predictor = DegradationPredictor(seed=self._seed,
                                                 observer=obs)
                with self._boundary("predict", completed, partial):
                    with obs.span("predict"):
                        predictions = predictor.evaluate_all(
                            normalized, categorization
                        )

            return CharacterizationReport(
                dataset=normalized,
                records=records,
                categorization=categorization,
                signatures=signatures,
                group_summaries=summaries,
                predictions=predictions,
                predictor=predictor,
            )

    @contextmanager
    def _boundary(self, stage: str, completed: list[str],
                  partial: dict[str, object]) -> Iterator[None]:
        """Wrap one stage: foreign exceptions become
        :class:`PipelineStageError` with progress context attached."""
        try:
            yield
        except ReproError:
            # Already a typed library error with its own context.
            self._observer.count("pipeline_stage_failures")
            raise
        except Exception as error:
            self._observer.count("pipeline_stage_failures")
            self._observer.event("stage failed", stage=stage,
                                 error=type(error).__name__)
            raise PipelineStageError(
                stage, error, completed=tuple(completed), partial=partial,
            ) from error
        completed.append(stage)

    def _prepare(self, dataset: DiskDataset
                 ) -> tuple[DiskDataset, FailureRecordSet]:
        """Normalize ``dataset`` and build its failure records, through
        the cache when one is configured and the input is raw."""
        obs = self._observer
        cache = self._cache
        key: str | None = None
        cached = None
        if cache is not None and not dataset.is_normalized:
            key = cache.key_for(dataset)
            cached = cache.load(key)
        if cached is not None:
            try:
                restored = failure_records_from_arrays(cached.extras)
            except ReproError:
                # Entry predates the record codec (or lost its extras);
                # drop it and recompute below.
                assert cache is not None and key is not None
                cache.invalidate(key)
                cached = None
        if cached is not None:
            with obs.span("normalize", cache_hit=True):
                normalized = cached.dataset
            with obs.span("failure-records", cache_hit=True):
                records = restored
            return normalized, records

        with obs.span("normalize", cache_hit=False if key else None):
            normalized = (dataset if dataset.is_normalized
                          else dataset.normalize())
        with obs.span("failure-records"):
            records = build_failure_records(normalized)
        if cache is not None and key is not None:
            cache.store(key, normalized,
                        extras=failure_records_to_arrays(records))
        return normalized, records

    def _summarize_groups(self, dataset: DiskDataset,
                          categorization: CategorizationResult,
                          signatures: dict[str, DegradationSignature],
                          ) -> dict[FailureType, GroupSignatureSummary]:
        summaries: dict[FailureType, GroupSignatureSummary] = {}
        for failure_type in FailureType:
            serials = categorization.serials_of_type(failure_type)
            group_signatures = [
                signatures[serial] for serial in serials if serial in signatures
            ]
            if not group_signatures:
                continue
            windows = np.array([s.window_size for s in group_signatures])
            votes: dict[int, int] = {}
            for signature in group_signatures:
                order = signature.best_canonical_order
                votes[order] = votes.get(order, 0) + 1
            consensus = max(votes, key=lambda order: votes[order])

            centroid_serial = categorization.centroid_of_type(failure_type)
            # Rank attributes by their mean |correlation| with degradation
            # across the whole group — more robust than the centroid alone.
            accumulated: dict[str, float] = {}
            for signature in group_signatures:
                correlations = rw_attribute_correlations(
                    dataset.get(signature.serial), signature.window
                )
                for symbol, value in correlations.items():
                    accumulated[symbol] = accumulated.get(symbol, 0.0) + abs(value)
            top = tuple(top_correlated_attributes(accumulated, count=2))
            summaries[failure_type] = GroupSignatureSummary(
                failure_type=failure_type,
                n_drives=len(serials),
                median_window=float(np.median(windows)),
                window_range=(int(windows.min()), int(windows.max())),
                canonical_order_votes=votes,
                consensus_order=consensus,
                centroid_serial=centroid_serial,
                top_correlated=top,
            )
        return summaries
