"""Versioned model artifacts: everything a scorer needs, in one file.

The characterization pipeline ends with models that live only inside the
Python process that trained them — the fitted per-group regression
trees, the Eq. (1) normalization extrema, the failure-group taxonomy.
Deploying the paper's monitor as a service means those models must
outlive the process: trained once, shipped to scoring hosts, loaded in
milliseconds, and *refused* when stale or corrupt.

:class:`ModelBundle` is that artifact.  It captures:

* the Table I attribute ordering the models were trained on;
* the fitted :class:`~repro.smart.normalization.MinMaxNormalizer`
  extrema (exact float64 values — a restored scaler transforms
  byte-identically);
* the failure-group taxonomy from categorization: per group the failure
  type, paper group number, population, centroid drive and the k-means
  centroid vector in failure-record feature space;
* the canonical signature parameters per group (polynomial order and
  prediction window ``d``);
* the fitted :class:`~repro.ml.tree.RegressionTree` per failure group
  (exact round trip via ``to_dict``/``from_dict``);
* the monitor thresholds (WATCH / CRITICAL stages, history hours).

:func:`save_bundle` writes the bundle as a single JSON file carrying a
schema version and a sha256 content hash; :func:`load_bundle` refuses
truncated files, foreign JSON, stale schema versions and hash mismatches
with typed :class:`~repro.errors.BundleError`\\ s — a loaded bundle
either reproduces the training-time models bit for bit or does not load
at all.  Floats are serialized via ``repr`` (Python's ``json`` default),
which round-trips every float64 exactly; the artifact deliberately does
*not* use the report serializer's 12-significant-digit normalization,
because a rounded tree threshold could route a sample down a different
branch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.monitor import (
    DEFAULT_CRITICAL_THRESHOLD,
    DEFAULT_WATCH_THRESHOLD,
    DegradationMonitor,
)
from repro.core.prediction import DegradationPredictor
from repro.core.signature_models import (
    CANONICAL_ORDER_BY_TYPE,
    PREDICTION_WINDOW_BY_TYPE,
)
from repro.core.taxonomy import FailureType
from repro.errors import BundleError, ModelError, ServeError
from repro.ioutil import atomic_write_text
from repro.ml.tree import RegressionTree
from repro.obs.observer import PipelineObserver, resolve_observer
from repro.smart.normalization import MinMaxNormalizer

if TYPE_CHECKING:  # pragma: no cover - offline layer, types only
    from repro.core.categorize import CategorizationResult
    from repro.core.pipeline import CharacterizationReport

#: Version of the on-disk bundle layout; bump on breaking changes.  A
#: bundle written under any other version is *stale* and refuses to
#: load — scorers never guess at old layouts.
BUNDLE_SCHEMA_VERSION = 1

#: Default ``history_hours`` of a bundle.  No scoring step reads it (the
#: trees act on one record); a scorer's drive state and its dumps carry
#: it as an identity check.
DEFAULT_HISTORY_HOURS = 48

#: Key carrying the sha256 content hash inside the artifact.  The hash
#: covers the canonical serialization of every *other* key.
_HASH_KEY = "content_sha256"


@dataclass(frozen=True, slots=True)
class GroupArtifact:
    """Everything the bundle records about one failure group."""

    failure_type: FailureType
    paper_group_number: int
    n_records: int
    population_fraction: float
    centroid_serial: str
    centroid: tuple[float, ...]
    signature_order: int
    prediction_window: int


@dataclass(frozen=True, slots=True)
class ModelBundle:
    """A self-contained, versioned scoring artifact.

    Instances are immutable; construct them with
    :func:`build_bundle` (from a pipeline report) or :func:`load_bundle`
    (from disk).  ``trees`` maps each failure type to a fitted
    regression tree; ``groups`` carries the taxonomy and signature
    parameters; ``minima``/``maxima`` are the Eq. (1) extrema.
    """

    attributes: tuple[str, ...]
    minima: tuple[float, ...]
    maxima: tuple[float, ...]
    groups: dict[FailureType, GroupArtifact]
    trees: dict[FailureType, RegressionTree]
    watch_threshold: float = DEFAULT_WATCH_THRESHOLD
    critical_threshold: float = DEFAULT_CRITICAL_THRESHOLD
    history_hours: int = DEFAULT_HISTORY_HOURS
    trained_on: dict[str, int] = field(default_factory=dict)
    generation: int = 0
    parent_sha256: str = ""

    def __post_init__(self) -> None:
        if self.generation < 0:
            raise BundleError(
                f"generation must be >= 0, got {self.generation}")
        if len(self.minima) != len(self.attributes) \
                or len(self.maxima) != len(self.attributes):
            raise BundleError(
                f"extrema cover {len(self.minima)}/{len(self.maxima)} "
                f"columns for {len(self.attributes)} attributes"
            )
        missing = [t.name for t in FailureType if t not in self.trees]
        if missing:
            raise BundleError(
                f"bundle has no tree for: {', '.join(missing)}"
            )
        if self.critical_threshold >= self.watch_threshold:
            raise BundleError(
                "critical_threshold must sit below watch_threshold"
            )
        if self.history_hours < 1:
            raise BundleError("history_hours must be positive")

    @property
    def n_attributes(self) -> int:
        """Width of the feature space the models consume."""
        return len(self.attributes)

    def normalizer(self) -> MinMaxNormalizer:
        """Reconstruct the exact Eq. (1) scaler the models trained on."""
        return MinMaxNormalizer.from_extrema(
            np.asarray(self.minima, dtype=np.float64),
            np.asarray(self.maxima, dtype=np.float64),
        )

    def predictor(self) -> DegradationPredictor:
        """Reconstruct a predictor holding the bundled fitted trees."""
        predictor = DegradationPredictor()
        predictor.trees_ = dict(self.trees)
        return predictor

    def monitor(self) -> DegradationMonitor:
        """The stateless verdict kernel this bundle configures."""
        return DegradationMonitor(
            self.predictor(), self.normalizer(),
            watch_threshold=self.watch_threshold,
            critical_threshold=self.critical_threshold,
        )

    def to_payload(self) -> dict[str, Any]:
        """Flatten the bundle into JSON-clean plain types (no hash)."""
        groups = {
            failure_type.name: {
                "paper_group_number": artifact.paper_group_number,
                "n_records": artifact.n_records,
                "population_fraction": artifact.population_fraction,
                "centroid_serial": artifact.centroid_serial,
                "centroid": list(artifact.centroid),
                "signature_order": artifact.signature_order,
                "prediction_window": artifact.prediction_window,
            }
            for failure_type, artifact in sorted(
                self.groups.items(), key=lambda item: item[0].name
            )
        }
        trees = {
            failure_type.name: tree.to_dict()
            for failure_type, tree in sorted(
                self.trees.items(), key=lambda item: item[0].name
            )
        }
        return {
            "schema_version": BUNDLE_SCHEMA_VERSION,
            "attributes": list(self.attributes),
            "normalization": {
                "minima": list(self.minima),
                "maxima": list(self.maxima),
            },
            "groups": groups,
            "trees": trees,
            "monitor": {
                "watch_threshold": self.watch_threshold,
                "critical_threshold": self.critical_threshold,
                "history_hours": self.history_hours,
            },
            "trained_on": dict(self.trained_on),
            "lineage": {
                "generation": self.generation,
                "parent_sha256": self.parent_sha256,
            },
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "ModelBundle":
        """Rebuild a bundle from a :meth:`to_payload` mapping.

        Structural damage surfaces as :class:`BundleError`; the caller
        (:func:`load_bundle`) has already checked schema version and
        content hash.
        """
        try:
            attributes = tuple(str(s) for s in payload["attributes"])
            normalization = payload["normalization"]
            minima = tuple(float(v) for v in normalization["minima"])
            maxima = tuple(float(v) for v in normalization["maxima"])
            monitor = payload["monitor"]
            groups: dict[FailureType, GroupArtifact] = {}
            for name, group in payload["groups"].items():
                failure_type = FailureType[name]
                groups[failure_type] = GroupArtifact(
                    failure_type=failure_type,
                    paper_group_number=int(group["paper_group_number"]),
                    n_records=int(group["n_records"]),
                    population_fraction=float(group["population_fraction"]),
                    centroid_serial=str(group["centroid_serial"]),
                    centroid=tuple(float(v) for v in group["centroid"]),
                    signature_order=int(group["signature_order"]),
                    prediction_window=int(group["prediction_window"]),
                )
            trees = {
                FailureType[name]: RegressionTree.from_dict(tree_payload)
                for name, tree_payload in payload["trees"].items()
            }
            return cls(
                attributes=attributes,
                minima=minima,
                maxima=maxima,
                groups=groups,
                trees=trees,
                watch_threshold=float(monitor["watch_threshold"]),
                critical_threshold=float(monitor["critical_threshold"]),
                history_hours=int(monitor["history_hours"]),
                trained_on={str(k): int(v)
                            for k, v in payload.get("trained_on", {}).items()},
                generation=int(
                    payload.get("lineage", {}).get("generation", 0)),
                parent_sha256=str(
                    payload.get("lineage", {}).get("parent_sha256", "")),
            )
        except BundleError:
            raise
        except (KeyError, TypeError, ValueError, ModelError) as error:
            raise BundleError(f"malformed bundle payload: {error}") from error


def _bundle_json_dumps(payload: dict[str, Any]) -> str:
    """Deterministic, *exact* JSON for bundle artifacts.

    Sorted keys and fixed separators make equal bundles byte-equal (so
    the content hash is reproducible); floats go through ``repr`` and
    round-trip exactly — see the module docstring for why the report
    serializer's rounding is unacceptable here.
    """
    try:
        return json.dumps(payload, sort_keys=True, indent=1,
                          allow_nan=False) + "\n"
    except (TypeError, ValueError) as error:
        raise BundleError(f"bundle payload not serializable: {error}") \
            from error


def content_hash(payload: dict[str, Any]) -> str:
    """sha256 over the canonical serialization of ``payload``.

    The hash is computed with the :data:`_HASH_KEY` entry removed, so
    a stored artifact hashes to the value it carries.
    """
    hashable = {k: v for k, v in payload.items() if k != _HASH_KEY}
    digest = hashlib.sha256(
        _bundle_json_dumps(hashable).encode("utf-8")
    )
    return digest.hexdigest()


def stamp_lineage(bundle: ModelBundle, parent: ModelBundle) -> ModelBundle:
    """Record ``parent`` in ``bundle``'s lineage metadata.

    Returns a copy whose ``generation`` is the parent's plus one and
    whose ``parent_sha256`` is the parent's content hash — the
    promotion plane stamps every challenger this way before it can be
    swapped in, so an artifact always names the champion it replaced.
    """
    return replace(bundle,
                   generation=parent.generation + 1,
                   parent_sha256=content_hash(parent.to_payload()))


def bundle_from_document(payload: Any, *,
                         source: str = "<document>") -> ModelBundle:
    """Verify and decode one hashed bundle document (an in-memory load).

    The same gates :func:`load_bundle` applies after reading a file:
    the payload must be a JSON object, carry the current
    :data:`BUNDLE_SCHEMA_VERSION`, hash to its own stored
    :data:`content hash <_HASH_KEY>`, and decode into a structurally
    valid :class:`ModelBundle`.  The daemon's ``POST /promote`` route
    runs challenger artifacts through this before swapping them in —
    a bundle shipped over the wire gets no weaker checks than one read
    from disk.
    """
    if not isinstance(payload, dict):
        raise BundleError(f"{source}: expected a JSON object")
    version = payload.get("schema_version")
    if version != BUNDLE_SCHEMA_VERSION:
        raise BundleError(
            f"{source}: stale bundle (schema version {version!r}, "
            f"this library reads {BUNDLE_SCHEMA_VERSION})"
        )
    stored_hash = payload.get(_HASH_KEY)
    if not isinstance(stored_hash, str):
        raise BundleError(f"{source}: bundle carries no content hash")
    actual = content_hash(payload)
    if actual != stored_hash:
        raise BundleError(
            f"{source}: content hash mismatch (stored "
            f"{stored_hash[:12]}…, computed {actual[:12]}…) — the "
            "artifact was corrupted or edited after save"
        )
    return ModelBundle.from_payload(payload)


def build_bundle(report: CharacterizationReport,
                 predictor: DegradationPredictor | None = None, *,
                 normalizer: MinMaxNormalizer | None = None,
                 watch_threshold: float = DEFAULT_WATCH_THRESHOLD,
                 critical_threshold: float = DEFAULT_CRITICAL_THRESHOLD,
                 history_hours: int = DEFAULT_HISTORY_HOURS,
                 seed: int | None = None) -> ModelBundle:
    """Assemble a :class:`ModelBundle` from a pipeline report.

    Parameters
    ----------
    report:
        A :class:`~repro.core.pipeline.CharacterizationReport` (its
        ``dataset`` must carry the fitted normalizer, as every report
        from a raw input does).
    predictor:
        A trained :class:`DegradationPredictor`, usually the pipeline's
        own ``report.predictor``.  ``None`` trains one here on the
        report's dataset and categorization — the same protocol the
        pipeline's prediction stage runs.
    normalizer:
        Overrides the report dataset's scaler (required only when the
        pipeline consumed an already-normalized dataset, which carries
        no scaler).
    watch_threshold / critical_threshold / history_hours:
        Monitor configuration frozen into the artifact.
    seed:
        Seed for the predictor trained here when ``predictor`` is
        ``None`` (default: the predictor's own default).
    """
    if normalizer is None:
        normalizer = report.dataset.normalizer
    if normalizer is None or not normalizer.is_fitted:
        raise ServeError(
            "report dataset carries no fitted normalizer; pass one "
            "explicitly (normalized inputs drop the scaler)"
        )
    if predictor is None:
        kwargs = {} if seed is None else {"seed": seed}
        predictor = DegradationPredictor(**kwargs)
    missing = [t for t in FailureType if t not in predictor.trees_]
    if missing:
        predictor.evaluate_all(report.dataset, report.categorization)

    summary = report.dataset.summary()
    return ModelBundle(
        attributes=tuple(report.dataset.attributes),
        minima=tuple(float(v) for v in normalizer.minima),
        maxima=tuple(float(v) for v in normalizer.maxima),
        groups=_group_artifacts(report.categorization),
        trees={failure_type: predictor.tree_for(failure_type)
               for failure_type in FailureType},
        watch_threshold=watch_threshold,
        critical_threshold=critical_threshold,
        history_hours=history_hours,
        trained_on={
            "n_drives": summary.n_drives,
            "n_failed": summary.n_failed,
            "n_good": summary.n_good,
        },
    )


def _group_artifacts(categorization: CategorizationResult,
                     ) -> dict[FailureType, GroupArtifact]:
    """Taxonomy + k-means centroid vectors, one artifact per group."""
    artifacts: dict[FailureType, GroupArtifact] = {}
    for cluster_id, group in categorization.groups.items():
        member_mask = categorization.labels == cluster_id
        centroid = categorization.records.features[member_mask].mean(axis=0)
        failure_type = group.failure_type
        artifacts[failure_type] = GroupArtifact(
            failure_type=failure_type,
            paper_group_number=group.paper_group_number,
            n_records=group.n_records,
            population_fraction=group.population_fraction,
            centroid_serial=categorization.centroid_serials[cluster_id],
            centroid=tuple(float(v) for v in centroid),
            signature_order=CANONICAL_ORDER_BY_TYPE[failure_type],
            prediction_window=PREDICTION_WINDOW_BY_TYPE[failure_type],
        )
    return artifacts


def save_bundle(bundle: ModelBundle, path: str | Path, *,
                observer: PipelineObserver | None = None) -> Path:
    """Write ``bundle`` to ``path`` as one hashed, versioned JSON file.

    The write goes through a same-directory temp file, an fsync and an
    atomic rename, so a crash mid-save — even power loss — can never
    leave a half-written artifact under the final name.
    """
    obs = resolve_observer(observer)
    path = Path(path)
    with obs.span("bundle-save", path=str(path)):
        payload = bundle.to_payload()
        payload[_HASH_KEY] = content_hash(payload)
        text = _bundle_json_dumps(payload)
        try:
            atomic_write_text(path, text)
        except OSError as error:
            raise BundleError(
                f"cannot write bundle to {path}: {error}") from error
    obs.count("bundles_saved")
    return path


def load_bundle(path: str | Path, *,
                observer: PipelineObserver | None = None) -> ModelBundle:
    """Load and verify a bundle written by :func:`save_bundle`.

    Four gates, each a typed :class:`BundleError`: the file must read
    and parse as a JSON object (corruption / truncation), carry the
    current :data:`BUNDLE_SCHEMA_VERSION` (staleness), hash to its own
    :data:`content hash <_HASH_KEY>` (bit rot / tampering), and decode
    into a structurally valid :class:`ModelBundle`.  A bundle that
    passes all four scores exactly as the models scored at training
    time — garbage never flows downstream.
    """
    obs = resolve_observer(observer)
    path = Path(path)
    with obs.span("bundle-load", path=str(path)):
        try:
            text = path.read_text()
        except OSError as error:
            raise BundleError(f"cannot read bundle {path}: {error}") \
                from error
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise BundleError(
                f"{path}: corrupt bundle (not valid JSON: {error})"
            ) from error
        bundle = bundle_from_document(payload, source=str(path))
    obs.count("bundles_loaded")
    return bundle
