"""Tests for the versioned model bundle (save/load round trip + gates)."""

import json

import numpy as np
import pytest

from repro.core.taxonomy import FailureType
from repro.errors import BundleError, ReproError, ServeError
from repro.serve.bundle import (
    BUNDLE_SCHEMA_VERSION,
    ModelBundle,
    build_bundle,
    content_hash,
    load_bundle,
    save_bundle,
)


@pytest.fixture(scope="module")
def bundle(mid_report):
    return build_bundle(mid_report, seed=7)


@pytest.fixture(scope="module")
def bundle_path(bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "fleet.bundle.json"
    save_bundle(bundle, path)
    return path


def test_bundle_captures_every_model_piece(bundle, mid_report):
    assert bundle.attributes == tuple(mid_report.dataset.attributes)
    assert set(bundle.trees) == set(FailureType)
    assert set(bundle.groups) == set(FailureType)
    for artifact in bundle.groups.values():
        assert len(artifact.centroid) > 0
        assert artifact.prediction_window >= 1
    assert bundle.trained_on["n_failed"] == \
        len(mid_report.dataset.failed_profiles)


def test_pipeline_predictor_exports_the_same_bundle(bundle, mid_report):
    """The pipeline's own fitted trees export byte-identically to a
    bundle that refits them with the same seed."""
    assert mid_report.predictor is not None
    reused = build_bundle(mid_report, predictor=mid_report.predictor)
    assert (content_hash(reused.to_payload())
            == content_hash(bundle.to_payload()))


def test_round_trip_is_exact(bundle, bundle_path, rng):
    loaded = load_bundle(bundle_path)
    assert loaded.to_payload() == bundle.to_payload()
    assert loaded.minima == bundle.minima
    assert loaded.maxima == bundle.maxima
    # the restored trees route arbitrary points identically, bit for bit
    matrix = rng.uniform(0.0, 1.0, size=(64, bundle.n_attributes))
    for failure_type in FailureType:
        original = bundle.trees[failure_type].predict(matrix)
        restored = loaded.trees[failure_type].predict(matrix)
        np.testing.assert_array_equal(original, restored)


def test_save_is_deterministic(bundle, tmp_path):
    first = save_bundle(bundle, tmp_path / "a.json").read_text()
    second = save_bundle(bundle, tmp_path / "b.json").read_text()
    assert first == second


def test_stored_hash_matches_content(bundle_path):
    payload = json.loads(bundle_path.read_text())
    assert payload["content_sha256"] == content_hash(payload)
    assert payload["schema_version"] == BUNDLE_SCHEMA_VERSION


def test_truncated_bundle_refused(bundle_path, tmp_path):
    stub = tmp_path / "truncated.json"
    stub.write_text(bundle_path.read_text()[:200])
    with pytest.raises(BundleError, match="corrupt"):
        load_bundle(stub)


def test_foreign_json_refused(tmp_path):
    stub = tmp_path / "foreign.json"
    stub.write_text('{"hello": "world"}\n')
    with pytest.raises(BundleError, match="stale|schema"):
        load_bundle(stub)
    stub.write_text('[1, 2, 3]\n')
    with pytest.raises(BundleError, match="JSON object"):
        load_bundle(stub)


def test_missing_file_refused(tmp_path):
    with pytest.raises(BundleError, match="cannot read"):
        load_bundle(tmp_path / "nope.json")


def test_stale_schema_version_refused(bundle_path, tmp_path):
    payload = json.loads(bundle_path.read_text())
    payload["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
    payload["content_sha256"] = content_hash(payload)
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(payload))
    with pytest.raises(BundleError, match="stale"):
        load_bundle(stale)


def test_tampered_content_refused(bundle_path, tmp_path):
    payload = json.loads(bundle_path.read_text())
    payload["monitor"]["watch_threshold"] = -0.2   # edit, keep old hash
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    with pytest.raises(BundleError, match="hash mismatch"):
        load_bundle(tampered)


def test_structurally_broken_payload_refused(bundle_path, tmp_path):
    payload = json.loads(bundle_path.read_text())
    del payload["trees"]
    payload["content_sha256"] = content_hash(payload)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    with pytest.raises(BundleError, match="malformed"):
        load_bundle(broken)


def test_bundle_errors_are_typed(tmp_path):
    assert issubclass(BundleError, ServeError)
    assert issubclass(BundleError, ReproError)
    try:
        load_bundle(tmp_path / "nope.json")
    except ReproError:
        pass   # callers on the generic contract still catch it


def test_constructor_validates_shape(bundle):
    with pytest.raises(BundleError, match="extrema"):
        ModelBundle(attributes=bundle.attributes,
                    minima=bundle.minima[:-1], maxima=bundle.maxima,
                    groups=bundle.groups, trees=bundle.trees)
    with pytest.raises(BundleError, match="no tree"):
        ModelBundle(attributes=bundle.attributes,
                    minima=bundle.minima, maxima=bundle.maxima,
                    groups=bundle.groups,
                    trees={FailureType.HEAD: bundle.trees[FailureType.HEAD]})
    with pytest.raises(BundleError, match="watch_threshold"):
        ModelBundle(attributes=bundle.attributes,
                    minima=bundle.minima, maxima=bundle.maxima,
                    groups=bundle.groups, trees=bundle.trees,
                    watch_threshold=-0.5, critical_threshold=-0.1)


def test_build_bundle_needs_a_fitted_normalizer(mid_report):
    from dataclasses import replace

    from repro.data.dataset import DiskDataset

    scalerless = replace(
        mid_report, dataset=DiskDataset(list(mid_report.dataset.profiles))
    )
    with pytest.raises(ServeError, match="normalizer"):
        build_bundle(scalerless, seed=7)
