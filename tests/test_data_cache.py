"""Tests for the on-disk dataset cache (``repro.data.cache``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import CharacterizationPipeline
from repro.core.records import (
    build_failure_records,
    failure_records_from_arrays,
    failure_records_to_arrays,
)
from repro.core.serialize import canonical_json_dumps, report_to_dict
from repro.data.cache import (
    CACHE_SCHEMA_VERSION,
    DatasetCache,
    default_cache_dir,
)
from repro.data.dataset import DiskDataset
from repro.errors import CacheError, DatasetError
from repro.obs.observer import TelemetryObserver
from repro.smart.normalization import MinMaxNormalizer


@pytest.fixture()
def cache(tmp_path):
    return DatasetCache(tmp_path / "cache")


def _prepared(dataset):
    normalized = dataset.normalize()
    return normalized, build_failure_records(normalized)


# -- keying -----------------------------------------------------------------


def test_key_is_stable_for_equal_content(cache, small_dataset):
    assert cache.key_for(small_dataset) == cache.key_for(small_dataset)


def test_key_changes_when_content_changes(cache, small_dataset):
    profiles = small_dataset.profiles
    mutated = profiles[0].with_matrix(profiles[0].matrix + 1.0)
    changed = DiskDataset([mutated] + profiles[1:])
    assert cache.key_for(changed) != cache.key_for(small_dataset)


def test_key_includes_normalization_params(cache, small_dataset):
    fitted = small_dataset.fit_normalizer()
    shifted = MinMaxNormalizer.from_extrema(fitted.minima - 1.0,
                                            fitted.maxima)
    assert cache.key_for(small_dataset, normalizer=fitted) != \
        cache.key_for(small_dataset)
    assert cache.key_for(small_dataset, normalizer=shifted) != \
        cache.key_for(small_dataset, normalizer=fitted)


# -- hit / miss / invalidation ----------------------------------------------


def test_miss_then_store_then_hit(cache, small_dataset):
    key = cache.key_for(small_dataset)
    assert cache.load(key) is None
    assert cache.misses == 1

    normalized, records = _prepared(small_dataset)
    cache.store(key, normalized, extras=failure_records_to_arrays(records))
    assert key in cache
    assert len(cache) == 1

    entry = cache.load(key)
    assert entry is not None
    assert cache.hits == 1

    # The restored dataset is bit-exact: same serials, flags, hours,
    # matrices and normalizer extrema.
    assert [p.serial for p in entry.dataset.profiles] == \
        [p.serial for p in normalized.profiles]
    for restored, original in zip(entry.dataset.profiles,
                                  normalized.profiles):
        assert restored.failed == original.failed
        assert np.array_equal(restored.hours, original.hours)
        assert np.array_equal(restored.matrix, original.matrix)
    assert entry.dataset.is_normalized
    assert np.array_equal(entry.dataset.normalizer.minima,
                          normalized.normalizer.minima)

    restored_records = failure_records_from_arrays(entry.extras)
    assert restored_records.serials == records.serials
    assert np.array_equal(restored_records.features, records.features)
    assert restored_records.feature_names == records.feature_names


def test_stale_key_is_never_served(cache, small_dataset):
    """Mutated content keys differently, so the old entry is unreachable."""
    normalized, records = _prepared(small_dataset)
    key = cache.key_for(small_dataset)
    cache.store(key, normalized, extras=failure_records_to_arrays(records))

    profiles = small_dataset.profiles
    mutated = profiles[0].with_matrix(profiles[0].matrix * 2.0)
    changed = DiskDataset([mutated] + profiles[1:])
    stale_lookup = cache.load(cache.key_for(changed))
    assert stale_lookup is None
    assert cache.misses == 1
    # ... while the original entry still hits.
    assert cache.load(key) is not None


def test_invalidate_and_clear(cache, small_dataset):
    normalized, records = _prepared(small_dataset)
    key = cache.key_for(small_dataset)
    cache.store(key, normalized, extras=failure_records_to_arrays(records))
    assert cache.invalidate(key) is True
    assert cache.invalidate(key) is False
    assert cache.load(key) is None

    cache.store(key, normalized, extras=failure_records_to_arrays(records))
    assert cache.clear() == 1
    assert len(cache) == 0


def test_corrupt_entry_is_a_miss_and_removed(cache, small_dataset):
    normalized, records = _prepared(small_dataset)
    key = cache.key_for(small_dataset)
    path = cache.store(key, normalized,
                       extras=failure_records_to_arrays(records))
    path.write_bytes(b"not an npz archive")
    assert cache.load(key) is None
    assert cache.misses == 1
    assert key not in cache  # the broken file is gone


def test_truncated_entry_is_a_miss_and_removed(cache, small_dataset):
    """A crash mid-read of a partially-synced file must degrade to a
    recompute, not a crash (np.load raises zipfile/zlib errors here)."""
    normalized, records = _prepared(small_dataset)
    key = cache.key_for(small_dataset)
    path = cache.store(key, normalized,
                       extras=failure_records_to_arrays(records))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert cache.load(key) is None
    assert cache.misses == 1
    assert key not in cache


def _flip_bits(path, n_flips, seed):
    """Flip one bit in each of ``n_flips`` seeded bytes of ``path``."""
    payload = bytearray(path.read_bytes())
    rng = np.random.default_rng(seed)
    for position in rng.choice(len(payload), size=n_flips, replace=False):
        payload[position] ^= 1 << int(rng.integers(0, 8))
    path.write_bytes(bytes(payload))


def test_bit_flipped_entry_is_a_miss_and_removed(cache, small_dataset):
    normalized, records = _prepared(small_dataset)
    key = cache.key_for(small_dataset)
    path = cache.store(key, normalized,
                       extras=failure_records_to_arrays(records))
    _flip_bits(path, n_flips=64, seed=7)
    assert cache.load(key) is None
    assert key not in cache
    # The slot is reusable after the corrupt entry was discarded.
    cache.store(key, normalized, extras=failure_records_to_arrays(records))
    assert cache.load(key) is not None


def test_successful_store_leaves_no_temp_files(cache, small_dataset):
    normalized, records = _prepared(small_dataset)
    cache.store(cache.key_for(small_dataset), normalized,
                extras=failure_records_to_arrays(records))
    assert not list(cache.directory.glob("*.tmp"))


def test_stale_temp_files_are_not_entries_and_get_swept(tmp_path,
                                                        small_dataset):
    directory = tmp_path / "cache"
    cache = DatasetCache(directory)
    normalized, records = _prepared(small_dataset)
    cache.store(cache.key_for(small_dataset), normalized,
                extras=failure_records_to_arrays(records))
    leftover = directory / "abc123.tmp"
    leftover.write_bytes(b"half a write from a killed process")
    # Temp debris is invisible to entry accounting ...
    assert len(cache) == 1
    assert cache.clear() == 1
    assert not leftover.exists()  # ... and clear sweeps it uncounted.
    leftover.write_bytes(b"again")
    DatasetCache(directory)  # a fresh instance sweeps on startup
    assert not leftover.exists()


def test_store_rejects_unnormalized_and_extras_of_objects(
        cache, small_dataset):
    with pytest.raises(CacheError, match="normalized"):
        cache.store("k", small_dataset)
    normalized, _ = _prepared(small_dataset)
    with pytest.raises(CacheError, match="plain array"):
        cache.store("k", normalized,
                    extras={"bad": np.asarray([object()], dtype=object)})
    bare = DiskDataset(normalized.profiles, normalized=True)
    with pytest.raises(CacheError, match="normalizer"):
        cache.store("k", bare)


def test_observer_sees_hits_and_misses(tmp_path, small_dataset):
    observer = TelemetryObserver()
    cache = DatasetCache(tmp_path / "cache", observer=observer)
    key = cache.key_for(small_dataset)
    cache.load(key)
    normalized, records = _prepared(small_dataset)
    cache.store(key, normalized, extras=failure_records_to_arrays(records))
    cache.load(key)
    snapshot = observer.metrics.snapshot()
    assert snapshot["cache_misses"]["value"] == 1
    assert snapshot["cache_hits"]["value"] == 1
    assert observer.tracer.find("cache-store") is not None


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().name == "repro"


def test_schema_version_mismatch_is_a_miss(cache, small_dataset, monkeypatch):
    normalized, records = _prepared(small_dataset)
    key = cache.key_for(small_dataset)
    cache.store(key, normalized, extras=failure_records_to_arrays(records))
    monkeypatch.setattr("repro.data.cache.CACHE_SCHEMA_VERSION",
                        CACHE_SCHEMA_VERSION + 1)
    assert cache.load(key) is None


# -- record codec -----------------------------------------------------------


def test_failure_record_codec_roundtrip(small_normalized):
    records = build_failure_records(small_normalized)
    arrays = failure_records_to_arrays(records)
    restored = failure_records_from_arrays(arrays)
    assert restored.serials == records.serials
    assert np.array_equal(restored.attribute_values,
                          records.attribute_values)
    assert restored.attribute_names == records.attribute_names


def test_failure_record_codec_rejects_incomplete(small_normalized):
    records = build_failure_records(small_normalized)
    arrays = failure_records_to_arrays(records)
    arrays.pop("record_features")
    with pytest.raises(DatasetError, match="missing"):
        failure_records_from_arrays(arrays)


# -- pipeline integration ---------------------------------------------------


def test_pipeline_cached_run_is_byte_identical(tmp_path, small_dataset):
    cache = DatasetCache(tmp_path / "cache")
    cold = CharacterizationPipeline(seed=3, run_prediction=False,
                                    cache=cache).run(small_dataset)
    warm = CharacterizationPipeline(seed=3, run_prediction=False,
                                    cache=cache).run(small_dataset)
    plain = CharacterizationPipeline(seed=3,
                                     run_prediction=False).run(small_dataset)
    assert cache.misses == 1 and cache.hits == 1
    cold_json = canonical_json_dumps(report_to_dict(cold))
    assert cold_json == canonical_json_dumps(report_to_dict(warm))
    assert cold_json == canonical_json_dumps(report_to_dict(plain))


def test_pipeline_bypasses_cache_for_normalized_input(
        tmp_path, small_normalized):
    cache = DatasetCache(tmp_path / "cache")
    CharacterizationPipeline(seed=3, run_prediction=False,
                             cache=cache).run(small_normalized)
    assert cache.hits == 0 and cache.misses == 0
    assert len(cache) == 0
