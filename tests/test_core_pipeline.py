"""Integration tests: the end-to-end characterization pipeline.

These are the reproduction's acceptance tests — they assert the paper's
published *shapes* on the simulated fleet: the group mix, the degradation
window magnitudes, the canonical signature orders and the prediction
ordering.
"""

import numpy as np
import pytest

from repro.core.pipeline import CharacterizationPipeline
from repro.core.taxonomy import FailureType
from repro.data.cache import DatasetCache
from repro.data.dataset import DiskDataset
from repro.errors import ReproError, SignatureError
from repro.obs.observer import TelemetryObserver
from repro.sim.failure_modes import FailureMode
from repro.smart.profile import HealthProfile

MODE_BY_TYPE = {
    FailureType.LOGICAL: FailureMode.LOGICAL,
    FailureType.BAD_SECTOR: FailureMode.BAD_SECTOR,
    FailureType.HEAD: FailureMode.HEAD,
}


def test_report_carries_every_stage(mid_report):
    assert mid_report.dataset.is_normalized
    assert mid_report.records.n_records == len(
        mid_report.dataset.failed_profiles
    )
    assert mid_report.categorization.n_groups == 3
    assert len(mid_report.signatures) >= 0.9 * mid_report.records.n_records
    assert set(mid_report.group_summaries) == set(FailureType)
    assert set(mid_report.predictions) == set(FailureType)


def test_categorization_recovers_ground_truth(mid_report, mid_fleet):
    correct = total = 0
    for failure_type in FailureType:
        for serial in mid_report.categorization.serials_of_type(failure_type):
            total += 1
            correct += mid_fleet.true_modes[serial] is MODE_BY_TYPE[failure_type]
    assert correct / total >= 0.95


def test_group_mix_matches_paper(mid_report):
    summaries = mid_report.group_summaries
    total = sum(s.n_drives for s in summaries.values())
    logical_share = summaries[FailureType.LOGICAL].n_drives / total
    bad_share = summaries[FailureType.BAD_SECTOR].n_drives / total
    head_share = summaries[FailureType.HEAD].n_drives / total
    assert logical_share == pytest.approx(0.596, abs=0.08)
    assert bad_share == pytest.approx(0.076, abs=0.05)
    assert head_share == pytest.approx(0.328, abs=0.08)


def test_degradation_window_magnitudes(mid_report):
    summaries = mid_report.group_summaries
    assert summaries[FailureType.LOGICAL].median_window <= 14
    assert summaries[FailureType.BAD_SECTOR].median_window >= 100
    assert 8 <= summaries[FailureType.HEAD].median_window <= 30
    # Group 2's degradation is an order of magnitude longer.
    assert (summaries[FailureType.BAD_SECTOR].median_window
            > 5 * summaries[FailureType.HEAD].median_window)


def test_canonical_signature_orders(mid_report):
    summaries = mid_report.group_summaries
    assert summaries[FailureType.LOGICAL].consensus_order == 2
    assert summaries[FailureType.BAD_SECTOR].consensus_order == 1
    assert summaries[FailureType.HEAD].consensus_order == 3


def test_dominant_correlated_attributes(mid_report):
    summaries = mid_report.group_summaries
    assert set(summaries[FailureType.BAD_SECTOR].top_correlated) <= {
        "RUE", "R-RSC", "CPSC", "R-CPSC", "RSC"
    }
    assert "RRER" in summaries[FailureType.LOGICAL].top_correlated or \
           "HER" in summaries[FailureType.LOGICAL].top_correlated
    assert "R-RSC" in summaries[FailureType.HEAD].top_correlated or \
           "RSC" in summaries[FailureType.HEAD].top_correlated


def test_prediction_ordering_matches_table_three(mid_report):
    predictions = mid_report.predictions
    logical = predictions[FailureType.LOGICAL].error_rate
    assert logical >= predictions[FailureType.BAD_SECTOR].error_rate
    assert logical >= predictions[FailureType.HEAD].error_rate


def test_signature_lookup(mid_report):
    serial = next(iter(mid_report.signatures))
    signature = mid_report.signature_of(serial)
    assert signature.serial == serial
    group = mid_report.categorization.type_of_serial(serial)
    assert group in FailureType


def test_pipeline_accepts_prenormalized_dataset(small_normalized):
    pipeline = CharacterizationPipeline(run_prediction=False, seed=1)
    report = pipeline.run(small_normalized)
    assert report.dataset is small_normalized


def test_pipeline_without_prediction(small_dataset):
    pipeline = CharacterizationPipeline(run_prediction=False, seed=1)
    report = pipeline.run(small_dataset)
    assert report.predictions == {}


def test_pipeline_is_deterministic(small_dataset):
    a = CharacterizationPipeline(run_prediction=False, seed=3).run(small_dataset)
    b = CharacterizationPipeline(run_prediction=False, seed=3).run(small_dataset)
    np.testing.assert_array_equal(a.categorization.labels,
                                  b.categorization.labels)
    assert {s: sig.window_size for s, sig in a.signatures.items()} == \
           {s: sig.window_size for s, sig in b.signatures.items()}


def test_pipeline_counts_signatures_and_cache_hits(small_dataset, tmp_path):
    """A warm re-run counts one cache hit and derives the same
    signatures; every other counter matches the cold run's."""
    def counters():
        observer = TelemetryObserver()
        CharacterizationPipeline(
            seed=1, cache=DatasetCache(tmp_path, observer=observer),
            observer=observer,
        ).run(small_dataset)
        return {name: body["value"]
                for name, body in observer.metrics.snapshot().items()
                if body["kind"] == "counter"}

    cold, warm = counters(), counters()
    assert cold.get("cache_hits", 0.0) == 0.0
    assert warm["cache_hits"] == 1.0
    assert warm["signatures_derived"] == cold["signatures_derived"] > 0
    assert (warm.get("signatures_skipped", 0.0)
            == cold.get("signatures_skipped", 0.0))
    cache_counters = {"cache_hits", "cache_misses"}
    assert ({k: v for k, v in cold.items() if k not in cache_counters}
            == {k: v for k, v in warm.items() if k not in cache_counters})


# -- degenerate telemetry ---------------------------------------------------


def _flat_failed_profile(serial: str, level: float) -> HealthProfile:
    """A failed drive whose telemetry never changes: every sample equals
    the failure record, so its distance-to-failure series is all zeros
    and no degradation window exists."""
    return HealthProfile(serial, np.arange(30),
                         np.tile(np.full(12, level), (30, 1)), failed=True)


def _degenerate_dataset() -> DiskDataset:
    rng = np.random.default_rng(5)
    profiles = [_flat_failed_profile(f"dead-{i}", 0.2 + 0.1 * i)
                for i in range(5)]
    profiles += [
        HealthProfile(f"good-{i}", np.arange(30),
                      rng.uniform(size=(30, 12)), failed=False)
        for i in range(12)
    ]
    return DiskDataset(profiles)


def test_all_degenerate_profiles_raise_a_clear_repro_error():
    pipeline = CharacterizationPipeline(seed=3, run_prediction=False)
    with pytest.raises(SignatureError,
                       match="no degradation signature") as excinfo:
        pipeline.run(_degenerate_dataset())
    assert isinstance(excinfo.value, ReproError)
    assert "degradation window" in str(excinfo.value)


def test_one_degenerate_profile_is_skipped_not_fatal(small_dataset):
    mixed = DiskDataset(small_dataset.profiles
                        + [_flat_failed_profile("dead-1", 0.5)])
    observer = TelemetryObserver()
    pipeline = CharacterizationPipeline(seed=3, run_prediction=False,
                                        observer=observer)
    report = pipeline.run(mixed)
    assert "dead-1" not in report.signatures
    assert len(report.signatures) == len(small_dataset.failed_profiles)
    snapshot = observer.metrics.snapshot()
    assert snapshot["signatures_skipped"]["value"] == 1
