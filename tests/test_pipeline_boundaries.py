"""Tests for the pipeline's stage error boundaries
(``repro.core.pipeline``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import CharacterizationPipeline
from repro.data.dataset import DiskDataset
from repro.errors import PipelineStageError, SignatureError
from repro.obs.observer import TelemetryObserver
from repro.smart.profile import HealthProfile


def test_foreign_exception_is_wrapped_with_stage_context(small_dataset,
                                                         monkeypatch):
    """A non-library crash mid-run surfaces as PipelineStageError naming
    the stage, the completed stages and the partial progress."""
    def exploding_summarize(self, dataset, categorization, signatures):
        raise KeyError("boom")

    monkeypatch.setattr(
        CharacterizationPipeline, "_summarize_groups", exploding_summarize)
    observer = TelemetryObserver()
    pipeline = CharacterizationPipeline(seed=3, run_prediction=False,
                                        observer=observer)
    with pytest.raises(PipelineStageError) as excinfo:
        pipeline.run(small_dataset)
    error = excinfo.value
    assert error.stage == "influence"
    assert error.completed == ("prepare", "categorize", "signatures")
    assert error.partial["n_drives"] == len(small_dataset.profiles)
    assert error.partial["n_signatures"] > 0
    assert isinstance(error.cause, KeyError)
    message = str(error)
    assert "influence" in message
    assert "prepare" in message
    snapshot = observer.metrics.snapshot()
    assert snapshot["pipeline_stage_failures"]["value"] == 1


def test_early_stage_failure_reports_no_completed_stages(small_dataset,
                                                         monkeypatch):
    def exploding_prepare(self, dataset):
        raise RuntimeError("normalization exploded")

    monkeypatch.setattr(CharacterizationPipeline, "_prepare",
                        exploding_prepare)
    with pytest.raises(PipelineStageError) as excinfo:
        CharacterizationPipeline(seed=3).run(small_dataset)
    assert excinfo.value.stage == "prepare"
    assert excinfo.value.completed == ()
    assert excinfo.value.partial == {}


def test_library_errors_pass_through_unwrapped():
    """Flat-lined failed drives raise SignatureError from the signatures
    stage — already typed, so the boundary must not re-wrap it."""
    rng = np.random.default_rng(5)
    profiles = [
        HealthProfile(f"dead-{i}", np.arange(30),
                      np.tile(np.full(12, 0.2 + 0.1 * i), (30, 1)),
                      failed=True)
        for i in range(5)
    ] + [
        HealthProfile(f"good-{i}", np.arange(30),
                      rng.uniform(size=(30, 12)), failed=False)
        for i in range(12)
    ]
    pipeline = CharacterizationPipeline(seed=3, run_prediction=False)
    with pytest.raises(SignatureError, match="degradation window"):
        pipeline.run(DiskDataset(profiles))
