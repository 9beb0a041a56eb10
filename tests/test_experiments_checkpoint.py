"""Tests for experiment checkpoint/resume
(``repro.experiments.checkpoint`` and the registry's resilience flags).

The registry is monkeypatched with stub experiments throughout, so these
tests exercise the sweep machinery without paying for real experiments.
"""

from __future__ import annotations

import json

import pytest

import repro.experiments.registry as registry
from repro.errors import CheckpointError
from repro.experiments.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    ExperimentFailure,
)
from repro.experiments.common import ExperimentResult, active_scale
from repro.experiments.registry import main, run_many

RUNS: list[str] = []


def _completed(store, directory):
    """Ids with a checkpoint ``store`` restores, as a resume would see."""
    ids = (path.name.removesuffix(".checkpoint.json")
           for path in directory.glob("*.checkpoint.json"))
    return {id_ for id_ in ids if store.load(id_) is not None}


def _stub(experiment_id):
    def run():
        RUNS.append(experiment_id)
        return ExperimentResult(
            experiment_id=experiment_id,
            title=f"stub {experiment_id}",
            paper_reference="n/a",
            rendered=f"rendering of {experiment_id}",
        )
    return run


def _failing_stub(experiment_id):
    def run():
        RUNS.append(experiment_id)
        raise ZeroDivisionError("synthetic failure")
    return run


@pytest.fixture()
def stub_registry(monkeypatch):
    RUNS.clear()
    monkeypatch.setattr(registry, "EXPERIMENTS", {
        "alpha": (_stub("alpha"), "stub experiment alpha"),
        "beta": (_stub("beta"), "stub experiment beta"),
        "gamma": (_stub("gamma"), "stub experiment gamma"),
        "broken": (_failing_stub("broken"), "always fails"),
    })


def result_for(experiment_id):
    return ExperimentResult(experiment_id=experiment_id, title="t",
                            paper_reference="p",
                            rendered=f"body {experiment_id}")


# -- CheckpointStore --------------------------------------------------------


def test_store_then_load_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path, n_drives=300, seed=3)
    path = store.store(result_for("fig8"), wall_s=1.25)
    assert path == store.path_for("fig8")
    restored, wall_s = store.load("fig8")
    assert restored.rendered == "body fig8"
    assert restored.experiment_id == "fig8"
    assert wall_s == 1.25
    assert _completed(store, tmp_path) == {"fig8"}
    # The atomic write leaves no temp debris behind.
    assert [p.name for p in tmp_path.iterdir()] == ["fig8.checkpoint.json"]


def test_missing_and_corrupt_checkpoints_are_none(tmp_path):
    store = CheckpointStore(tmp_path, n_drives=300, seed=3)
    assert store.load("fig8") is None
    store.store(result_for("fig8"), wall_s=1.0)
    path = store.path_for("fig8")
    path.write_text(path.read_text()[:40])  # torn write
    assert store.load("fig8") is None
    path.write_text("[1, 2, 3]\n")  # valid JSON, wrong shape
    assert store.load("fig8") is None
    assert _completed(store, tmp_path) == set()


def test_schema_and_scale_mismatches_are_ignored(tmp_path):
    store = CheckpointStore(tmp_path, n_drives=300, seed=3)
    store.store(result_for("fig8"), wall_s=1.0)

    other_scale = CheckpointStore(tmp_path, n_drives=600, seed=3)
    assert other_scale.load("fig8") is None
    other_seed = CheckpointStore(tmp_path, n_drives=300, seed=4)
    assert other_seed.load("fig8") is None
    assert store.load("fig8") is not None

    payload = json.loads(store.path_for("fig8").read_text())
    payload["schema"] = CHECKPOINT_SCHEMA + 1
    store.path_for("fig8").write_text(json.dumps(payload))
    assert store.load("fig8") is None


def test_checkpoint_id_must_match_its_filename(tmp_path):
    """A checkpoint renamed to another experiment's slot is not trusted."""
    store = CheckpointStore(tmp_path, n_drives=300, seed=3)
    store.store(result_for("fig8"), wall_s=1.0)
    store.path_for("fig8").rename(store.path_for("table2"))
    assert store.load("table2") is None


def test_unwritable_directory_raises_checkpoint_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("in the way")
    with pytest.raises(CheckpointError, match="checkpoint directory"):
        CheckpointStore(blocker / "nested", n_drives=1, seed=1)


def test_experiment_failure_renders_like_a_result_block():
    failure = ExperimentFailure("fig8", "ValueError", "boom")
    assert str(failure) == "== fig8: FAILED ==\nValueError: boom"


# -- run_many: checkpointing and resume -------------------------------------


def test_sweep_writes_one_checkpoint_per_success(tmp_path, stub_registry):
    pairs = run_many(["alpha", "beta"], checkpoint_dir=tmp_path)
    assert [outcome.experiment_id for outcome, _ in pairs] == \
        ["alpha", "beta"]
    n_drives, seed = active_scale()
    store = CheckpointStore(tmp_path, n_drives=n_drives, seed=seed)
    assert _completed(store, tmp_path) == {"alpha", "beta"}


def test_resume_reexecutes_only_missing_experiments(tmp_path, stub_registry):
    run_many(["alpha", "beta", "gamma"], checkpoint_dir=tmp_path)
    assert RUNS == ["alpha", "beta", "gamma"]

    n_drives, seed = active_scale()
    store = CheckpointStore(tmp_path, n_drives=n_drives, seed=seed)
    store.path_for("beta").unlink()

    RUNS.clear()
    pairs = run_many(["alpha", "beta", "gamma"], checkpoint_dir=tmp_path,
                     resume=True)
    assert RUNS == ["beta"]  # alpha and gamma restored, not re-run
    assert [outcome.experiment_id for outcome, _ in pairs] == \
        ["alpha", "beta", "gamma"]
    assert [outcome.rendered for outcome, _ in pairs] == \
        ["rendering of alpha", "rendering of beta", "rendering of gamma"]


def test_resume_requires_a_checkpoint_dir(stub_registry):
    with pytest.raises(CheckpointError, match="checkpoint directory"):
        run_many(["alpha"], resume=True)


def test_corrupt_checkpoint_is_reexecuted(tmp_path, stub_registry):
    run_many(["alpha"], checkpoint_dir=tmp_path)
    n_drives, seed = active_scale()
    store = CheckpointStore(tmp_path, n_drives=n_drives, seed=seed)
    store.path_for("alpha").write_text("{ torn")
    RUNS.clear()
    run_many(["alpha"], checkpoint_dir=tmp_path, resume=True)
    assert RUNS == ["alpha"]
    assert store.load("alpha") is not None  # repaired by the re-run


def test_keep_going_records_failures_without_checkpointing(tmp_path,
                                                           stub_registry):
    pairs = run_many(["alpha", "broken", "gamma"], checkpoint_dir=tmp_path,
                     keep_going=True)
    outcomes = [outcome for outcome, _ in pairs]
    assert isinstance(outcomes[1], ExperimentFailure)
    assert outcomes[1].error_type == "ZeroDivisionError"
    assert outcomes[0].rendered == "rendering of alpha"
    n_drives, seed = active_scale()
    store = CheckpointStore(tmp_path, n_drives=n_drives, seed=seed)
    # The failure left no checkpoint, so a resume retries it.
    assert _completed(store, tmp_path) == {"alpha", "gamma"}
    RUNS.clear()
    run_many(["alpha", "broken", "gamma"], checkpoint_dir=tmp_path,
             resume=True, keep_going=True)
    assert RUNS == ["broken"]


def test_failure_without_keep_going_aborts(stub_registry):
    with pytest.raises(ZeroDivisionError):
        run_many(["broken"])


def test_single_and_restored_selections_never_build_a_pool(
        tmp_path, stub_registry, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker pool was created")

    monkeypatch.setattr("repro.experiments.registry.ProcessPoolExecutor",
                        NoPool)
    # Single-experiment selection: --jobs N collapses to the inline path.
    pairs = run_many(["alpha"], jobs=4)
    assert pairs[0][0].experiment_id == "alpha"
    # Fully-restored selection: nothing to run at all.
    run_many(["beta"], checkpoint_dir=tmp_path)
    RUNS.clear()
    run_many(["beta"], jobs=4, checkpoint_dir=tmp_path, resume=True)
    assert RUNS == []


# -- the CLI ----------------------------------------------------------------


def test_main_empty_selection_exits_2(capsys, stub_registry):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().out


def test_main_resume_without_checkpoint_dir_is_a_usage_error(stub_registry):
    with pytest.raises(SystemExit) as excinfo:
        main(["--resume", "alpha"])
    assert excinfo.value.code == 2


def test_main_keep_going_reports_failures_and_exits_1(capsys, stub_registry):
    assert main(["alpha", "broken", "--keep-going"]) == 1
    captured = capsys.readouterr()
    assert "== broken: FAILED ==" in captured.out
    assert "ZeroDivisionError: synthetic failure" in captured.out
    assert "[broken] FAILED after" in captured.out
    assert "1 of 2 experiment(s) failed: broken" in captured.err


def test_main_checkpointed_run_then_resume(tmp_path, capsys, stub_registry):
    checkpoint_dir = tmp_path / "ck"
    assert main(["alpha", "beta",
                 "--checkpoint-dir", str(checkpoint_dir)]) == 0
    first = capsys.readouterr().out
    RUNS.clear()
    assert main(["alpha", "beta", "--checkpoint-dir", str(checkpoint_dir),
                 "--resume"]) == 0
    assert RUNS == []  # everything restored
    resumed = capsys.readouterr().out
    assert "rendering of alpha" in resumed
    assert "rendering of beta" in resumed
    assert resumed == first  # byte-identical stream, original wall times
