"""Crash-safe checkpointing of experiment sweeps.

A full ``--all`` sweep at paper scale runs for a long time; losing the
machine 25 experiments in should not mean re-running 25 experiments.
:class:`CheckpointStore` persists each finished experiment as one small
JSON file so an interrupted sweep resumes exactly where it stopped:

* **Atomic** — files are written through
  :func:`~repro.ioutil.atomic_write_text`, so a kill mid-write leaves
  either the previous state or the complete new file, never a torn one.
* **Scale-keyed** — every checkpoint records the fleet scale
  (``n_drives``, ``seed``) it was produced under; a checkpoint from a
  different scale is ignored rather than silently reused.
* **Self-validating** — unreadable, truncated or schema-mismatched
  files count as *missing* (the experiment simply re-runs); corruption
  can cost time but never correctness.

Only successful results are checkpointed.  A failed experiment leaves
no file, so ``--resume`` retries it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CheckpointError
from repro.experiments.common import ExperimentResult
from repro.ioutil import atomic_write_text

#: Version written into every checkpoint; bump on breaking changes.
CHECKPOINT_SCHEMA = 1

_SUFFIX = ".checkpoint.json"


@dataclass(frozen=True, slots=True)
class ExperimentFailure:
    """A recorded (non-fatal) experiment failure under ``--keep-going``."""

    experiment_id: str
    error_type: str
    message: str

    def __str__(self) -> str:
        return (f"== {self.experiment_id}: FAILED ==\n"
                f"{self.error_type}: {self.message}")


class CheckpointStore:
    """Per-experiment JSON checkpoints under one directory.

    Checkpoints capture the *rendered* artifact (id, title, paper
    reference, rendering, wall time) — everything the CLI prints and
    archives — not the in-memory ``data`` payload, which may hold
    arbitrary Python objects.  Restored results therefore render
    byte-identically but carry an empty ``data`` dict.
    """

    def __init__(self, directory: str | Path, *, n_drives: int,
                 seed: int) -> None:
        self._dir = Path(directory)
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CheckpointError(
                f"cannot create checkpoint directory {self._dir}: {error}"
            ) from error
        self._n_drives = int(n_drives)
        self._seed = int(seed)

    @property
    def directory(self) -> Path:
        return self._dir

    def path_for(self, experiment_id: str) -> Path:
        return self._dir / f"{experiment_id}{_SUFFIX}"

    def store(self, result: ExperimentResult, wall_s: float) -> Path:
        """Atomically persist one finished experiment."""
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "n_drives": self._n_drives,
            "seed": self._seed,
            "experiment_id": result.experiment_id,
            "title": result.title,
            "paper_reference": result.paper_reference,
            "rendered": result.rendered,
            "wall_s": float(wall_s),
        }
        path = self.path_for(result.experiment_id)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        try:
            atomic_write_text(path, text)
        except OSError as error:
            raise CheckpointError(
                f"cannot write checkpoint for {result.experiment_id!r}: "
                f"{error}"
            ) from error
        return path

    def load(self, experiment_id: str
             ) -> tuple[ExperimentResult, float] | None:
        """Restore one experiment, or ``None`` if absent/invalid/stale."""
        path = self.path_for(experiment_id)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema") != CHECKPOINT_SCHEMA:
            return None
        if (payload.get("n_drives") != self._n_drives
                or payload.get("seed") != self._seed):
            return None
        if payload.get("experiment_id") != experiment_id:
            return None
        try:
            result = ExperimentResult(
                experiment_id=str(payload["experiment_id"]),
                title=str(payload["title"]),
                paper_reference=str(payload["paper_reference"]),
                rendered=str(payload["rendered"]),
            )
            wall_s = float(payload["wall_s"])
        except (KeyError, TypeError, ValueError):
            return None
        return result, wall_s
