"""Write the legacy 2-shard WAL fixture next to this file.

The directory pins what a daemon with schema-2 drive-state snapshots
left on disk, so later code can prove it still recovers it.  It was
written by the code at commit fb4ca20 (two shards, schema-2 snapshots
holding each drive's row, last hour and record count); it does not run
on code that has dropped ``ShardSet(n_shards=...)``.  Run from the
repository root of that commit::

    PYTHONPATH=src python tests/data/legacy_wal_2shard/make_fixture.py

Outputs: ``bundle.json`` (the bundle the WAL names), ``wal/shard-00k``
(a snapshot after block 3, then a 2-block suffix that carries every
other logged drive, so the rest keep the levels the snapshot holds,
and three failed drives the snapshot has never seen; abandoned without
a final checkpoint, as a killed process leaves it)
and ``expected.json`` (each drive's level and ``drives_tracked`` at
the kill, two further blocks and the sha256 of their verdict lines
from a fresh scorer).
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from repro.core.pipeline import CharacterizationPipeline
from repro.serve.bundle import build_bundle, save_bundle
from repro.serve.scorer import StreamScorer
from repro.serve.shard import ShardSet
from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet

OUT = Path(__file__).resolve().parent
LOGGED, NEXT, SNAPSHOT_EVERY = 5, 2, 3


def main() -> None:
    shutil.rmtree(OUT / "wal", ignore_errors=True)
    fleet = simulate_fleet(FleetConfig(n_drives=500, seed=42))
    report = CharacterizationPipeline(seed=42).run(fleet.dataset)
    bundle = build_bundle(report, seed=42)
    save_bundle(bundle, OUT / "bundle.json")
    dataset = fleet.dataset
    held_back = dataset.failed_profiles[-3:]
    logged = dataset.failed_profiles[:-3] + dataset.good_profiles[:200]

    def tick(chosen, index):
        """One tick-major block: each chosen drive's sample ``index``,
        counted from ``LOGGED + NEXT`` samples before the end of its
        profile."""
        rows = [len(profile.hours) - (LOGGED + NEXT) + index
                for profile in chosen]
        return ([profile.serial for profile in chosen],
                [int(profile.hours[row])
                 for profile, row in zip(chosen, rows)],
                np.vstack([profile.matrix[row]
                           for profile, row in zip(chosen, rows)]))

    shards = ShardSet(bundle, n_shards=2, wal_dir=OUT / "wal",
                      snapshot_interval_blocks=SNAPSHOT_EVERY,
                      wal_fsync_every=1)
    for index in range(LOGGED):
        chosen = (logged if index < SNAPSHOT_EVERY
                  else logged[::2] + held_back)
        shards.submit_block(*tick(chosen, index), block_id=f"tick-{index}")
    levels = {}
    for shard in shards._shards:
        for serial, entry in shard.scorer.state.snapshot()["drives"].items():
            levels[serial] = entry["level"]
    tracked = shards.drives_tracked()
    for shard in shards._shards:  # a kill: no final checkpoint
        shard.wal.close()

    fresh = StreamScorer(bundle)
    blocks, lines = [], []
    for index in range(LOGGED, LOGGED + NEXT):
        serials, hours, matrix = tick(logged + held_back, index)
        keep = list(range(0, len(serials), 5))
        block = ([serials[row] for row in keep],
                 [hours[row] for row in keep], matrix[keep])
        blocks.append({"serials": block[0], "hours": block[1],
                       "rows": block[2].tolist()})
        lines.extend(fresh.score_block(*block).to_json_lines())
    expected = {
        "drives_tracked": tracked,
        "levels": dict(sorted(levels.items())),
        "next_blocks": blocks,
        "next_verdicts_sha256": hashlib.sha256(
            "".join(f"{line}\n" for line in lines).encode()).hexdigest(),
    }
    (OUT / "expected.json").write_text(json.dumps(expected, indent=1)
                                       + "\n")


if __name__ == "__main__":
    main()
