"""Seeded input generator for the two workloads.

Everything a workload feeds the program is built here from the
workload seed, before any timing starts, and cached under
``perfbench/.cache/<kind>-<seed>/`` so that repeated runs with one seed
skip the work.  Each entry ends with an ``inputs.json`` holding the
paths, the reference outputs the runs are checked against, and the
input properties the program's behaviour depends on.  Only the few
most recently used entries per kind are kept.

The daemon serves one bundle trained on a fixed fleet (the seed varies
the traffic, not the model); the streams come from other, seeded
fleets.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core.pipeline import CharacterizationPipeline
from repro.serve.bundle import (build_bundle, content_hash, load_bundle,
                                save_bundle)
from repro.serve.scorer import StreamScorer
from repro.serve.shard import HashRing
from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet

CACHE = Path(__file__).resolve().parent / ".cache"

#: Cached entries kept per input kind (least recently used go first).
KEEP_PER_KIND = 3

#: The training fleet behind the served bundle.
TRAIN_SEED = 2015
TRAIN_DRIVES = 1000

#: fleet-tick: fleet size, samples per POST, POSTs prepared, shards.
TICK_DRIVES = 4000
BATCH = 256
TICK_MAX_BATCHES = 1200
SHARDS = 2

#: offline: fleet size passed to ``--simulate``; fleet size behind the
#: scored CSV and the samples in it.
CHARACTERIZE_DRIVES = 500
REPLAY_DRIVES = 600
REPLAY_SAMPLES = 10_000


def fleet_seed(kind: str, seed: int) -> int:
    """The simulator seed for one workload's fleet (distinct per kind)."""
    digest = hashlib.sha256(f"{kind}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _cached(kind: str, key: int, build: Callable[[Path], dict[str, Any]]
            ) -> dict[str, Any]:
    """Return the cached ``inputs.json`` document, building it if absent."""
    directory = CACHE / f"{kind}-{key}"
    marker = directory / "inputs.json"
    if not marker.exists():
        staging = CACHE / f".{kind}-{key}.partial"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        document = build(staging)
        (staging / "inputs.json").write_text(json.dumps(document))
        shutil.rmtree(directory, ignore_errors=True)
        staging.rename(directory)
        _prune(kind)
    marker.touch()
    document = json.loads(marker.read_text())
    document["dir"] = str(directory)
    return document


def _prune(kind: str) -> None:
    entries = sorted(CACHE.glob(f"{kind}-*/inputs.json"),
                     key=lambda path: path.stat().st_mtime, reverse=True)
    for marker in entries[KEEP_PER_KIND:]:
        shutil.rmtree(marker.parent, ignore_errors=True)


def training_bundle() -> Path:
    """The served bundle, trained once on the fixed training fleet."""
    def build(directory: Path) -> dict[str, Any]:
        fleet = simulate_fleet(FleetConfig(n_drives=TRAIN_DRIVES,
                                           seed=TRAIN_SEED))
        report = CharacterizationPipeline(n_clusters=3, seed=TRAIN_SEED
                                          ).run(fleet.dataset)
        save_bundle(build_bundle(report, seed=TRAIN_SEED),
                    directory / "bundle.json")
        return {}
    return Path(_cached("bundle", TRAIN_SEED, build)["dir"]) / "bundle.json"


def _jsonl_line(serial: str, hour: int, values: list[float]) -> str:
    body = ", ".join(repr(value) for value in values)
    return f'{{"serial": "{serial}", "hour": {hour}, "values": [{body}]}}\n'


def _stream(profiles: list, order: str) -> tuple[list[str], np.ndarray,
                                                  np.ndarray]:
    """All samples of ``profiles`` as columns, tick- or drive-major."""
    serials = [profile.serial for profile in profiles
               for _ in range(len(profile.hours))]
    hours = np.concatenate([np.asarray(p.hours, dtype=np.int64)
                            for p in profiles])
    matrix = np.vstack([p.matrix for p in profiles])
    rank = {serial: index for index, serial in enumerate(sorted(set(serials)))}
    serial_rank = np.array([rank[serial] for serial in serials])
    keys = (serial_rank, hours) if order == "tick" else (hours, serial_rank)
    order_index = np.lexsort(keys)
    return ([serials[i] for i in order_index], hours[order_index],
            matrix[order_index])


def _batch_properties(serials: list[str], alerts: int) -> dict[str, float]:
    n_batches = -(-len(serials) // BATCH)
    distinct = [len(set(serials[i:i + BATCH]))
                for i in range(0, len(serials), BATCH)]
    return {
        "samples": len(serials),
        "batches": n_batches,
        "drives": len(set(serials)),
        "distinct_drives_per_batch": sum(distinct) / len(distinct),
        "samples_per_drive": len(serials) / len(set(serials)),
        "alert_share": alerts / len(serials),
    }


def fleet_tick(seed: int) -> dict[str, Any]:
    """Pre-encoded tick-major JSONL POST bodies plus per-batch references.

    ``bodies.bin`` holds the bodies back to back (``offsets`` in the
    document); ``reference`` holds, per batch, the sample count, the
    alert count and the alert verdict lines that offline
    ``StreamScorer.score_block`` produces for the same batches.
    """
    bundle_path = training_bundle()

    def build(directory: Path) -> dict[str, Any]:
        bundle = load_bundle(bundle_path)
        fleet = simulate_fleet(FleetConfig(
            n_drives=TICK_DRIVES, seed=fleet_seed("fleet-tick", seed)))
        serials, hours, matrix = _stream(fleet.dataset.profiles, "tick")
        limit = TICK_MAX_BATCHES * BATCH
        serials, hours, matrix = serials[:limit], hours[:limit], matrix[:limit]
        scorer = StreamScorer(bundle)
        ring = HashRing(SHARDS)
        shard_of = {serial: ring.shard_of(serial) for serial in set(serials)}
        offsets = [0]
        rows, alert_counts, alert_lines, subblock_rows = [], [], [], []
        with open(directory / "bodies.bin", "wb") as out:
            for start in range(0, len(serials), BATCH):
                stop = min(start + BATCH, len(serials))
                batch_serials = serials[start:stop]
                batch_hours = hours[start:stop].tolist()
                values = matrix[start:stop]
                body = "".join(_jsonl_line(s, h, v) for s, h, v in zip(
                    batch_serials, batch_hours, values.tolist()))
                out.write(body.encode("utf-8"))
                offsets.append(out.tell())
                block = scorer.score_block(batch_serials, batch_hours, values)
                rows.append(stop - start)
                alert_counts.append(block.n_alerting)
                alert_lines.append([block.verdict_at(int(row)).to_json_line()
                                    for row in block.alerting_rows()])
                per_shard: dict[int, int] = {}
                for serial in batch_serials:
                    per_shard[shard_of[serial]] = (
                        per_shard.get(shard_of[serial], 0) + 1)
                subblock_rows.extend(per_shard.values())
        properties = _batch_properties(serials, sum(alert_counts))
        properties["rows_per_shard_subblock"] = (
            sum(subblock_rows) / len(subblock_rows))
        return {
            "bundle": str(bundle_path),
            "offsets": offsets,
            "reference": {"rows": rows, "alerts": alert_counts,
                          "alert_lines": alert_lines},
            "properties": properties,
        }

    return _cached("fleet-tick", seed, build)


def offline(seed: int) -> dict[str, Any]:
    """The ``--simulate`` fleet's seed, a drive-major CSV and references.

    The reference bundle comes from the same library calls as
    ``repro-characterize --simulate N --seed S --export-model``.  The
    CSV (``serial,hour,<attributes>``) holds exactly ``REPLAY_SAMPLES``
    samples of another fleet (the last drive is cut short), so every
    seed gives jobs of the same size; its reference digest is the
    sha256 of the verdict lines that ``StreamScorer.score_block``, with
    the saved reference bundle, produces over the same 256-sample
    batches that ``repro-serve score`` reads.
    """
    def build(directory: Path) -> dict[str, Any]:
        sim_seed = fleet_seed("characterize", seed)
        fleet = simulate_fleet(FleetConfig(n_drives=CHARACTERIZE_DRIVES,
                                           seed=sim_seed))
        report = CharacterizationPipeline(n_clusters=3, seed=sim_seed
                                          ).run(fleet.dataset)
        save_bundle(build_bundle(report, seed=sim_seed),
                    directory / "bundle.json")
        bundle = load_bundle(directory / "bundle.json")
        summary = fleet.dataset.summary()
        fleet_samples = sum(len(p.hours) for p in fleet.dataset.profiles)

        replay = simulate_fleet(FleetConfig(
            n_drives=REPLAY_DRIVES, seed=fleet_seed("verdict-replay", seed)))
        if tuple(replay.dataset.attributes) != tuple(bundle.attributes):
            raise RuntimeError("simulated attributes differ from the bundle's")
        profiles = sorted(replay.dataset.profiles, key=lambda p: p.serial)
        chosen, total = [], 0
        for profile in profiles:
            if total >= REPLAY_SAMPLES:
                break
            chosen.append(profile)
            total += len(profile.hours)
        serials, hours, matrix = _stream(chosen, "drive")
        serials = serials[:REPLAY_SAMPLES]
        hours, matrix = hours[:REPLAY_SAMPLES], matrix[:REPLAY_SAMPLES]
        hours_list = hours.tolist()
        digest = hashlib.sha256()
        scorer = StreamScorer(bundle)
        alerts = 0
        with open(directory / "stream.csv", "w") as out:
            out.write(",".join(("serial", "hour", *bundle.attributes)) + "\n")
            for start in range(0, len(serials), BATCH):
                stop = min(start + BATCH, len(serials))
                values = matrix[start:stop]
                for serial, hour, row in zip(serials[start:stop],
                                             hours_list[start:stop],
                                             values.tolist()):
                    out.write(f"{serial},{hour},"
                              + ",".join(repr(v) for v in row) + "\n")
                block = scorer.score_block(serials[start:stop],
                                           hours_list[start:stop], values)
                alerts += block.n_alerting
                for line in block.to_json_lines():
                    digest.update((line + "\n").encode("utf-8"))
        properties = {
            "fleet_samples": fleet_samples,
            "fleet_drives": summary.n_drives,
            "failed_drives": summary.n_failed,
            "fleet_samples_per_drive": fleet_samples / summary.n_drives,
        }
        properties.update({f"stream_{key}": value for key, value in
                           _batch_properties(serials, alerts).items()})
        return {
            "sim_seed": sim_seed,
            "drives": CHARACTERIZE_DRIVES,
            "bundle_sha256": content_hash(bundle.to_payload()),
            "csv": "stream.csv",
            "verdicts_sha256": digest.hexdigest(),
            "properties": properties,
        }

    return _cached("offline", seed, build)
