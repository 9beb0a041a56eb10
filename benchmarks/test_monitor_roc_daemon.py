"""Bench A9 through the live daemon: the operating curve from HTTP verdicts.

``monitor_roc`` scores its unseen fleet through the served bundle's
``StreamScorer.score_block``.  This bench streams the same samples —
failed drives cut ``LEAD_HOURS`` before the failure, good drives whole
— through a 2-shard ``ServingDaemon`` over ``POST /ingest?verdicts=all``
with the WAL on, in collector order (hour, then serial).  One shard is
killed mid-stream, and the client retries the refused batch under the
same ``?batch=`` id until the shard has replayed; later the daemon is
promoted to a ``stamp_lineage`` child of the same bundle (a new
generation over the same models).  The FDR/FAR curve derived from the
reply lines must equal the experiment's, float for float.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.pipeline import CharacterizationPipeline
from repro.experiments import monitor_roc
from repro.serve.bundle import build_bundle, save_bundle, stamp_lineage
from repro.serve.daemon import ServingDaemon
from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet
from tests.test_obs_http import _post

#: ``monitor_roc.run()``'s defaults: training fleet, evaluation fleet,
#: seed.
TRAIN_DRIVES, EVAL_DRIVES, SEED = 2000, 1500, 71
BATCH = 256


def _ingest(url, batch_id, lines, deadline_s=30.0):
    """POST one JSONL batch, retrying 503s under the same batch id."""
    body = ("\n".join(lines) + "\n").encode("utf-8")
    deadline = time.monotonic() + deadline_s
    retries = 0
    while True:
        status, _headers, text = _post(
            f"{url}/ingest?format=jsonl&verdicts=all&batch={batch_id}", body)
        if status == 200:
            return text.splitlines(), retries
        assert status == 503, (status, text)
        assert time.monotonic() < deadline, "shard never recovered"
        retries += 1
        time.sleep(0.05)


@pytest.mark.tier2
def test_monitor_roc_curve_through_the_daemon(tmp_path):
    expected = monitor_roc.run(train_drives=TRAIN_DRIVES,
                               eval_drives=EVAL_DRIVES, seed=SEED)
    train = simulate_fleet(FleetConfig(n_drives=TRAIN_DRIVES, seed=SEED))
    report = CharacterizationPipeline(run_prediction=False, seed=SEED).run(
        train.dataset)
    bundle = build_bundle(report, seed=SEED)
    child_path = tmp_path / "child.bundle.json"
    save_bundle(stamp_lineage(bundle, bundle), child_path)

    dataset = simulate_fleet(FleetConfig(n_drives=EVAL_DRIVES,
                                         seed=SEED + 1)).dataset
    lead = monitor_roc.LEAD_HOURS
    failed = [profile for profile in dataset.failed_profiles
              if len(profile) > lead + 1]
    cuts = {profile.serial: len(profile) - lead for profile in failed}
    cuts.update((profile.serial, len(profile))
                for profile in dataset.good_profiles)
    samples = sorted(
        ((int(hour), profile.serial, row)
         for profile in failed + dataset.good_profiles
         for hour, row in zip(profile.hours[:cuts[profile.serial]],
                              profile.matrix[:cuts[profile.serial]])),
        key=lambda sample: sample[:2])
    batches = [
        [json.dumps({"serial": serial, "hour": hour,
                     "values": row.tolist()})
         for hour, serial, row in samples[start:start + BATCH]]
        for start in range(0, len(samples), BATCH)]
    kill_at, promote_at = len(batches) // 3, 2 * len(batches) // 3

    min_stage: dict[str, float] = {}
    retried = 0
    with ServingDaemon(bundle, n_shards=2,
                       wal_dir=tmp_path / "wal") as daemon:
        for index, lines in enumerate(batches):
            if index == kill_at:
                daemon.shards.kill_shard(0)
            if index == promote_at:
                status, _headers, text = _post(daemon.url + "/promote",
                                               child_path.read_bytes())
                assert status == 200, text
                assert json.loads(text)["generation"] == 1
            replies, retries = _ingest(daemon.url, f"a9-{index}", lines)
            retried += retries
            assert len(replies) == len(lines)
            for line in replies:
                verdict = json.loads(line)
                stage = min(verdict["stages"].values())
                serial = verdict["serial"]
                min_stage[serial] = min(stage,
                                        min_stage.get(serial, np.inf))
        assert daemon.shards.shard_restarts() == [1, 0]
    assert retried >= 1

    failed_stages = np.array([min_stage[p.serial] for p in failed])
    good_stages = np.array([min_stage[p.serial]
                            for p in dataset.good_profiles])
    curve = {threshold: {"fdr": float(np.mean(failed_stages <= threshold)),
                         "far": float(np.mean(good_stages <= threshold))}
             for threshold in monitor_roc.THRESHOLDS}
    assert curve == expected.data["curve"]
    assert (len(failed_stages), len(good_stages)) == (
        expected.data["n_failed"], expected.data["n_good"])
