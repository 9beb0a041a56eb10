"""The serving process loads only the serving runtime.

Characterization (clustering, signatures, simulation, statistics) only
trains the trees a bundle carries; a process that scores with a saved
bundle must not import it, nor ``scipy``.  A fresh interpreter checks
``sys.modules`` twice: right after ``import repro.serve.cli`` and after
a two-shard :class:`~repro.serve.daemon.ServingDaemon` with a WAL has
loaded a saved bundle and scored one block of a failing drive.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.serve.bundle import build_bundle, save_bundle

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every ``repro`` module a serving process may hold.
SERVING_RUNTIME = frozenset({
    "repro", "repro._lazy", "repro.errors", "repro.ioutil",
    "repro.core", "repro.core.columnar", "repro.core.monitor",
    "repro.core.prediction", "repro.core.rescue", "repro.core.serialize",
    "repro.core.signature_models", "repro.core.taxonomy",
    "repro.data", "repro.data.splits",
    "repro.ml", "repro.ml.metrics", "repro.ml.tree",
    "repro.obs", "repro.obs.export", "repro.obs.http", "repro.obs.logging",
    "repro.obs.metrics", "repro.obs.observer", "repro.obs.recorder",
    "repro.obs.timing", "repro.obs.tracing",
    "repro.serve", "repro.serve.bundle", "repro.serve.cli",
    "repro.serve.daemon", "repro.serve.scorer", "repro.serve.shard",
    "repro.serve.sinks", "repro.serve.wal",
    "repro.smart", "repro.smart.attributes", "repro.smart.normalization",
})

_PROBE = """
import json, sys

def loaded(prefix):
    return sorted(name for name in sys.modules
                  if name == prefix or name.startswith(prefix + "."))

def snapshot():
    return {"repro": loaded("repro"), "scipy": loaded("scipy")}

import repro.serve.cli
after_import = snapshot()

from repro.serve.bundle import load_bundle
from repro.serve.daemon import ServingDaemon

bundle_path, block_path, wal_dir = sys.argv[1:]
with open(block_path) as handle:
    block = json.load(handle)
with ServingDaemon(load_bundle(bundle_path), n_shards=2,
                   wal_dir=wal_dir) as daemon:
    verdicts = daemon.ingest_block(block["serials"], block["hours"],
                                   block["matrix"])
    assert len(verdicts) == len(block["serials"])
print(json.dumps({"import": after_import, "scored": snapshot()}))
"""


def test_serving_process_loads_only_the_serving_runtime(mid_report,
                                                        mid_fleet,
                                                        tmp_path):
    bundle = build_bundle(mid_report, seed=7)
    bundle_path = tmp_path / "bundle.json"
    save_bundle(bundle, bundle_path)
    profile = mid_fleet.dataset.failed_profiles[0]
    block_path = tmp_path / "block.json"
    block_path.write_text(json.dumps({
        "serials": [profile.serial] * len(profile),
        "hours": [int(hour) for hour in profile.hours],
        "matrix": profile.matrix.tolist(),
    }))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, str(bundle_path), str(block_path),
         str(tmp_path / "wal")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    report = json.loads(result.stdout)
    for stage in ("import", "scored"):
        assert report[stage]["scipy"] == [], stage
        extra = sorted(set(report[stage]["repro"]) - SERVING_RUNTIME)
        assert extra == [], f"{stage}: {extra}"
