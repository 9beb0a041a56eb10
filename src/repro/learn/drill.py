"""The deterministic end-to-end drift drill: detect → refit → shadow → promote.

:class:`DriftDrill` is the continuous-learning loop's acceptance gate,
run by ``repro-learn drill`` and pinned by the tier-1 suite.  It
simulates two seed-pinned fleets — a *baseline* fleet the champion is
trained on, and a *drifted* fleet (same population, next seed, inlet
temperature raised by ``drift_delta_c``) — then walks the full loop
over the drifted stream:

1. a :class:`~repro.learn.drift.DriftDetector` warms its baselines on
   the baseline fleet's stream and raises alarms on the drifted one;
2. a :class:`~repro.learn.refit.SlidingWindow` reassembles the drifted
   stream and :func:`~repro.learn.refit.refit_challenger` retrains a
   challenger bundle against the champion's lineage;
3. a :class:`~repro.learn.shadow.ShadowScorer` scores the drifted
   stream with both bundles and freezes a divergence report;
4. a :class:`~repro.learn.promote.PromotionPolicy` issues the
   promotion decision.

Everything above is shard-independent, collected once by
:meth:`DriftDrill.prepare` into :meth:`DriftDrill.core_payload` — the
document that must be byte-identical across repeated runs.  The serving
half, :meth:`DriftDrill.run`, replays the same drifted stream through a
live :class:`~repro.serve.shard.ShardSet` with a mid-stream
:meth:`promote <repro.serve.shard.ShardSet.promote>` and asserts the
served verdict stream is byte-identical to offline scoring that
switches from the champion's verdict kernel to the challenger's at the
same block — for any shard count.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any

import numpy as np

from repro.core.pipeline import CharacterizationPipeline
from repro.data.dataset import DiskDataset
from repro.errors import LearnError
from repro.learn.drift import DriftAlarm, DriftDetector, DriftPolicy
from repro.learn.promote import PromotionDecision, PromotionPolicy
from repro.learn.refit import SlidingWindow, refit_challenger
from repro.learn.shadow import DivergenceReport, ShadowScorer
from repro.obs.observer import PipelineObserver, resolve_observer
from repro.serve.bundle import ModelBundle, build_bundle, content_hash
from repro.serve.scorer import VerdictBlock
from repro.serve.shard import ShardSet
from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet

#: One streamed block: ``(serials, hours, matrix)`` columns.
Block = tuple[list[str], list[int], np.ndarray]


def blocked_stream(dataset: DiskDataset, block_size: int) -> list[Block]:
    """Flatten a dataset into arrival-ordered ingest blocks.

    Samples are ordered by ``(hour, serial)`` — the order a fleet-wide
    collector would ship them — and cut into ``block_size`` chunks.
    Deterministic for a given dataset.
    """
    if block_size < 1:
        raise LearnError("block_size must be positive")
    samples: list[tuple[int, str, np.ndarray]] = []
    for profile in dataset.profiles:
        for hour, row in zip(profile.hours, profile.matrix):
            samples.append((int(hour), profile.serial, row))
    samples.sort(key=lambda sample: (sample[0], sample[1]))
    blocks: list[Block] = []
    for start in range(0, len(samples), block_size):
        chunk = samples[start:start + block_size]
        blocks.append((
            [serial for _hour, serial, _row in chunk],
            [hour for hour, _serial, _row in chunk],
            np.vstack([row for _hour, _serial, row in chunk]),
        ))
    return blocks


class DriftDrill:
    """Seeded drifting-fleet walk of the whole learning loop.

    Parameters
    ----------
    seed:
        Master seed: the baseline fleet uses it, the drifted fleet uses
        ``seed + 1``, and every pipeline/refit run is pinned to it.
    n_drives:
        Fleet size of both simulated populations.  The default keeps
        enough failed drives (~2%) for the taxonomy's three clusters
        while staying cheap enough for the test tier.
    block_size:
        Samples per streamed ingest block.
    drift_delta_c:
        Inlet-temperature rise injected into the drifted fleet — the
        drill's drift signal.
    drift_policy:
        Detector thresholds.  ``None`` derives one from the default
        :class:`~repro.learn.drift.DriftPolicy` whose warmup spans the
        whole baseline stream, so alarming starts exactly when the
        drifted fleet does.
    promotion_policy:
        Promotion gates.  ``None`` uses a drill-lenient policy (low
        agreement floor, no stage-delta cap) so the decision hinges on
        shadow duration and lineage — the deterministic parts — rather
        than on threshold tuning.
    """

    def __init__(self, *, seed: int = 11, n_drives: int = 360,
                 block_size: int = 256, drift_delta_c: float = 8.0,
                 drift_policy: DriftPolicy | None = None,
                 promotion_policy: PromotionPolicy | None = None,
                 observer: PipelineObserver | None = None) -> None:
        if n_drives < 100:
            raise LearnError(
                "drill fleets need >= 100 drives to populate the "
                "failure taxonomy")
        self.seed = int(seed)
        self.n_drives = int(n_drives)
        self.block_size = int(block_size)
        self.drift_delta_c = float(drift_delta_c)
        self._drift_policy = drift_policy
        self._promotion_policy = (
            promotion_policy if promotion_policy is not None
            else PromotionPolicy(min_samples=1024, min_agreement=0.5,
                                 max_stage_delta=1e6))
        self._observer = resolve_observer(observer)
        self._prepared = False
        self.champion: ModelBundle | None = None
        self.challenger: ModelBundle | None = None
        self.alarms: list[DriftAlarm] = []
        self.report: DivergenceReport | None = None
        self.decision: PromotionDecision | None = None
        self.blocks: list[Block] = []
        self.promote_at = 0
        self._offline_sha256 = ""

    # -- the shard-independent core ---------------------------------------

    def prepare(self) -> "DriftDrill":
        """Run detect → refit → shadow → decide once; returns self.

        Expensive (two fleet simulations, two full pipeline runs, one
        shadow pass) — run it once and reuse the instance for any
        number of :meth:`run` calls.
        """
        obs = self._observer
        with obs.span("drill-prepare", seed=self.seed,
                      n_drives=self.n_drives):
            baseline_config = FleetConfig(n_drives=self.n_drives,
                                          seed=self.seed)
            baseline = simulate_fleet(baseline_config)
            champion_report = CharacterizationPipeline(
                seed=self.seed).run(baseline.dataset)
            self.champion = build_bundle(champion_report, seed=self.seed)

            drifted_config = replace(
                baseline_config, seed=self.seed + 1,
                inlet_temperature_c=(baseline_config.inlet_temperature_c
                                     + self.drift_delta_c))
            drifted = simulate_fleet(drifted_config)
            baseline_blocks = blocked_stream(baseline.dataset,
                                             self.block_size)
            self.blocks = blocked_stream(drifted.dataset, self.block_size)
            self.promote_at = len(self.blocks) // 2

            policy = self._drift_policy
            if policy is None:
                baseline_samples = sum(len(serials) for serials, _h, _m
                                       in baseline_blocks)
                policy = DriftPolicy(warmup_samples=baseline_samples)
            detector = DriftDetector(self.champion.attributes,
                                     policy=policy, observer=obs)
            for _serials, _hours, matrix in baseline_blocks:
                detector.update(matrix)
            self.alarms = []
            for _serials, _hours, matrix in self.blocks:
                self.alarms.extend(detector.update(matrix))
            if not self.alarms:
                raise LearnError(
                    "drill produced no drift alarms — the injected "
                    "temperature shift should always trip the detector")

            window = SlidingWindow(self.champion.attributes)
            for serials, hours, matrix in self.blocks:
                window.add_block(serials, hours, matrix)
            window.mark_failed(drifted.failed_serials())
            self.challenger = refit_challenger(
                window.to_dataset(), self.champion, seed=self.seed,
                observer=obs)

            shadow = ShadowScorer(self.champion, self.challenger,
                                  observer=obs)
            for serials, hours, matrix in self.blocks:
                shadow.score_block(serials, hours, matrix)
            self.report = shadow.report()
            self.decision = self._promotion_policy.evaluate(
                self.report, self.champion, self.challenger)
            self._offline_sha256 = self._offline_verdict_sha()
        self._prepared = True
        return self

    def _offline_verdict_sha(self) -> str:
        """sha256 of the canonical verdict stream with a mid-stream swap.

        The offline reference for :meth:`run`: the champion's verdict
        kernel scores the blocks before the promotion fence, the
        challenger's kernel scores the rest — one hash over every
        canonical verdict line in order.
        """
        assert self.champion is not None and self.challenger is not None
        kernel = self.champion.monitor()
        digest = hashlib.sha256()
        for index, (serials, hours, matrix) in enumerate(self.blocks):
            if index == self.promote_at:
                kernel = self.challenger.monitor()
            block = VerdictBlock(kernel.observe_columns(serials, hours,
                                                        matrix))
            for line in block.to_json_lines():
                digest.update(line.encode("utf-8") + b"\n")
        return digest.hexdigest()

    def core_payload(self) -> dict[str, Any]:
        """The shard-independent drill document (byte-identical per seed)."""
        if not self._prepared:
            raise LearnError("drill.prepare() must run before core_payload")
        assert (self.champion is not None and self.challenger is not None
                and self.report is not None and self.decision is not None)
        return {
            "schema": 1,
            "seed": self.seed,
            "n_drives": self.n_drives,
            "block_size": self.block_size,
            "drift_delta_c": self.drift_delta_c,
            "n_blocks": len(self.blocks),
            "promote_at_block": self.promote_at,
            "champion_sha256": content_hash(self.champion.to_payload()),
            "challenger_sha256": content_hash(self.challenger.to_payload()),
            "champion_generation": self.champion.generation,
            "challenger_generation": self.challenger.generation,
            "alarms": [alarm.to_payload() for alarm in self.alarms],
            "divergence": self.report.to_payload(),
            "decision": self.decision.to_payload(),
            "verdict_sha256": self._offline_sha256,
        }

    # -- the serving half -------------------------------------------------

    def run(self, n_shards: int, *, wal_dir: Any = None) -> dict[str, Any]:
        """Serve the drifted stream with a live mid-stream promotion.

        Feeds the first half of the blocks to a fresh
        :class:`~repro.serve.shard.ShardSet` under the champion,
        promotes the challenger, feeds the rest, and hashes the served
        canonical verdict stream.  Raises
        :class:`~repro.errors.LearnError` unless the hash equals the
        offline reference — the byte-identity contract across shard
        counts and live promotion.
        """
        if not self._prepared:
            raise LearnError("drill.prepare() must run before run()")
        assert self.champion is not None and self.challenger is not None
        digest = hashlib.sha256()
        receipts: list[dict[str, Any]] = []
        with ShardSet(self.champion, n_shards=n_shards,
                      wal_dir=wal_dir) as shards:
            for index, (serials, hours, matrix) in enumerate(self.blocks):
                if index == self.promote_at:
                    receipts = shards.promote(self.challenger)
                block = shards.submit_block(serials, hours, matrix,
                                            block_id=f"drill-{index}")
                for line in block.to_json_lines():
                    digest.update(line.encode("utf-8") + b"\n")
        served = digest.hexdigest()
        if served != self._offline_sha256:
            raise LearnError(
                f"served verdict stream diverged from offline scoring "
                f"({served[:12]}… vs {self._offline_sha256[:12]}…) at "
                f"n_shards={n_shards}")
        return {
            "n_shards": n_shards,
            "verdict_sha256": served,
            "matches_offline": True,
            "promotion_receipts": receipts,
        }
