"""The continuous-learning loop, end to end, on a drifting fleet.

The serving stack freezes the paper's models into an immutable bundle;
this example shows what happens when the fleet drifts away from that
bundle's training data (``docs/learning.md``).  It plays every stage of
the loop by hand so the moving parts are visible:

1. simulate a *baseline* fleet and train a champion bundle on it;
2. simulate a *drifted* fleet — same population, raised inlet
   temperature — and stream it block by block;
3. watch :class:`repro.learn.DriftDetector` raise alarms as the stream
   walks away from the baseline;
4. rebuild the stream into a :class:`repro.learn.SlidingWindow` and
   refit a lineage-stamped challenger bundle;
5. shadow-score champion vs challenger and print the divergence
   report;
6. evaluate the promotion policy and, if it says go, replay the stream
   through a live scoring partition with a mid-stream promotion —
   verifying the served verdicts are byte-identical to offline scoring.

``repro-learn drill`` wraps the same walk as a one-command, seed-pinned
acceptance gate.

Usage::

   python examples/continuous_learning.py
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro import FleetConfig, simulate_fleet
from repro.core.pipeline import CharacterizationPipeline
from repro.learn import (DriftDetector, DriftPolicy, PromotionPolicy,
                         ShadowScorer, SlidingWindow, blocked_stream,
                         refit_challenger)
from repro.serve import ShardSet, StreamScorer, build_bundle, content_hash

N_DRIVES = 240
BLOCK_SIZE = 256
SEED = 11
DRIFT_DELTA_C = 8.0


def main() -> None:
    # -- 1. champion: train on the baseline fleet -------------------------
    print(f"Simulating a baseline fleet ({N_DRIVES} drives)...")
    baseline_config = FleetConfig(n_drives=N_DRIVES, seed=SEED)
    baseline = simulate_fleet(baseline_config)
    report = CharacterizationPipeline(seed=SEED).run(baseline.dataset)
    champion = build_bundle(report, seed=SEED)
    champion_sha = content_hash(champion.to_payload())
    print(f"  champion bundle {champion_sha[:12]}... "
          f"(generation {champion.generation})")

    # -- 2. the fleet drifts ----------------------------------------------
    print(f"\nSimulating a drifted fleet (inlet +{DRIFT_DELTA_C:.0f} C)...")
    drifted = simulate_fleet(replace(
        baseline_config, seed=SEED + 1,
        inlet_temperature_c=baseline_config.inlet_temperature_c
        + DRIFT_DELTA_C))
    baseline_blocks = blocked_stream(baseline.dataset, BLOCK_SIZE)
    drifted_blocks = blocked_stream(drifted.dataset, BLOCK_SIZE)
    print(f"  {len(drifted_blocks)} blocks of {BLOCK_SIZE} samples")

    # -- 3. drift detection ------------------------------------------------
    # Warm the baselines over the entire baseline stream so alarming
    # starts exactly when the drifted fleet does.
    n_baseline = sum(len(serials) for serials, _h, _m in baseline_blocks)
    detector = DriftDetector(champion.attributes,
                             policy=DriftPolicy(warmup_samples=n_baseline))
    for _serials, _hours, matrix in baseline_blocks:
        detector.update(matrix)
    alarms = []
    for _serials, _hours, matrix in drifted_blocks:
        alarms.extend(detector.update(matrix))
    print(f"\n{len(alarms)} drift alarm(s); first three:")
    for alarm in alarms[:3]:
        print(f"  {alarm.describe()}")

    # -- 4. refit a challenger from the stream -----------------------------
    window = SlidingWindow(champion.attributes)
    for serials, hours, matrix in drifted_blocks:
        window.add_block(serials, hours, matrix)
    window.mark_failed(drifted.failed_serials())
    print(f"\nRefitting on the window ({window.n_drives} drives, "
          f"{window.n_samples} samples, "
          f"{len(window.failed_serials)} failed)...")
    challenger = refit_challenger(window.to_dataset(), champion, seed=SEED)
    print(f"  challenger {content_hash(challenger.to_payload())[:12]}... "
          f"(generation {challenger.generation}, "
          f"parent {challenger.parent_sha256[:12]}...)")

    # -- 5. shadow-score both bundles over the same stream -----------------
    shadow = ShadowScorer(champion, challenger)
    for serials, hours, matrix in drifted_blocks:
        shadow.score_block(serials, hours, matrix)
    divergence = shadow.report()
    print(f"\nShadow run: {divergence.n_samples} samples, "
          f"agreement {divergence.agreement_rate:.4f}, "
          f"mean stage delta {divergence.stage_delta_mean:.4f}")
    print(f"  drives the bundles disagree about: "
          f"{len(divergence.alert_deltas)}")

    # -- 6. promotion decision + the live swap -----------------------------
    policy = PromotionPolicy(min_samples=1024, min_agreement=0.5,
                             max_stage_delta=1e6)
    decision = policy.evaluate(divergence, champion, challenger)
    print(f"\nPromotion decision: promote={decision.promote}")
    for reason in decision.reasons:
        print(f"  - {reason}")
    if not decision.promote:
        return

    # Offline reference: champion scores the first half, swap_bundle at
    # the fence, challenger scores the rest.
    promote_at = len(drifted_blocks) // 2
    scorer = StreamScorer(champion)
    offline = hashlib.sha256()
    for index, (serials, hours, matrix) in enumerate(drifted_blocks):
        if index == promote_at:
            scorer.swap_bundle(challenger)
        for line in scorer.score_block(serials, hours, matrix) \
                .to_json_lines():
            offline.update(line.encode() + b"\n")

    # Live: same stream through the daemon's scoring partition with a
    # real promotion fence between the same two blocks.
    served = hashlib.sha256()
    with ShardSet(champion) as partition:
        for index, (serials, hours, matrix) in enumerate(drifted_blocks):
            if index == promote_at:
                receipt = partition.promote(challenger)
                print(f"\nPromoted to generation {receipt['generation']} "
                      f"at block {promote_at}")
            block = partition.submit_block(serials, hours, matrix)
            for line in block.to_json_lines():
                served.update(line.encode() + b"\n")
    match = served.hexdigest() == offline.hexdigest()
    print(f"served verdict stream == offline swap at same block: {match}")
    assert match


if __name__ == "__main__":
    main()
