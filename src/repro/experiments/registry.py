"""Experiment registry and CLI entry point.

``repro-experiments`` (or ``python -m repro.experiments.registry``) runs
any subset of the paper's experiments and prints their renderings:

.. code-block:: console

   $ repro-experiments --list
   $ repro-experiments fig8 table3
   $ repro-experiments --all --jobs 4

``--jobs N`` fans the selected experiments out across N worker
processes of a :class:`~concurrent.futures.ProcessPoolExecutor`.  The parent
pre-warms the memoized default fleet and pipeline report before the
pool starts, so (on fork-based platforms) every worker inherits the
shared dataset instead of rebuilding it; results are merged back in
registry order, so the printed stream and any ``--output`` file are
identical to a serial run.  Empty and single-experiment selections
never spin up a pool at all.

Long sweeps are crash-safe: ``--checkpoint-dir DIR`` persists each
finished experiment atomically (see
:mod:`repro.experiments.checkpoint`), ``--resume`` restores valid
checkpoints and re-executes only what is missing, and ``--keep-going``
records a failed experiment and carries on instead of aborting the
sweep (failures are never checkpointed, so a later ``--resume`` retries
them).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable

from repro.errors import CheckpointError, ExperimentError, ReproError
from repro.experiments.checkpoint import CheckpointStore, ExperimentFailure
from repro.experiments import (
    ablation_distance,
    ablation_features,
    baselines_prediction,
    fig01_profile_durations,
    fig02_attribute_boxes,
    fig03_elbow,
    fig04_pca_groups,
    fig05_centroids,
    fig06_deciles,
    fig07_distance_series,
    fig08_poly_fits,
    fig09_rw_correlation,
    fig10_env_correlation,
    fig11_tc_zscores,
    fig12_poh_zscores,
    failure_rates,
    fig13_regression_tree,
    generalization,
    monitor_roc,
    prediction_methods,
    raid_protection,
    robustness,
    sig_model_selection,
    thermal_mitigation,
    table1_attributes,
    table2_taxonomy,
    table3_prediction,
)
from repro.experiments.common import ExperimentResult
from repro.obs.timing import format_duration, timeit

#: Registry of experiment ids to (runner, description).
EXPERIMENTS: dict[str, tuple[Callable[[], ExperimentResult], str]] = {
    "table1": (table1_attributes.run, "Table I: selected SMART attributes"),
    "fig1": (fig01_profile_durations.run,
             "Figure 1: failed-drive profile durations"),
    "fig2": (fig02_attribute_boxes.run,
             "Figure 2: attribute distributions over failure records"),
    "fig3": (fig03_elbow.run, "Figure 3: cluster-count elbow analysis"),
    "fig4": (fig04_pca_groups.run, "Figure 4: PCA scatter of failure groups"),
    "fig5": (fig05_centroids.run, "Figure 5: centroid failure records"),
    "fig6": (fig06_deciles.run, "Figure 6: decile comparison of key attributes"),
    "table2": (table2_taxonomy.run, "Table II: failure taxonomy"),
    "fig7": (fig07_distance_series.run,
             "Figure 7: distance-to-failure series"),
    "fig8": (fig08_poly_fits.run, "Figure 8: degradation curves and fits"),
    "sig_models": (sig_model_selection.run,
                   "Section IV-C: signature model selection"),
    "fig9": (fig09_rw_correlation.run,
             "Figure 9: R/W attribute correlation with degradation"),
    "fig10": (fig10_env_correlation.run,
              "Figure 10: environmental correlations"),
    "fig11": (fig11_tc_zscores.run, "Figure 11: TC z-scores"),
    "fig12": (fig12_poh_zscores.run, "Figure 12: POH z-scores"),
    "fig13": (fig13_regression_tree.run, "Figure 13: Group 1 regression tree"),
    "table3": (table3_prediction.run, "Table III: prediction RMSE/error"),
    "baselines": (baselines_prediction.run,
                  "Extension: classical detector baselines"),
    "ablation_distance": (ablation_distance.run,
                          "Ablation: Euclidean vs Mahalanobis"),
    "ablation_features": (ablation_features.run,
                          "Ablation: clustering feature sets"),
    "prediction_methods": (prediction_methods.run,
                           "Extension: alternative degradation predictors"),
    "generalization": (generalization.run,
                       "Extension: transfer to a backup-storage fleet"),
    "raid_protection": (raid_protection.run,
                        "Extension: RAID data-loss risk and proactive "
                        "protection"),
    "thermal_mitigation": (thermal_mitigation.run,
                           "Extension: cooling vs logical failures"),
    "robustness": (robustness.run,
                   "Extension: categorization robustness across fleets"),
    "failure_rates": (failure_rates.run,
                      "Extension: AFR and failure-time distribution"),
    "monitor_roc": (monitor_roc.run,
                    "Extension: monitor middleware operating curve"),
}


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by registry id."""
    try:
        runner, _ = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(EXPERIMENTS)}"
        ) from None
    return runner()


def _worker_init(n_drives: int, seed: int) -> None:
    """Replicate the parent's fleet scale in a pool worker."""
    from repro.experiments.common import configure_default_fleet

    configure_default_fleet(n_drives=n_drives, seed=seed)


def _execute_one(experiment_id: str, *,
                 checkpoint_spec: tuple[str, int, int] | None = None,
                 keep_going: bool = False,
                 ) -> tuple[ExperimentResult | ExperimentFailure, float]:
    """Worker body with the resilience features bolted on.

    Runs one experiment; on success, optionally persists its checkpoint
    (``checkpoint_spec`` is ``(directory, n_drives, seed)`` — plain
    values, because this function must pickle into pool workers).  With
    ``keep_going``, a failure is captured as an
    :class:`ExperimentFailure` instead of propagating, so one broken
    experiment cannot abort a sweep.  Failures are never checkpointed.
    """
    failure: ExperimentFailure | None = None
    with timeit(experiment_id) as timer:
        try:
            result = run_experiment(experiment_id)
        except Exception as error:
            if not keep_going:
                raise
            failure = ExperimentFailure(
                experiment_id=experiment_id,
                error_type=type(error).__name__,
                message=str(error),
            )
    if failure is not None:
        return failure, timer.wall_s
    if checkpoint_spec is not None:
        directory, n_drives, seed = checkpoint_spec
        store = CheckpointStore(directory, n_drives=n_drives, seed=seed)
        store.store(result, timer.wall_s)
    return result, timer.wall_s


def run_many(ids: list[str], *, jobs: int = 1,
             checkpoint_dir: str | Path | None = None,
             resume: bool = False, keep_going: bool = False,
             ) -> list[tuple[ExperimentResult | ExperimentFailure, float]]:
    """Run experiments, fanning out across ``jobs`` worker processes.

    Results come back in the order of ``ids`` regardless of completion
    order, so any job count renders the same stream.  Unknown ids fail
    fast before any work is dispatched.  Every experiment's duration and
    the job count are emitted through the experiment harness's observer
    seam (``experiment_duration_s`` histogram, ``parallel_jobs`` gauge).

    With ``checkpoint_dir``, each finished experiment is persisted
    atomically as it completes (inside the worker, so a killed sweep
    keeps everything that finished).  With ``resume``, valid checkpoints
    at the active fleet scale are restored instead of re-executed —
    restored entries report their *original* wall time.  With
    ``keep_going``, a failing experiment yields an
    :class:`ExperimentFailure` in its slot instead of aborting the
    sweep.  Empty and fully-restored selections return without creating
    a worker pool.
    """
    from repro.experiments.common import (
        active_scale,
        default_report,
        get_pipeline_observer,
    )

    unknown = [experiment_id for experiment_id in ids
               if experiment_id not in EXPERIMENTS]
    if unknown:
        raise ExperimentError(
            f"unknown experiment {unknown[0]!r}; known: "
            f"{', '.join(EXPERIMENTS)}"
        )
    if jobs < 0:
        raise ExperimentError(f"jobs must be >= 0, got {jobs}")
    if resume and checkpoint_dir is None:
        raise CheckpointError("resume requires a checkpoint directory")
    observer = get_pipeline_observer()
    n_drives, seed = active_scale()

    store: CheckpointStore | None = None
    restored: dict[str, tuple[ExperimentResult, float]] = {}
    if checkpoint_dir is not None:
        store = CheckpointStore(checkpoint_dir, n_drives=n_drives, seed=seed)
        if resume:
            for experiment_id in ids:
                loaded = store.load(experiment_id)
                if loaded is not None:
                    restored[experiment_id] = loaded
    if restored:
        observer.count("experiments_restored", len(restored))
        observer.event("experiments restored from checkpoints",
                       restored=len(restored), requested=len(ids))

    to_run = [experiment_id for experiment_id in ids
              if experiment_id not in restored]
    computed: dict[str, tuple[ExperimentResult | ExperimentFailure, float]] = {}
    if to_run:
        resolved_jobs = min(jobs or len(os.sched_getaffinity(0)),
                            len(to_run))
        worker = functools.partial(
            _execute_one,
            checkpoint_spec=(str(store.directory), n_drives, seed)
            if store is not None else None,
            keep_going=keep_going,
        )
        if resolved_jobs > 1:
            # Build the memoized fleet + report once in the parent so
            # fork-started workers inherit the shared dataset cache
            # instead of simulating their own copy per process.
            with observer.span("experiments-prewarm"):
                default_report()
            with ProcessPoolExecutor(resolved_jobs, initializer=_worker_init,
                                     initargs=(n_drives, seed)) as pool:
                pairs = list(pool.map(worker, to_run))
        else:
            pairs = [worker(experiment_id) for experiment_id in to_run]
        observer.gauge("parallel_jobs", resolved_jobs)
        computed = dict(zip(to_run, pairs))

    merged: list[tuple[ExperimentResult | ExperimentFailure, float]] = []
    for experiment_id in ids:
        outcome, wall_s = (restored.get(experiment_id)
                           or computed[experiment_id])
        merged.append((outcome, wall_s))
        if isinstance(outcome, ExperimentFailure):
            observer.count("experiments_failed")
            observer.event("experiment failed",
                           experiment=experiment_id,
                           error=outcome.error_type)
            continue
        observer.observe("experiment_duration_s", wall_s)
        observer.event("experiment finished", experiment=experiment_id,
                       wall_s=wall_s)
    return merged


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-experiments`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids to run")
    parser.add_argument("--all", action="store_true", help="run everything")
    parser.add_argument("--list", action="store_true",
                        help="list known experiments")
    parser.add_argument("--n-drives", type=int, default=None,
                        help="fleet size (default 4000; the paper's fleet "
                             "is 23395)")
    parser.add_argument("--seed", type=int, default=None,
                        help="fleet seed (default 42)")
    parser.add_argument("--output", metavar="PATH", default=None,
                        help="also write the rendered results to this file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the experiment fan-out "
                             "(0 = one per CPU; default 1, serial)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="persist each finished experiment here "
                             "(atomic per-experiment JSON files)")
    parser.add_argument("--resume", action="store_true",
                        help="restore finished experiments from "
                             "--checkpoint-dir and run only the rest")
    parser.add_argument("--keep-going", action="store_true",
                        help="record a failing experiment and continue "
                             "the sweep instead of aborting (exit 1 if "
                             "anything failed)")
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")

    if args.n_drives is not None or args.seed is not None:
        from repro.experiments.common import configure_default_fleet
        configure_default_fleet(n_drives=args.n_drives, seed=args.seed)

    if args.list:
        for experiment_id, (_, description) in EXPERIMENTS.items():
            print(f"{experiment_id:20s} {description}")
        return 0
    ids = list(EXPERIMENTS) if args.all else args.ids
    if not ids:
        parser.print_help()
        return 2
    try:
        pairs = run_many(ids, jobs=args.jobs,
                         checkpoint_dir=args.checkpoint_dir,
                         resume=args.resume, keep_going=args.keep_going)
    except ReproError as error:
        print(error, file=sys.stderr)
        return 1
    results = []
    failures = []
    for experiment_id, (outcome, wall_s) in zip(ids, pairs):
        results.append(outcome)
        print(outcome)
        if isinstance(outcome, ExperimentFailure):
            failures.append(outcome)
            print(f"[{experiment_id}] FAILED after "
                  f"{format_duration(wall_s)}")
        else:
            print(f"[{experiment_id}] finished in {format_duration(wall_s)}")
        print()
    if args.output:
        from repro.reporting.report import save_results
        save_results(results, args.output)
        print(f"results written to {args.output}")
    if failures:
        print(f"{len(failures)} of {len(ids)} experiment(s) failed: "
              f"{', '.join(f.experiment_id for f in failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
