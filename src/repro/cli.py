"""``repro-characterize`` — run the pipeline on a dataset from the shell.

The operator-facing entry point: point it at telemetry (native CSV or
Backblaze drive-stats files) or let it simulate a fleet, and it runs the
full characterization pipeline, prints the taxonomy / signature /
prediction summaries and optionally writes the machine-readable JSON
report.

Examples::

   repro-characterize --simulate 4000 --seed 42
   repro-characterize --csv fleet.csv --json report.json
   repro-characterize --backblaze 'data_Q1_2015/*.csv' --model ST4000DM000
   repro-characterize --simulate 500 -v --trace trace.json --metrics metrics.json
   repro-characterize --csv fleet.csv --cache-dir /tmp/repro-cache
   repro-characterize --csv dirty.csv --lenient
   repro-characterize --simulate 2000 --inject-faults 'drop=0.1,nan=0.05,seed=7'
"""

from __future__ import annotations

import argparse
import glob
import sys
from pathlib import Path

from repro.core.pipeline import CharacterizationPipeline, CharacterizationReport
from repro.core.serialize import save_report_json
from repro.core.taxonomy import FailureType
from repro.data.backblaze import load_backblaze_csv
from repro.data.cache import DatasetCache
from repro.data.dataset import DiskDataset
from repro.data.loader import load_csv, load_csv_resilient
from repro.data.sanitize import SanitizationResult, sanitize_profiles
from repro.errors import ReproError
from repro.faults import inject_dataset, parse_chaos_spec
from repro.obs import logging as obs_logging
from repro.obs.export import render_prometheus
from repro.obs.observer import (
    NULL_OBSERVER,
    PipelineObserver,
    TelemetryObserver,
)
from repro.reporting.tables import ascii_table
from repro.serve.bundle import build_bundle, save_bundle
from repro.sim.config import FleetConfig
from repro.sim.fleet import simulate_fleet


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-characterize`` argument grammar."""
    parser = argparse.ArgumentParser(
        prog="repro-characterize",
        description="Categorize disk failures and derive degradation "
                    "signatures from SMART telemetry.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--simulate", type=int, metavar="N_DRIVES",
                        help="simulate a fleet of this size")
    source.add_argument("--csv", metavar="PATH",
                        help="load a native-format CSV dataset")
    source.add_argument("--backblaze", metavar="GLOB",
                        help="load Backblaze drive-stats daily CSVs")
    parser.add_argument("--model", default=None,
                        help="drive-model filter for Backblaze input")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for simulation and the pipeline")
    parser.add_argument("--clusters", type=int, default=3,
                        help="failure-group count (0 = elbow selection)")
    parser.add_argument("--no-prediction", action="store_true",
                        help="skip the Table III predictors")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--export-model", metavar="PATH", default=None,
                        help="write a versioned serving bundle (trees, "
                             "taxonomy, normalization, monitor thresholds) "
                             "here for 'repro-serve'")
    performance = parser.add_argument_group("performance")
    performance.add_argument("--no-cache", action="store_true",
                             help="skip the on-disk dataset cache")
    performance.add_argument("--cache-dir", metavar="PATH", default=None,
                             help="dataset cache directory (default: "
                                  "$REPRO_CACHE_DIR or ~/.cache/repro)")
    robustness = parser.add_argument_group("robustness")
    robustness.add_argument("--lenient", action="store_true",
                            help="quarantine bad rows/drives instead of "
                                 "aborting; adds a data_quality report "
                                 "section when anything was excluded")
    robustness.add_argument("--inject-faults", metavar="SPEC", default=None,
                            help="deterministically corrupt the loaded "
                                 "dataset first (chaos testing), e.g. "
                                 "'drop=0.1,nan=0.05,seed=7'; implies "
                                 "--lenient")
    telemetry = parser.add_argument_group("telemetry")
    telemetry.add_argument("-v", "--verbose", action="count", default=0,
                           help="log pipeline progress (-vv for debug)")
    telemetry.add_argument("--log-json", action="store_true",
                           help="emit log records as JSON lines")
    telemetry.add_argument("--trace", metavar="PATH", default=None,
                           help="write the stage span tree here as JSON")
    telemetry.add_argument("--metrics", metavar="PATH", default=None,
                           help="write the metrics snapshot here as JSON")
    telemetry.add_argument("--prom", metavar="PATH", default=None,
                           help="write the metrics here in Prometheus "
                                "text exposition format")
    return parser


def load_dataset(args: argparse.Namespace, observer: PipelineObserver,
                 ) -> tuple[DiskDataset, SanitizationResult | None]:
    """Load (and, in lenient mode, sanitize) the input dataset.

    Returns the dataset plus the
    :class:`~repro.data.sanitize.SanitizationResult` when the resilient
    ingest ran (``--lenient`` / ``--inject-faults``), else ``None``.
    """
    lenient = bool(getattr(args, "lenient", False)
                   or getattr(args, "inject_faults", None))
    if args.simulate is not None:
        fleet = simulate_fleet(FleetConfig(n_drives=args.simulate,
                                           seed=args.seed),
                               observer=observer)
        return fleet.dataset, None
    if args.csv is not None:
        if lenient:
            return load_csv_resilient(args.csv, observer=observer)
        return load_csv(args.csv, observer=observer), None
    paths = sorted(glob.glob(args.backblaze))
    if not paths:
        raise ReproError(f"no files match {args.backblaze!r}")
    dataset = load_backblaze_csv(paths, model=args.model, observer=observer)
    if lenient:
        result = sanitize_profiles(dataset.profiles, observer=observer)
        return result.dataset, result
    return dataset, None


def _merge_quality(first: SanitizationResult | None,
                   second: SanitizationResult) -> SanitizationResult:
    """Fold an earlier sanitization pass into a later one (ingest
    quarantine happened before fault injection re-sanitized)."""
    if first is not None:
        second.samples = first.samples + second.samples
        second.drives = first.drives + second.drives
        for repair, count in first.repairs.items():
            second.repairs[repair] = second.repairs.get(repair, 0) + count
        second.n_input_drives = first.n_input_drives
    return second


def render_data_quality(quality: SanitizationResult) -> str:
    """One-line ingest summary for the console."""
    return (f"data quality: {quality.n_clean_drives} of "
            f"{quality.n_input_drives} drives usable, "
            f"{len(quality.drives)} drives and {len(quality.samples)} "
            f"samples quarantined, {sum(quality.repairs.values())} repairs")


def render_report(report: CharacterizationReport) -> str:
    """ASCII taxonomy/signature/prediction tables for the console."""
    sections = []
    taxonomy_rows = []
    for failure_type in FailureType:
        summary = report.group_summaries.get(failure_type)
        if summary is None:
            continue
        taxonomy_rows.append((
            f"Group {failure_type.paper_group_number}",
            failure_type.value,
            summary.n_drives,
            f"{summary.median_window:.0f} h",
            f"(t/d)^{summary.consensus_order} - 1",
            "/".join(summary.top_correlated),
        ))
    sections.append(ascii_table(
        ("group", "type", "drives", "median window", "signature",
         "dominant attrs"),
        taxonomy_rows,
        title="Failure taxonomy and degradation signatures",
    ))

    if report.predictions:
        prediction_rows = [
            (f"Group {t.paper_group_number}", p.window, f"{p.rmse:.3f}",
             f"{p.error_rate:.1%}")
            for t, p in report.predictions.items()
        ]
        sections.append(ascii_table(
            ("group", "d", "RMSE", "error rate"), prediction_rows,
            title="Degradation prediction quality",
        ))
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """Entry point: any library or I/O failure exits 2 with one line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation (telemetry configured first)."""
    obs_logging.configure(
        level=obs_logging.verbosity_to_level(args.verbose),
        json_mode=args.log_json,
    )
    collect_telemetry = bool(args.verbose or args.log_json
                             or args.trace or args.metrics or args.prom)
    observer = TelemetryObserver() if collect_telemetry else NULL_OBSERVER

    dataset, quality = load_dataset(args, observer)

    fault_log = None
    if args.inject_faults:
        chaos = parse_chaos_spec(args.inject_faults)
        corrupted, fault_log = inject_dataset(dataset, chaos,
                                              observer=observer)
        result = sanitize_profiles(corrupted, observer=observer)
        quality = _merge_quality(quality, result)
        dataset = result.dataset

    summary = dataset.summary()
    print(f"loaded {summary.n_drives} drives "
          f"({summary.n_failed} failed, {summary.n_good} good)")
    if quality is not None and (not quality.clean or fault_log is not None):
        print(render_data_quality(quality))
    if summary.n_failed < 3:
        raise ReproError("need at least 3 failed drives to categorize")

    cache = None
    if not args.no_cache:
        cache = DatasetCache(args.cache_dir, observer=observer)
    pipeline = CharacterizationPipeline(
        n_clusters=args.clusters if args.clusters > 0 else None,
        run_prediction=not args.no_prediction,
        seed=args.seed,
        cache=cache,
        observer=observer,
    )
    report = pipeline.run(dataset)
    print()
    print(render_report(report))
    if args.json:
        telemetry = (observer.telemetry_section()
                     if isinstance(observer, TelemetryObserver) else None)
        data_quality = None
        if quality is not None and (not quality.clean
                                    or fault_log is not None):
            data_quality = quality.data_quality_section()
            if fault_log is not None:
                data_quality["fault_injection"] = fault_log.to_dict()
        save_report_json(report, args.json, telemetry=telemetry,
                         data_quality=data_quality)
        print(f"\nreport written to {args.json}")
    if args.export_model:
        if args.no_prediction:
            raise ReproError(
                "--export-model needs the trained predictors; drop "
                "--no-prediction"
            )
        bundle = build_bundle(report, predictor=report.predictor)
        save_bundle(bundle, args.export_model, observer=observer)
        print(f"model bundle written to {args.export_model}")
    if args.trace:
        observer.tracer.save_json(args.trace)
        print(f"trace written to {args.trace}")
    if args.metrics:
        Path(args.metrics).write_text(observer.metrics.to_json())
        print(f"metrics written to {args.metrics}")
    if args.prom:
        Path(args.prom).write_text(render_prometheus(observer.metrics))
        print(f"Prometheus metrics written to {args.prom}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
