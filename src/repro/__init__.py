"""repro — disk-failure categorization and quantified degradation signatures.

A full reproduction of "Characterizing Disk Failures with Quantified Disk
Degradation Signatures: An Early Experience" (IISWC 2015): the SMART
attribute model, a component-level fleet simulator standing in for the
paper's proprietary telemetry, the from-scratch ML substrate, and the
characterization pipeline that categorizes disk failures, derives their
degradation signatures and predicts degradation stages.

Quickstart::

    from repro import CharacterizationPipeline, FleetConfig, simulate_fleet

    fleet = simulate_fleet(FleetConfig(n_drives=2000, seed=7))
    report = CharacterizationPipeline().run(fleet.dataset)
    for failure_type, summary in report.group_summaries.items():
        print(failure_type.value, summary.n_drives, summary.consensus_order)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".core.pipeline": ("CharacterizationPipeline", "CharacterizationReport"),
    ".core.prediction": ("DegradationPredictor",),
    ".core.signatures": ("DegradationSignature", "WindowParams",
                         "derive_signature", "distance_to_failure",
                         "extract_degradation_window"),
    ".core.categorize": ("FailureCategorizer",),
    ".core.taxonomy": ("FailureType",),
    ".core.records": ("build_failure_records",),
    ".data.cache": ("DatasetCache",),
    ".data.dataset": ("DiskDataset",),
    ".data.backblaze": ("load_backblaze_csv",),
    ".data.loader": ("load_csv", "load_csv_resilient", "save_csv"),
    ".data.sanitize": ("sanitize_profiles",),
    ".faults.config": ("ChaosConfig", "parse_chaos_spec"),
    ".faults.injectors": ("inject_dataset",),
    ".serve.bundle": ("ModelBundle", "build_bundle", "load_bundle",
                      "save_bundle"),
    ".serve.scorer": ("MonitorVerdict", "StreamScorer"),
    ".sim.config": ("FleetConfig",),
    ".sim.fleet": ("FleetSimulator", "simulate_fleet"),
    ".smart.attributes": ("ATTRIBUTE_REGISTRY", "CHARACTERIZATION_ATTRIBUTES"),
    ".smart.profile": ("HealthProfile",),
    ".smart.normalization": ("MinMaxNormalizer",),
})
__all__.append("__version__")
