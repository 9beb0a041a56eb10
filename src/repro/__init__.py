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

from repro.core import (
    CharacterizationPipeline,
    CharacterizationReport,
    DegradationPredictor,
    DegradationSignature,
    FailureCategorizer,
    FailureType,
    WindowParams,
    build_failure_records,
    derive_signature,
    distance_to_failure,
    extract_degradation_window,
)
from repro.data import (
    DatasetCache,
    DiskDataset,
    load_backblaze_csv,
    load_csv,
    load_csv_resilient,
    sanitize_profiles,
    save_csv,
)
from repro.faults import ChaosConfig, inject_dataset, parse_chaos_spec
from repro.serve import (
    ModelBundle,
    MonitorVerdict,
    StreamScorer,
    build_bundle,
    load_bundle,
    save_bundle,
)
from repro.sim import FleetConfig, FleetSimulator, simulate_fleet
from repro.smart import (
    ATTRIBUTE_REGISTRY,
    CHARACTERIZATION_ATTRIBUTES,
    HealthProfile,
    MinMaxNormalizer,
    SmartRecord,
)

__version__ = "1.0.0"

__all__ = [
    "CharacterizationPipeline",
    "CharacterizationReport",
    "DegradationPredictor",
    "DegradationSignature",
    "FailureCategorizer",
    "FailureType",
    "WindowParams",
    "build_failure_records",
    "derive_signature",
    "distance_to_failure",
    "extract_degradation_window",
    "DatasetCache",
    "DiskDataset",
    "load_backblaze_csv",
    "load_csv",
    "load_csv_resilient",
    "sanitize_profiles",
    "save_csv",
    "ChaosConfig",
    "inject_dataset",
    "parse_chaos_spec",
    "ModelBundle",
    "MonitorVerdict",
    "StreamScorer",
    "build_bundle",
    "load_bundle",
    "save_bundle",
    "FleetConfig",
    "FleetSimulator",
    "simulate_fleet",
    "ATTRIBUTE_REGISTRY",
    "CHARACTERIZATION_ATTRIBUTES",
    "HealthProfile",
    "MinMaxNormalizer",
    "SmartRecord",
    "__version__",
]
