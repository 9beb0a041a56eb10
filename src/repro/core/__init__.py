"""The paper's primary contribution.

Failure-record feature construction, failure categorization (clustering +
taxonomy), quantified degradation signatures, attribute-influence
analysis, z-score diagnosis and degradation prediction — assembled
end-to-end by :class:`repro.core.pipeline.CharacterizationPipeline`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".categorize": ("CategorizationResult", "FailureCategorizer"),
    ".monitor": ("AlertLevel", "DegradationAlert", "DegradationMonitor"),
    ".pipeline": ("CharacterizationPipeline", "CharacterizationReport"),
    ".prediction": ("DegradationPredictor", "PredictionReport"),
    ".rescue": ("RescueEstimate", "estimate_remaining_hours",
                "rescue_estimate"),
    ".serialize": ("report_to_dict", "save_report_json"),
    ".records": ("FailureRecordSet", "build_failure_records"),
    ".signature_models": ("CANONICAL_ORDER_BY_TYPE", "canonical_signature",
                          "compare_signature_models"),
    ".signatures": ("DegradationSignature", "DegradationWindow",
                    "WindowParams", "derive_signature",
                    "distance_to_failure", "extract_degradation_window"),
    ".taxonomy": ("FailureType", "GroupProperties", "classify_groups"),
    ".validate": ("ValidationReport", "validate_categorization"),
})
