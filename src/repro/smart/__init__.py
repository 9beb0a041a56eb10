"""SMART attribute model.

This package implements the paper's Table I: the twelve disk health
attributes selected for failure characterization, the semantics of raw
sensor values versus vendor-normalized one-byte health values, and the
min-max normalization of Eq. (1) used throughout the analysis.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".attributes": ("ATTRIBUTE_REGISTRY", "CHARACTERIZATION_ATTRIBUTES",
                    "ENVIRONMENTAL_ATTRIBUTES", "READ_WRITE_ATTRIBUTES",
                    "AttributeKind", "AttributeSpec", "ValueForm",
                    "attribute_index"),
    ".normalization": ("MinMaxNormalizer",),
    ".profile": ("HealthProfile",),
    ".quarantine": ("QuarantinedDrive", "QuarantinedSample",
                    "QuarantineReason"),
})
