"""Experiment harness: one module per paper table/figure.

Every experiment regenerates one artifact of the paper's evaluation on
the default simulated fleet (or any fleet/report passed in), returning an
:class:`repro.experiments.common.ExperimentResult` with both structured
data and an ASCII rendering.  The registry maps experiment ids (``fig1``,
``table3``, ...) to runners; ``repro-experiments`` is the CLI entry
point.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".common": ("DEFAULT_SEED", "ExperimentResult", "default_config",
                "default_fleet", "default_report"),
    ".registry": ("EXPERIMENTS", "main", "run_experiment"),
})
