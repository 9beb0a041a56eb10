"""Fault injection: deterministic chaos for the characterization pipeline.

The subsystem has two halves.  :mod:`repro.faults.config` quantifies a
corruption regime (:class:`ChaosConfig`, one rate per fault class plus a
seed, and the CLI spec parser).  :mod:`repro.faults.injectors` applies
it: :func:`inject_dataset` corrupts a dataset the way field telemetry
actually fails — dropped and duplicated samples, attribute blackouts,
NaN and outlier bursts, out-of-order timestamps, truncated profiles.

Everything is seeded and deterministic: equal configs produce
byte-identical corruption, so chaos runs are re-runnable experiments,
not one-off fuzzing.  The corrupted output goes through
:func:`repro.data.sanitize.sanitize_profiles`, which quarantines what
cannot be repaired and yields a clean dataset plus a data-quality
report.

:mod:`repro.faults.chaos_serve` extends chaos to the *serving* plane:
seeded partition-kill drills (:func:`kill_plan`, :func:`run_chaos_stream`)
that verify WAL crash recovery reproduces the uninterrupted verdict
stream byte for byte, and :class:`BlackholeSink` for dead-letter
delivery drills.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".chaos_serve": ("BlackholeSink", "kill_plan", "run_chaos_stream",
                     "verdict_lines"),
    ".config": ("SPEC_KEYS", "ChaosConfig", "parse_chaos_spec"),
    ".injectors": ("FAULT_ORDER", "FaultLog", "RawProfile",
                   "inject_dataset"),
})
