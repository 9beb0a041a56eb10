"""RAID reliability analysis.

The paper's opening motivation: "in RAID-5 systems, one drive failure
with any other sector error will result in data loss, which leads to
tremendous financial and economic costs".  This package quantifies that
risk on a simulated fleet — Monte Carlo over RAID groups drawn from the
fleet's drives, with double-failure and latent-sector-error loss modes
during reconstruction (after Bairavasundaram et al.) — and evaluates how
much of it signature-driven *proactive* replacement removes, closing the
loop on the paper's Section V implications.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".array": ("DriveState", "GroupOutcome", "RaidLevel", "evaluate_group"),
    ".reliability": ("PolicyResult", "RaidReliabilityAnalysis",
                     "drive_states_from_fleet"),
})
