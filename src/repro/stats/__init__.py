"""Statistical analysis utilities.

Box-chart summaries (Figure 2), decile summaries (Figure 6), Pearson
correlation (Figures 9/10), the Eq. (7) two-population z-score
(Figures 11/12) and the rolling feature statistics of the 30-feature
failure records.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".afr": ("WeibullFit", "annualized_failure_rate", "fit_weibull"),
    ".correlation": ("pearson", "spearman"),
    ".features": ("change_rate", "rolling_std", "smooth_poh"),
    ".summary": ("BoxSummary", "box_summary", "deciles"),
    ".zscore": ("two_population_z", "temporal_z_scores"),
})
