"""Continuous learning: drift detection, shadow scoring, promotion.

The serving stack (:mod:`repro.serve`) freezes the paper's models into
a versioned bundle; this package closes the loop when the fleet walks
away from the data those models were trained on.  Four stages, each
usable on its own (see ``docs/learning.md``):

1. :class:`DriftDetector` — rolling per-attribute baselines over the
   columnar stream, raising :class:`DriftAlarm`\\ s on mean shifts and
   outlier-share changes, with warmup, hysteresis and cooldown.
2. :class:`SlidingWindow` + :func:`refit_challenger` — reassemble
   recent blocks into a dataset and re-run the full characterization
   pipeline to produce a lineage-stamped *challenger* bundle.
3. :class:`ShadowScorer` — score the same stream with champion and
   challenger side by side, freezing a deterministic
   :class:`DivergenceReport`.
4. :class:`PromotionPolicy` — turn the report into an auditable
   :class:`PromotionDecision`; the serving daemon's promotion plane
   (``POST /promote``, :meth:`ServingDaemon.promote_bundle
   <repro.serve.daemon.ServingDaemon.promote_bundle>`) performs the
   actual swap.

:class:`DriftDrill` wires all four into the deterministic end-to-end
drill behind ``repro-learn drill``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".drift": ("DriftAlarm", "DriftDetector", "DriftPolicy"),
    ".drill": ("DriftDrill", "blocked_stream"),
    ".promote": ("PromotionDecision", "PromotionPolicy"),
    ".refit": ("SlidingWindow", "refit_challenger"),
    ".shadow": ("DivergenceReport", "ShadowScorer"),
})
