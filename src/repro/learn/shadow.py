"""Champion/challenger shadow scoring with a deterministic divergence report.

The third stage of the continuous-learning loop: before a challenger
bundle may replace the serving champion, it must score the *same*
stream side by side.  :class:`ShadowScorer` scores every block through
both bundles' stateless verdict kernels
(:meth:`~repro.serve.bundle.ModelBundle.monitor`) — same blocks, same
order, no drive state on either side — and accumulates a
:class:`DivergenceReport`: the verdict agreement rate, the full 3x3
severity confusion matrix (HEALTHY / WATCH / CRITICAL, champion rows by
challenger columns, built from both blocks' severity-code columns with
one ``bincount`` per block), the mean absolute
stage delta over rows where both sides produced a finite stage, and
per-drive alert deltas naming exactly which drives the two bundles
disagree about.

The report is deterministic by construction — pure column arithmetic in
stream order, serials sorted in the payload — so the same stream through
the same two bundles yields a byte-identical
:meth:`DivergenceReport.to_payload`.  The
:class:`~repro.learn.promote.PromotionPolicy` consumes the report; the
``shadow_divergence`` gauge tracks the running disagreement rate for
operators watching a live shadow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import LearnError
from repro.obs.observer import PipelineObserver, resolve_observer
from repro.serve.bundle import ModelBundle, content_hash
from repro.serve.scorer import VerdictBlock, check_batch

#: Severity levels in code order (the int8 codes of an AlertBlock).
_LEVELS = ("HEALTHY", "WATCH", "CRITICAL")


@dataclass(frozen=True, slots=True)
class DivergenceReport:
    """Everything the promotion policy needs about one shadow run.

    ``confusion`` is champion-severity rows by challenger-severity
    columns (code order HEALTHY, WATCH, CRITICAL); ``alert_deltas``
    maps each disagreeing drive serial to its
    ``{"champion_only": ..., "challenger_only": ...}`` alerting-row
    counts — drives where one bundle alerted and the other did not.
    """

    champion_sha256: str
    challenger_sha256: str
    champion_generation: int
    challenger_generation: int
    n_samples: int
    n_agree: int
    confusion: tuple[tuple[int, ...], ...]
    stage_delta_mean: float
    alert_deltas: dict[str, dict[str, int]]

    @property
    def agreement_rate(self) -> float:
        """Fraction of samples where both severities matched."""
        return self.n_agree / self.n_samples if self.n_samples else 1.0

    @property
    def divergence(self) -> float:
        """Fraction of samples where the severities differed."""
        return 1.0 - self.agreement_rate

    def to_payload(self) -> dict[str, Any]:
        """Deterministic plain-type mapping (sorted serials, exact ints)."""
        return {
            "champion_sha256": self.champion_sha256,
            "challenger_sha256": self.challenger_sha256,
            "champion_generation": self.champion_generation,
            "challenger_generation": self.challenger_generation,
            "n_samples": self.n_samples,
            "n_agree": self.n_agree,
            "agreement_rate": self.agreement_rate,
            "divergence": self.divergence,
            "levels": list(_LEVELS),
            "confusion": [list(row) for row in self.confusion],
            "stage_delta_mean": self.stage_delta_mean,
            "alert_deltas": {
                serial: dict(delta)
                for serial, delta in sorted(self.alert_deltas.items())
            },
        }


class ShadowScorer:
    """Score one stream through two bundles, tallying their divergence.

    Parameters
    ----------
    champion / challenger:
        The serving bundle and its candidate replacement.  Both must
        score the same attribute space (the stream feeds both
        unchanged).
    observer:
        Telemetry sink: each scored block refreshes the
        ``shadow_divergence`` gauge with the running disagreement
        rate and counts ``shadow_samples``.
    """

    def __init__(self, champion: ModelBundle, challenger: ModelBundle, *,
                 observer: PipelineObserver | None = None) -> None:
        if tuple(champion.attributes) != tuple(challenger.attributes):
            raise LearnError(
                "shadow scoring needs bundles over the same attribute "
                "space; champion and challenger disagree")
        self._observer = resolve_observer(observer)
        self._champion = champion
        self._challenger = challenger
        self._champion_sha = content_hash(champion.to_payload())
        self._challenger_sha = content_hash(challenger.to_payload())
        self._kernels = (champion.monitor(), challenger.monitor())
        self._n_samples = 0
        self._n_agree = 0
        self._confusion = np.zeros((len(_LEVELS), len(_LEVELS)),
                                   dtype=np.int64)
        self._stage_delta_sum = 0.0
        self._stage_delta_count = 0
        self._alert_deltas: dict[str, dict[str, int]] = {}

    @property
    def n_samples(self) -> int:
        """Samples shadow-scored so far."""
        return self._n_samples

    @property
    def divergence(self) -> float:
        """Running disagreement rate."""
        if not self._n_samples:
            return 0.0
        return 1.0 - self._n_agree / self._n_samples

    def score_block(self, serials: Sequence[str], hours: Sequence[int],
                    matrix: np.ndarray) -> tuple[VerdictBlock, VerdictBlock]:
        """Score one block with both bundles and fold in the deltas.

        Returns ``(champion_block, challenger_block)`` — the champion
        block is the one a shadowing daemon would actually serve.  A
        batch that :func:`~repro.serve.scorer.check_batch` refuses
        raises :class:`~repro.errors.ServeError` and tallies nothing.
        """
        matrix, hours = check_batch(serials, hours, matrix,
                                    self._champion.attributes)
        champ, chall = (VerdictBlock(kernel.observe_columns(serials, hours,
                                                            matrix))
                        for kernel in self._kernels)
        champ_codes = champ.block.level_codes.astype(np.int64)
        chall_codes = chall.block.level_codes.astype(np.int64)
        agree = champ_codes == chall_codes
        self._n_samples += len(champ)
        self._n_agree += int(np.count_nonzero(agree))
        self._confusion += np.bincount(
            champ_codes * len(_LEVELS) + chall_codes,
            minlength=len(_LEVELS) ** 2,
        ).reshape(len(_LEVELS), len(_LEVELS))

        champ_stages = champ.block.stages[
            champ.block.likely_indices, np.arange(len(champ))]
        chall_stages = chall.block.stages[
            chall.block.likely_indices, np.arange(len(chall))]
        both_finite = np.isfinite(champ_stages) & np.isfinite(chall_stages)
        if both_finite.any():
            deltas = np.abs(champ_stages[both_finite]
                            - chall_stages[both_finite])
            self._stage_delta_sum += float(deltas.sum())
            self._stage_delta_count += int(both_finite.sum())

        champ_alerting = champ_codes > 0
        chall_alerting = chall_codes > 0
        for row in np.flatnonzero(champ_alerting != chall_alerting):
            serial = champ.serials[int(row)]
            delta = self._alert_deltas.setdefault(
                serial, {"champion_only": 0, "challenger_only": 0})
            if champ_alerting[row]:
                delta["champion_only"] += 1
            else:
                delta["challenger_only"] += 1

        self._observer.count("shadow_samples", len(champ))
        self._observer.gauge("shadow_divergence", self.divergence)
        return champ, chall

    def report(self) -> DivergenceReport:
        """Freeze the accumulated tallies into a divergence report."""
        if not self._n_samples:
            raise LearnError(
                "no samples were shadow-scored; nothing to report")
        mean_delta = (self._stage_delta_sum / self._stage_delta_count
                      if self._stage_delta_count else 0.0)
        return DivergenceReport(
            champion_sha256=self._champion_sha,
            challenger_sha256=self._challenger_sha,
            champion_generation=self._champion.generation,
            challenger_generation=self._challenger.generation,
            n_samples=self._n_samples,
            n_agree=self._n_agree,
            confusion=tuple(tuple(int(cell) for cell in row)
                            for row in self._confusion),
            stage_delta_mean=mean_delta,
            alert_deltas={serial: dict(delta)
                          for serial, delta in self._alert_deltas.items()},
        )
