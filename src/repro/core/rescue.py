"""Rescue-time estimation from degradation stages.

The paper's motivation (Section I): "Modeling the degradation process of
disk failures will enable us to track the evolvement of disk errors to
failures and accurately estimate the available time for data rescue."

Given a predicted degradation stage ``s`` (from the Table III regression
trees) and a failure type, the canonical signature ``s = (t/d)^p - 1``
inverts to the remaining time

``t = d * (s + 1)^(1/p)``.

Stages at or above zero sit outside the degradation window: the drive
shows no degradation yet and at least the full window remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.signature_models import (
    CANONICAL_ORDER_BY_TYPE,
    PREDICTION_WINDOW_BY_TYPE,
)
from repro.core.taxonomy import FailureType
from repro.errors import SignatureError


@dataclass(frozen=True, slots=True)
class RescueEstimate:
    """Remaining-time estimate for one drive.

    ``hours_remaining`` is ``inf`` while the drive shows no degradation
    (stage >= 0); ``urgent`` flags estimates at or under the caller's
    deadline.
    """

    failure_type: FailureType
    stage: float
    hours_remaining: float
    window: int

    def urgent(self, deadline_hours: float) -> bool:
        return self.hours_remaining <= deadline_hours


def estimate_remaining_hours(stage: float, failure_type: FailureType, *,
                             window: int | None = None) -> float:
    """Invert the canonical signature to hours before failure.

    Parameters
    ----------
    stage:
        Predicted degradation value; ``-1`` is the failure event, ``0``
        the window boundary, values above 0 the healthy regime.
    failure_type:
        Selects the signature order (2 / 1 / 3 for Groups 1-3).
    window:
        Degradation-window size ``d`` in hours; defaults to the paper's
        per-group prediction windows (12 / 380 / 24).
    """
    stage = float(stage)
    if not math.isfinite(stage):
        raise SignatureError("degradation stage must be finite")
    if stage >= 0.0:
        return float("inf")
    if window is None:
        window = PREDICTION_WINDOW_BY_TYPE[failure_type]
    if window < 1:
        raise SignatureError("window must be at least 1 hour")
    order = CANONICAL_ORDER_BY_TYPE[failure_type]
    # stage is known negative here, so clipping to [-1, 0] reduces to a
    # floor at -1 (plain float ops; the ``**`` inversion itself must
    # stay Python pow — see the AlertBlock docstring on numpy's pow).
    clipped = stage if stage >= -1.0 else -1.0
    return window * (clipped + 1.0) ** (1.0 / order)


def rescue_estimate(stage: float, failure_type: FailureType, *,
                    window: int | None = None) -> RescueEstimate:
    """Bundle a stage with its inverted remaining time."""
    resolved_window = (window if window is not None
                       else PREDICTION_WINDOW_BY_TYPE[failure_type])
    return RescueEstimate(
        failure_type=failure_type,
        stage=float(stage),
        hours_remaining=estimate_remaining_hours(stage, failure_type,
                                                 window=window),
        window=resolved_window,
    )
