"""Reliability weights for survey votes.

A vote's weight is the sigmoid of (frequency weight x average visit
duration in minutes): a proxy for how much time the respondent has spent
at the location, squashed into (0, 1). Durations of zero are admitted and
give the floor weight of 0.5.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import ValidationError


class FrequencyCategory(enum.Enum):
    """Coded answers to "how many times have you visited?"."""

    ONE_TO_THREE = "1 to 3"
    FOUR_TO_SIX = "4 to 6"
    SEVEN_TO_NINE = "7 to 9"
    TEN_OR_MORE = "10 or more"


_FREQUENCY_WEIGHTS = {
    FrequencyCategory.ONE_TO_THREE: 1,
    FrequencyCategory.FOUR_TO_SIX: 2,
    FrequencyCategory.SEVEN_TO_NINE: 3,
    FrequencyCategory.TEN_OR_MORE: 4,
}


def frequency_weight(cat: FrequencyCategory) -> int:
    """Integer visit-frequency weight in 1..4 for a coded category."""
    return _FREQUENCY_WEIGHTS[cat]


def reliability_weight(f: int, t: float) -> float:
    """Sigmoid reliability weight sigma(f * t) for frequency weight f and minutes t.

    Exponentiates a non-positive argument only, so no overflow for any
    non-negative duration.
    """
    if f not in (1, 2, 3, 4):
        raise ValidationError(f"frequency weight must be in 1..4, got {f}")
    if not math.isfinite(t) or t < 0:
        raise ValidationError(f"duration must be a finite value >= 0 minutes, got {t}")
    return 1.0 / (1.0 + math.exp(-(f * t)))


def reliability_weights(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized sigmoid weights for aligned frequency/duration arrays."""
    u = np.asarray(f, dtype=np.float64) * np.asarray(t, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-u))


def reliability_auc(weights: "list[float] | np.ndarray") -> float:
    """Area under the ascending-sorted weight curve on [0, 1].

    Weights are sorted ascending and placed at x = i/(n-1); the trapezoid
    rule integrates the resulting curve. A single weight is its own area.
    Permutation-invariant and bounded by [min(w), max(w)].
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValidationError("AUC needs at least one weight")
    if np.any(~np.isfinite(w)) or np.any(w < 0.0) or np.any(w > 1.0):
        raise ValidationError("weights must lie in [0, 1]")
    if w.size == 1:
        return float(w[0])
    w = np.sort(w)
    return float((0.5 * (w[0] + w[-1]) + w[1:-1].sum()) / (w.size - 1))
