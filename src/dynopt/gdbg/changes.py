"""Dynamic parameters and the seven change regimes that drive them.

Every time-varying quantity of a benchmark instance (peak heights, widths,
the shared rotation angle) is a :class:`DynamicParam` advanced by
:func:`change_param` under one of the regimes T1..T7.  T7 reuses the T3
value dynamics and additionally walks the search dimension via
:func:`dimension_step`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

# Regime constants.  These govern step sizes and shapes, not ranges.
SMALL_STEP_ALPHA = 0.04
LARGE_STEP_ALPHA_MAX = 0.1
CHAOS_A = 3.67
RECURRENT_PERIOD = 12
RECURRENT_NOISE_SEVERITY = 0.8

DIM_MIN = 5
DIM_MAX = 15


class ChangeType(enum.Enum):
    """The seven change regimes of the dynamic benchmark."""

    SMALL_STEP = "T1"
    LARGE_STEP = "T2"
    RANDOM = "T3"
    CHAOTIC = "T4"
    RECURRENT = "T5"
    RECURRENT_NOISY = "T6"
    RANDOM_DIM = "T7"

    @classmethod
    def from_label(cls, label: str) -> "ChangeType":
        label = label.strip().upper()
        for member in cls:
            if member.value == label:
                return member
        raise ValueError(f"unknown change type {label!r} (expected T1..T7)")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def clamp(value: float, lo: float, hi: float) -> float:
    """``float(np.clip(value, lo, hi))`` for scalars, without numpy's call cost.

    ``value`` comes first in ``max`` so that a NaN stays NaN, as in numpy.
    """
    return float(min(max(value, lo), hi))


@dataclass
class DynamicParam:
    """One bounded scalar that the environment mutates over time."""

    value: float
    min: float
    max: float
    severity: float
    phase: float = 0.0  # used by the periodic regimes only

    def __post_init__(self) -> None:
        if not self.max > self.min:
            raise ValueError("DynamicParam needs max > min")
        self.value = clamp(self.value, self.min, self.max)

    @property
    def range(self) -> float:
        return self.max - self.min


def change_param(
    p: DynamicParam,
    kind: ChangeType,
    rng: np.random.Generator,
    t: int = 0,
) -> None:
    """Advance one dynamic parameter in place under regime ``kind``.

    ``t`` is the environment's change counter; only the periodic regimes
    consult it.  The result is always clamped back into ``[min, max]``.
    """
    span = p.range
    if kind is ChangeType.SMALL_STEP:
        r = rng.uniform(-1.0, 1.0)
        p.value += SMALL_STEP_ALPHA * span * r * p.severity
    elif kind is ChangeType.LARGE_STEP:
        r = rng.uniform(-1.0, 1.0)
        step = SMALL_STEP_ALPHA * math.copysign(1.0, r) + (
            LARGE_STEP_ALPHA_MAX - SMALL_STEP_ALPHA
        ) * r
        p.value += span * step * p.severity
    elif kind in (ChangeType.RANDOM, ChangeType.RANDOM_DIM):
        p.value += rng.standard_normal() * p.severity
    elif kind is ChangeType.CHAOTIC:
        # logistic-family map applied directly to the normalized value
        offset = p.value - p.min
        p.value = p.min + CHAOS_A * offset * (1.0 - offset / span)
    elif kind is ChangeType.RECURRENT:
        p.value = _recurrent_value(p, t)
    elif kind is ChangeType.RECURRENT_NOISY:
        p.value = _recurrent_value(p, t) + rng.standard_normal() * RECURRENT_NOISE_SEVERITY
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unhandled change type {kind}")
    p.value = clamp(p.value, p.min, p.max)


def _recurrent_value(p: DynamicParam, t: int) -> float:
    # purely a function of (t, phase): no state accumulates between changes;
    # t is reduced modulo the period so the cycle repeats bit-exactly
    angle = 2.0 * math.pi * (t % RECURRENT_PERIOD) / RECURRENT_PERIOD + p.phase
    return p.min + p.range * (math.sin(angle) + 1.0) / 2.0


@dataclass
class DimensionWalk:
    """Bounded random walk of the search dimension used by T7."""

    dim: int
    sign: int = 1

    def step(self) -> int:
        """Advance one step, reversing direction at the dimension bounds."""
        proposed = self.dim + self.sign
        if proposed > DIM_MAX or proposed < DIM_MIN:
            self.sign = -self.sign
            proposed = self.dim + self.sign
        self.dim = proposed
        return self.dim
