"""The seven change regimes that drive a benchmark instance's parameters.

The time-varying quantities of an instance come in families that share
bounds and a severity (peak heights, peak widths, the rotation angle as a
one-value family).  Each family is a float array advanced in place by
:func:`change_values` under one of the regimes T1..T7.  T7 reuses the T3
value dynamics and additionally walks the search dimension, a function
of the change counter given by :func:`walk_dimension`.
"""

from __future__ import annotations

import enum
import math

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


def change_values(
    values: np.ndarray,
    phases: np.ndarray,
    low: float,
    high: float,
    severity: float,
    kind: ChangeType,
    rng: np.random.Generator,
    t: int = 0,
) -> None:
    """Advance one parameter family in place under regime ``kind``.

    ``values`` and ``phases`` are float arrays of one length ``n``; the
    family shares its bounds ``[low, high]`` and its ``severity``.  A
    regime that draws takes one sized draw of ``n`` numbers, the stream of
    ``n`` scalar draws.  ``t`` is the environment's change counter; only
    the periodic regimes consult it.  The result is clipped back into
    ``[low, high]``.
    """
    span = high - low
    n = values.shape[0]
    if kind is ChangeType.SMALL_STEP:
        r = rng.uniform(-1.0, 1.0, n)
        values += SMALL_STEP_ALPHA * span * r * severity
    elif kind is ChangeType.LARGE_STEP:
        r = rng.uniform(-1.0, 1.0, n)
        step = SMALL_STEP_ALPHA * np.copysign(1.0, r) + (
            LARGE_STEP_ALPHA_MAX - SMALL_STEP_ALPHA
        ) * r
        values += span * step * severity
    elif kind in (ChangeType.RANDOM, ChangeType.RANDOM_DIM):
        values += rng.standard_normal(n) * severity
    elif kind is ChangeType.CHAOTIC:
        # logistic-family map applied directly to the normalized value
        offset = values - low
        values[:] = low + CHAOS_A * offset * (1.0 - offset / span)
    elif kind is ChangeType.RECURRENT:
        values[:] = _recurrent_values(phases, low, span, t)
    elif kind is ChangeType.RECURRENT_NOISY:
        values[:] = _recurrent_values(phases, low, span, t)
        values += rng.standard_normal(n) * RECURRENT_NOISE_SEVERITY
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unhandled change type {kind}")
    np.clip(values, low, high, out=values)


def _recurrent_values(phases: np.ndarray, low: float, span: float, t: int) -> np.ndarray:
    # purely a function of (t, phase): no state accumulates between changes;
    # t is reduced modulo the period so the cycle repeats bit-exactly.  The
    # sine is the scalar math.sin per phase: numpy's vectorised sine is
    # dispatched per CPU and need not give the same last bit
    turn = 2.0 * math.pi * (t % RECURRENT_PERIOD) / RECURRENT_PERIOD
    return np.array(
        [low + span * (math.sin(turn + phase) + 1.0) / 2.0 for phase in phases.tolist()]
    )


def walk_dimension(start: int, t: int) -> int:
    """The T7 dimension after ``t`` changes from ``start``.

    The walk takes one step up at each change and reverses at the bounds
    ``[DIM_MIN, DIM_MAX]``, so it is a triangle wave of ``t``.
    """
    span = DIM_MAX - DIM_MIN
    phase = (start - DIM_MIN + t) % (2 * span)
    return DIM_MIN + min(phase, 2 * span - phase)
