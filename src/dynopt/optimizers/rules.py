"""Update rules of the quantum-behaved chaotic salp swarm.

Each rule has one implementation: the optimizers call these functions and
the anchor tests pin them against hand-computed values.  Position
arguments are arrays of the current dimension (scalars also work) or
stacks of them, and every random draw is shaped like the position it
moves.  Unit draws on (0, 1] are ``1 - rng.random(shape)``; each rule
states its draw order, which fixes the random stream of a run.

A rule reads its draws only through ``rng.random(shape)``, so a caller
that moves many members at once may pass a :class:`DrawCursor` instead
of a generator: the cursor hands out slots of one block drawn in advance.
``Qcsso.swarm_update`` lays that block out member by member, in the
order a loop over the members would draw, so one bulk draw consumes the
stream exactly as the loop did.
"""

from __future__ import annotations

import functools
import math

import numpy as np

LOGISTIC_D = 4.0
CHAOTIC_SCALE = 3.0
FOLLOWER_GAIN = 0.75


class DrawCursor:
    """Stand-in for ``rng`` that returns pre-drawn slots in order.

    ``random(shape)`` returns the next slot as it is (a unit draw on
    [0, 1), like ``Generator.random``).  A shape that differs from the
    slot's, or a call past the last slot, raises ``ValueError``: either
    means the caller's block layout and the rules' draw order disagree.
    """

    def __init__(self, slots) -> None:
        self._slots = list(slots)
        self._next = 0

    def random(self, shape=None):
        if self._next == len(self._slots):
            raise ValueError("draw cursor ran past the end of its block")
        slot = self._slots[self._next]
        if shape is None:
            wanted = ()
        else:
            wanted = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        if slot.shape != wanted:
            raise ValueError(
                f"draw slot {self._next} has shape {slot.shape}, asked for {wanted}"
            )
        self._next += 1
        return slot


def logistic_step(w: float, d: float = LOGISTIC_D) -> float:
    """One step of the logistic map ``w' = d * w * (1 - w)``."""
    if not 0.0 < w < 1.0:
        raise ValueError("logistic map state must lie strictly inside (0, 1)")
    return d * w * (1.0 - w)


def chaotic_operator(w: float, rng: np.random.Generator, shape=None):
    """Chaos-modulated scale ``u = 3 * w * (1 - w) * c4`` with c4 in (0, 1]."""
    if not 0.0 < w < 1.0:
        raise ValueError("chaotic operator needs w inside (0, 1)")
    c4 = 1.0 - rng.random(shape)  # (0, 1]; never zero, so u stays positive
    return CHAOTIC_SCALE * w * (1.0 - w) * c4


def contraction_expansion(l: int, max_iterations: int) -> float:
    """Exploration amplitude ``B = 0.5 * (L - l) / (l + 0.5)``.

    Non-negative, strictly decreasing, and exactly zero at the final
    iteration; at l = 0 it equals L, so early iterations roam widely.
    """
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    if not 0 <= l <= max_iterations:
        raise ValueError("iteration index out of schedule range")
    return 0.5 * (max_iterations - l) / (l + 0.5)


def follower_coefficient(l: int, max_iterations: int) -> float:
    """Follower step gain ``C = 0.75 * sin(pi/4) * (1 - l/L)``."""
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    if not 0 <= l <= max_iterations:
        raise ValueError("iteration index out of schedule range")
    return FOLLOWER_GAIN * math.sin(math.pi / 4.0) * (1.0 - l / max_iterations)


def salp_coefficient(l: int, max_iterations: int) -> float:
    """Leader orbit gain of the classic salp chain, ``c1 = 2 * exp(-(4l/L)^2)``."""
    return 2.0 * math.exp(-((4.0 * l / max_iterations) ** 2))


@functools.cache
def _rank_scales(chain: int) -> tuple[np.ndarray, np.ndarray]:
    """Powers of two 2^max(i-1, 0) and 2^-i for ranks i of a chain."""
    rank = np.arange(chain)
    up = np.ldexp(1.0, np.maximum(rank - 1, 0))[:, None, None]
    down = np.ldexp(1.0, -rank)[:, None, None]
    up.flags.writeable = down.flags.writeable = False
    return up, down


def salp_chain(positions, members, food, lower, upper, c1, rng) -> None:
    """Classic salp chain move of several chains, in place on ``positions``.

    ``members`` is a ``(k, chain)`` index matrix, one row per chain (a
    flat sequence is one chain).  Each leader ``members[:, 0]`` lands at
    ``food ± c1 * ((upper - lower) * c2 + lower)``, adding where the side
    coin is at least 0.5; each follower then averages its position with
    its already moved predecessor, ``x_i <- (x_{i-1} + x_i) / 2``, one
    rank at a time.  The draws are one ``(k, 2, dim)`` block: per chain
    c2, then the side coin, which is the stream of k single-chain calls.

    The averaging runs as one accumulate: with rank i scaled by
    2^max(i-1, 0), the running sum at rank i is 2^i times the averaged
    follower, and scaling it back by 2^-i gives that follower.  Scaling by
    a power of two commutes with rounding, so every rank equals the
    rank-by-rank average bit for bit, unless a follower sum
    ``x_{i-1} + x_i`` is nonzero and below 2^-1021 in magnitude (its half
    is subnormal and rounds) or a scaled sum overflows, which takes chains
    of ~1000 members.
    """
    members = np.atleast_2d(members)
    draws = rng.random((members.shape[0], 2) + np.shape(food))
    c2, side = draws[:, 0], draws[:, 1] >= 0.5
    step = c1 * ((upper - lower) * c2 + lower)
    ranks = positions[members.T]  # (chain, k, dim): one slab per rank
    ranks[0] = np.where(side, food + step, food - step)
    up, down = _rank_scales(ranks.shape[0])
    ranks *= up
    np.add.accumulate(ranks, axis=0, out=ranks)
    ranks *= down
    positions[members.T] = ranks


def local_attractor(x, food, rng: np.random.Generator):
    """Random convex blend of a position and the food position.

    ``A = (r1 * x + r2 * food) / (r1 + r2)`` with r1, r2 in (0, 1], drawn
    in that order.
    """
    shape = np.shape(x)
    r1 = 1.0 - rng.random(shape)
    r2 = 1.0 - rng.random(shape)
    return (r1 * x + r2 * food) / (r1 + r2)


def quantum_update(
    x,
    attractor,
    b_l: float,
    bestmean,
    w: float,
    rng: np.random.Generator,
    c3_threshold: float = 0.5,
):
    """Quantum-style jump around the attractor.

    Draw order is c4 (via the chaotic operator), then r, then the side
    coin c3.  The displacement is ``B * |bestmean - x| * ln(r / u)`` and
    is added where c3 exceeds the threshold, subtracted elsewhere.
    Callers clamp the result to the search bounds.
    """
    shape = np.shape(x)
    u = chaotic_operator(w, rng, shape)
    r = 1.0 - rng.random(shape)
    c3 = 1.0 - rng.random(shape)
    step = b_l * np.abs(bestmean - x) * np.log(r / u)
    return attractor + np.where(c3 > c3_threshold, step, -step)


def follower_update(x_i, x_prev, x_prev2, attractor, c: float, momentum: float):
    """Chain-following move anchored on the predecessor's position."""
    return x_prev + c * (attractor - x_i) + momentum * (x_prev - x_prev2)
