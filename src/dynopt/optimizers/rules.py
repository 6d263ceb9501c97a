"""Update rules of the quantum-behaved chaotic salp swarm.

Each rule has one implementation: the optimizers call these functions and
the anchor tests pin them against hand-computed values.  Position
arguments are arrays of the current dimension (scalars also work) or
stacks of them.  Every rule that draws takes its draws as arguments and
holds no generator: unit draws on [0, 1), as ``Generator.random`` gives
them, which the caller draws, so the caller fixes the random stream.  The
quantum rules take each draw shaped like the position it moves and map it
onto (0, 1] as ``1 - d``; the salp chain takes one ``(k, 2, dim)`` block.
The two chain rules, ``salp_chain`` and ``follower_chain``, move a whole
chain in place.
"""

from __future__ import annotations

import functools
import math

import numpy as np

LOGISTIC_D = 4.0
CHAOTIC_SCALE = 3.0
FOLLOWER_GAIN = 0.75
# weights, momentum and side-coin threshold: Sun et al., Evol. Comput. 20(3), 2012
W_FIXED = 0.96
W_INIT = 0.70
MOMENTUM = 0.5
C3_THRESHOLD = 0.5
LEADERS_PER_CHAIN = 2  # quantum heads at the front of each chain
# the draw maps 1 - d, the side coin and the follower momentum take their
# constants as 0-d arrays: a Python float operand costs numpy 2 a
# conversion on every call, a 0-d array does not (same bits)
_ONE = np.array(1.0)
_C3_THRESHOLD = np.array(C3_THRESHOLD)
_MOMENTUM = np.array(MOMENTUM)


def logistic_step(w: float) -> float:
    """One step of the logistic map ``w' = LOGISTIC_D * w * (1 - w)``."""
    if not 0.0 < w < 1.0:
        raise ValueError("logistic map state must lie strictly inside (0, 1)")
    return LOGISTIC_D * w * (1.0 - w)


def chaotic_operator(w: float, d4):
    """Chaos-modulated scale ``u = 3 * w * (1 - w) * c4`` with ``c4 = 1 - d4``."""
    if not 0.0 < w < 1.0:
        raise ValueError("chaotic operator needs w inside (0, 1)")
    c4 = _ONE - d4  # (0, 1]; never zero, so u stays positive
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


def salp_chain(chains, food, lower, upper, c1, draws) -> None:
    """Classic salp chain move of several chains, in place on ``chains``.

    ``chains`` is a ``(k, chain, dim)`` array, one chain per row, such as
    a ``reshape`` view of a swarm's positions.  Each leader
    ``chains[:, 0]`` lands at ``food ± c1 * ((upper - lower) * c2 + lower)``,
    adding where the side coin is at least 0.5; each follower then
    averages its position with its already moved predecessor,
    ``x_i <- (x_{i-1} + x_i) / 2``, one rank at a time.  ``draws`` is the
    ``(k, 2, dim)`` unit block: per chain c2, then the side coin, so the
    block of k chains is the k single-chain blocks in turn.

    The averaging runs as one accumulate: with rank i scaled by
    2^max(i-1, 0), the running sum at rank i is 2^i times the averaged
    follower, and scaling it back by 2^-i gives that follower.  Scaling by
    a power of two commutes with rounding, so every rank equals the
    rank-by-rank average bit for bit, unless a follower sum
    ``x_{i-1} + x_i`` is nonzero and below 2^-1021 in magnitude (its half
    is subnormal and rounds) or a scaled sum overflows, which takes chains
    of ~1000 members.
    """
    c2, side = draws[:, 0], draws[:, 1] >= 0.5
    step = c1 * ((upper - lower) * c2 + lower)
    ranks = chains.swapaxes(0, 1)  # (chain, k, dim): one slab per rank
    ranks[0] = np.where(side, food + step, food - step)
    up, down = _rank_scales(ranks.shape[0])
    ranks *= up
    np.add.accumulate(ranks, axis=0, out=ranks)
    ranks *= down


def local_attractor(x, food, d1, d2):
    """Random convex blend of a position and the food position.

    ``A = (r1 * x + r2 * food) / (r1 + r2)`` with ``r1 = 1 - d1`` and
    ``r2 = 1 - d2`` in (0, 1].
    """
    r1 = _ONE - d1
    r2 = _ONE - d2
    return (r1 * x + r2 * food) / (r1 + r2)


def quantum_update(x, attractor, b_l: float, bestmean, w: float, d4, dr, d3):
    """Quantum-style jump around the attractor.

    ``d4``, ``dr`` and ``d3`` are the unit draws of c4 (through the
    chaotic operator), r and the side coin c3, each mapped as ``1 - d``,
    and a caller draws them in that order.  The displacement is
    ``B * |bestmean - x| * ln(r / u)`` and is added where c3 exceeds
    ``C3_THRESHOLD``, subtracted elsewhere.  Callers clamp the result to
    the search bounds.
    """
    u = chaotic_operator(w, d4)
    r = _ONE - dr
    c3 = _ONE - d3
    step = b_l * np.abs(bestmean - x) * np.log(r / u)
    return attractor + np.where(c3 > _C3_THRESHOLD, step, -step)


def follower_chain(x, attractor, c: float) -> None:
    """Momentum following of every rank past the heads, in place on ``x``.

    ``x`` and ``attractor`` are rank-major stacks, ``(chain, ...)``; the
    first ``LEADERS_PER_CHAIN`` ranks of ``x`` have already moved.  Each
    later rank i becomes
    ``x_{i-1} + c * (A_i - x_i) + MOMENTUM * (x_{i-1} - x_{i-2})``, one
    rank at a time, reading its two predecessors as already moved.  The
    pulls ``c * (A_i - x_i)`` read only unmoved ranks, so they are one
    array step; each rank then takes
    ``(x_{i-1} + pull) + MOMENTUM * (x_{i-1} - x_{i-2})``, the same
    operations in the same order as the formula.
    """
    pulls = c * (attractor[LEADERS_PER_CHAIN:] - x[LEADERS_PER_CHAIN:])
    ranks = list(x)  # one view per rank
    step = np.empty_like(ranks[0])
    for rank, pull in enumerate(pulls, start=LEADERS_PER_CHAIN):
        prev, out = ranks[rank - 1], ranks[rank]
        np.subtract(prev, ranks[rank - 2], out=step)
        step *= _MOMENTUM
        np.add(prev, pull, out=out)
        out += step
