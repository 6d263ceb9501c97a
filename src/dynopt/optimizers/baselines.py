"""Reference optimizers: a classic salp chain and a gbest PSO.

Both run the main optimizer's one iteration, ``SwarmBase.iterate``, with
its sentinel-based change handling, so comparisons measure search
behaviour, not bookkeeping.  Each supplies only its move and memory rules;
the PSO also keeps pbests and its velocities.  Both take their one
setting, ``population``, through the shared ``SwarmConfig``.
"""

from __future__ import annotations

import numpy as np

from dynopt.objective import DynamicObjective, fit_dimension
from dynopt.optimizers.base import SwarmBase, SwarmConfig, clip_in_place

# Clerc and Kennedy's constriction factor and the two acceleration
# coefficients it is derived with, one triple (IEEE TEVC 6(1), 2002)
CHI = 0.7298
C1 = 1.49618
C2 = 1.49618


class SsaBaseline(SwarmBase):
    """Single-chain salp swarm: one leader orbits the food, the rest average.

    Memory is just the food position; on a detected change it is re-scored
    and the leader's shrinking orbit restarts.
    """

    def move(self) -> None:
        self.salp_step(1)

    def remember(self) -> None:
        self.promote(self.positions, self.fitness)


class PsoBaseline(SwarmBase):
    """Global-best PSO with an inertia-style constriction and pbest memory."""

    keeps_pbests = True

    def __init__(
        self,
        problem: DynamicObjective,
        seed: int,
        budget: int,
        config: SwarmConfig | None = None,
    ) -> None:
        super().__init__(problem, seed, budget, config)
        self.velocities = np.zeros((self.n, self.dim))
        # the gains and the velocity clip as 0-d operands, as the box is
        self._gains = tuple(np.array(v) for v in (CHI, C1, C2))
        span = self.upper - self.lower
        self._velocity_box = (np.array(-span), np.array(span))

    def move(self) -> None:
        if self.velocities.shape[1] != self.dim:
            # a T7 step: zero velocity in a new coordinate
            self.velocities = fit_dimension(self.velocities, self.dim)
        chi, c1, c2 = self._gains
        r1, r2 = self.rng.random((2, self.n, self.dim))
        self.velocities = (
            chi * self.velocities
            + c1 * r1 * (self.pbest_positions - self.positions)
            + c2 * r2 * (self.food_position - self.positions)
        )
        clip_in_place(self.velocities, *self._velocity_box)
        self.positions = self.positions + self.velocities

    def remember(self) -> None:
        self.update_pbests()
        self.promote(self.pbest_positions, self.pbest_fitness)
