"""Multi-population quantum-behaved chaotic salp swarm optimizer.

The swarm is split into equal chains.  The first iteration of every
environment bootstraps each chain with the classic salp rules; afterwards
the two chain heads make quantum-style jumps around a randomized attractor
between themselves and the food source, while the rest of the chain follows
its predecessor with momentum.  An aging policy recycles stale salps, and an
overlap search both probes around each chain's best and re-seeds chains that
crowd the same basin.  A sentinel re-evaluation of the food position detects
environment changes; on a change all memory is re-scored and the iteration
schedule restarts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from dynopt.errors import ConfigError
from dynopt.objective import DynamicObjective
from dynopt.optimizers import rules
from dynopt.optimizers.base import SwarmBase, SwarmConfig, clip_in_place

# an overlap probe's spread around its chain's best, as a share of the box
PROBE_SIGMA_SCALE = 0.1


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an ``(n, dim)`` array.

    Equal bit for bit to ``np.linalg.norm`` of each row: both take the
    square root of the row's dot product with itself, summed in the same
    order.  An elementwise square-and-sum may round differently.
    """
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


@functools.cache
def _diagonal(dim: int, span: float) -> float:
    """Length of the diagonal of a ``dim``-cube of side ``span``."""
    return float(np.linalg.norm(np.full(dim, span)))


@dataclass(frozen=True)
class QcssoConfig(SwarmConfig):
    """The settings a run may vary; each accepts a flat key=value override."""

    subpopulations: int = 5
    w_mode: str = "fixed"  # "fixed" or "chaotic"
    max_age_limit: int = 30
    min_age_limit: int = 10
    reinit_probability: float = 0.1
    exclusion_radius: float = 0.0  # 0 means 0.1 * ||upper - lower||

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.subpopulations < 1:
            raise ConfigError("subpopulations must be at least 1")
        if self.population % self.subpopulations != 0:
            raise ConfigError("population must split evenly into subpopulations")
        if self.w_mode not in ("fixed", "chaotic"):
            raise ConfigError("w_mode must be 'fixed' or 'chaotic'")
        if not 0 <= self.min_age_limit <= self.max_age_limit:
            raise ConfigError("min_age_limit must lie in [0, max_age_limit]")
        if not 0.0 <= self.reinit_probability <= 1.0:  # NaN fails too
            raise ConfigError("reinit_probability must lie in [0, 1]")
        if not self.exclusion_radius >= 0.0:  # NaN fails too
            raise ConfigError("exclusion_radius must be at least 0")


class Qcsso(SwarmBase):
    """See module docstring.  Drive with ``iterate()`` under a budget guard."""

    config_type = QcssoConfig
    keeps_pbests = True

    def __init__(
        self,
        problem: DynamicObjective,
        seed: int,
        budget: int,
        config: QcssoConfig | None = None,
    ) -> None:
        super().__init__(problem, seed, budget, config)
        self.k = self.config.subpopulations
        self.chain = self.n // self.k
        # member indices, one row per chain
        self._chains = np.arange(self.n).reshape(self.k, self.chain)
        self._pairs = np.triu_indices(self.k, 1)
        # the inertia weight: fixed, or the logistic map's state
        self._w = rules.W_FIXED if self.config.w_mode == "fixed" else rules.W_INIT
        self._probe_sigma = PROBE_SIGMA_SCALE * (self.upper - self.lower)

        self.ages = np.zeros(self.n, dtype=int)

    # -- configuration-derived quantities ---------------------------------

    @property
    def _exclusion_radius(self) -> float:
        """The set radius, or by default a tenth of the box's diagonal."""
        return self.config.exclusion_radius or 0.1 * _diagonal(
            self.dim, self.upper - self.lower
        )

    def probes_per_iteration(self) -> int:
        """One overlap-search probe per chain."""
        return self.config.subpopulations

    def subpop_best_indices(self) -> np.ndarray:
        """The index of each chain's best pbest, the first one on ties."""
        best = self.pbest_fitness.reshape(self.k, self.chain).argmin(axis=1)
        return self._chains[:, 0] + best

    # -- iteration pieces ------------------------------------------------------

    def swarm_update(self) -> None:
        """Quantum jumps for the chain heads, momentum following for the rest.

        All chains move at once.  The unit draws come in the shapes of the
        arrays they feed: r1 and r2 for every member's attractor as one
        ``(2, k, chain, dim)`` draw, then c4, r and c3 for every head's jump
        as one ``(3, k, heads, dim)`` draw.  Attractors and head jumps are
        one array step each; ``rules.follower_chain`` then moves the
        followers one rank at a time across the chains.  At the window's
        horizon, where the schedule holds, B = C = 0.
        """
        k, chain, dim = self.k, self.chain, self.dim
        heads = min(rules.LEADERS_PER_CHAIN, chain)
        d1, d2 = self.rng.random((2, k, chain, dim))
        d4, dr, d3 = self.rng.random((3, k, heads, dim))

        x = self.positions.reshape(k, chain, dim)
        attractor = rules.local_attractor(x, self.food_position, d1, d2)
        # the mean of the pbests, as ``mean(axis=0)`` computes it
        best_mean = np.add.reduce(self.pbest_positions, axis=0) / self.n
        heads_moved = rules.quantum_update(
            x[:, :heads], attractor[:, :heads],
            rules.contraction_expansion(self.l_window, self.max_iterations),
            best_mean, self._w, d4, dr, d3,
        )
        # rank-major, so that each rank's slab across the chains is one
        # contiguous (k, dim) block
        ranks = x.swapaxes(0, 1).copy()
        ranks[:heads] = heads_moved.swapaxes(0, 1)
        rules.follower_chain(
            ranks, attractor.swapaxes(0, 1),
            rules.follower_coefficient(self.l_window, self.max_iterations),
        )
        self.positions = ranks.swapaxes(0, 1).reshape(self.n, dim)

    def overlap_search(self, bests: np.ndarray) -> list[int]:
        """Probe around each chain's best, enforce inter-chain exclusion,
        and return the recycled chains in order.

        ``bests`` holds each chain's best index, as ``subpop_best_indices``
        gives it, and stays so: an accepted probe is strictly better than
        its chain's best, so it improves that member in place, and a
        recycled chain's best becomes its first member, updated here.  The
        chain holding the best of the bests holds the global best; after
        the probes it becomes the food, and it is never recycled, by
        exclusion or by aging, so the food stays the best pbest for the
        rest of the iteration.
        """
        # one (k, dim) draw equals k sequential draws of dim
        noise = self.rng.standard_normal((self.k, self.dim))
        probes = self.pbest_positions.take(bests, axis=0) + noise * self._probe_sigma
        clip_in_place(probes, *self._box)
        values = self.score(probes)
        accepted = values < self.pbest_fitness[bests]
        if np.count_nonzero(accepted):
            self.pbest_positions[bests[accepted]] = probes[accepted]
            self.pbest_fitness[bests[accepted]] = values[accepted]
        centres = self.pbest_positions.take(bests, axis=0)
        fitness = self.pbest_fitness[bests]
        protected = fitness.argmin()
        self.food_position = centres[protected]
        self.food_fitness = float(fitness[protected])
        # exclusion: of two chains a < b whose bests share a basin, the
        # worse restarts, b on a tie; the chain holding the global best is
        # the first best, so it never loses a pair
        scores = fitness.tolist()
        doomed = {a if scores[b] < scores[a] else b
                  for a, b in self._close_pairs(centres)}
        excluded = sorted(doomed)
        if excluded:
            chains = self._chains[excluded]
            # one draw for all doomed chains equals one draw per chain in order
            fresh = self.rng.uniform(
                self.lower, self.upper, size=(chains.size, self.dim)
            )
            self._reinit_members(chains.ravel(), fresh)
            bests[excluded] = chains[:, 0]
        return excluded

    def _close_pairs(self, centres: np.ndarray) -> list[tuple[int, int]]:
        """The chain pairs ``(a, b)``, a < b, whose bests lie within the radius.

        ``centres`` holds the position of each chain's best, one row per chain.
        """
        a, b = self._pairs
        diff = centres.take(a, axis=0) - centres.take(b, axis=0)
        close = row_norms(diff) < self._exclusion_radius
        return list(zip(a[close].tolist(), b[close].tolist()))

    def _reinit_members(self, members: np.ndarray, fresh: np.ndarray) -> None:
        """Restart ``members`` at the rows of ``fresh`` with empty memory."""
        self.positions[members] = fresh
        self.pbest_positions[members] = fresh
        self.pbest_fitness[members] = np.inf
        self.ages[members] = 0

    def aging_step(self, bests: np.ndarray) -> list[int]:
        """Recycle stale salps and return them in index order; the
        global-best holder is never touched.

        ``bests`` holds each chain's best index, as ``subpop_best_indices``
        gives it.  A member past its age limit (the longer one for a chain
        best) flips a coin, in index order, and is recycled when it lands
        under the reinit probability; every other member ages by one.

        The stream is one ``random()`` coin per candidate, as one draw, then
        one ``uniform`` draw of ``(recycled, dim)`` in the box for the
        recycled members' fresh positions, in index order.
        """
        cfg = self.config
        ages = self.ages
        protected = bests[self.pbest_fitness[bests].argmin()]
        stale = ages > cfg.min_age_limit
        stale[bests] = ages[bests] > cfg.max_age_limit
        stale[protected] = False
        candidates = stale.nonzero()[0]
        ages += 1
        ages[protected] -= 1
        coins = self.rng.random(candidates.size)
        recycled = candidates[coins < cfg.reinit_probability]
        fresh = self.rng.uniform(self.lower, self.upper, size=(recycled.size, self.dim))
        self._reinit_members(recycled, fresh)
        return recycled.tolist()

    # -- the two hooks of ``SwarmBase.iterate`` --------------------------------

    def move(self) -> None:
        if self.l_window == 0:  # the classic salp rules bootstrap each window
            self.salp_step(self.k)
        else:
            self.swarm_update()

    def remember(self) -> None:
        # the pbest refresh leaves the food as it was: nothing reads it
        # before ``overlap_search``, which refreshes it once, after its probes
        self.update_pbests()
        bests = self.subpop_best_indices()
        self.overlap_search(bests)
        self.aging_step(bests)
        if self.config.w_mode == "chaotic":
            self._w = rules.logistic_step(self._w)
