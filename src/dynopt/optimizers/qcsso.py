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

from dataclasses import dataclass

import numpy as np

from dynopt.errors import ConfigError
from dynopt.objective import DynamicObjective
from dynopt.optimizers import rules
from dynopt.optimizers.base import SwarmBase


@dataclass(frozen=True)
class QcssoConfig:
    """Tunable constants; every field accepts a flat key=value override."""

    population: int = 50
    subpopulations: int = 5
    leaders_per_chain: int = 2
    w_mode: str = "fixed"  # "fixed" or "chaotic"
    w_fixed: float = 0.96
    w_init: float = 0.70
    momentum: float = 0.5
    c3_threshold: float = 0.5
    max_age_limit: int = 30
    min_age_limit: int = 10
    reinit_probability: float = 0.1
    exclusion_radius: float = 0.0  # 0 means 0.1 * ||upper - lower||
    probe_sigma_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.population % self.subpopulations != 0:
            raise ConfigError("population must split evenly into subpopulations")
        if self.w_mode not in ("fixed", "chaotic"):
            raise ConfigError("w_mode must be 'fixed' or 'chaotic'")
        if not 0.0 < self.w_init < 1.0:
            raise ConfigError("w_init must lie inside (0, 1)")
        if not 0.0 < self.w_fixed < 1.0:
            raise ConfigError("w_fixed must lie inside (0, 1)")


@dataclass
class IterationContext:
    """Per-iteration coefficients shared by all update rules."""

    l: int
    max_iterations: int
    w: float
    b_l: float
    c: float
    best_mean: np.ndarray
    food_position: np.ndarray
    food_fitness: float


class Qcsso(SwarmBase):
    """See module docstring.  Drive with ``iterate()`` under a budget guard."""

    def __init__(
        self,
        problem: DynamicObjective,
        seed: int,
        budget: int,
        frequency: int | None = None,
        config: QcssoConfig | None = None,
    ) -> None:
        self.config = config or QcssoConfig()
        cfg = self.config
        super().__init__(
            problem,
            seed,
            cfg.population,
            budget,
            frequency,
            evals_per_iteration=cfg.population + cfg.subpopulations + 1,
        )
        self.k = cfg.subpopulations
        self.chain = self.n // self.k
        self._chains = [
            np.arange(c * self.chain, (c + 1) * self.chain) for c in range(self.k)
        ]
        self._w_state = cfg.w_init

        self.start_memory(pbests=True)
        self.ages = np.zeros(self.n, dtype=int)
        self.context: IterationContext | None = None
        # per-iteration observability, mainly for tests
        self.last_aging_reinits: list[int] = []
        self.last_excluded_subpops: list[int] = []
        self.last_change_detected = False

    # -- configuration-derived quantities ---------------------------------

    def exclusion_radius(self) -> float:
        if self.config.exclusion_radius > 0:
            return self.config.exclusion_radius
        return 0.1 * float(np.linalg.norm(self.upper - self.lower))

    def probe_sigma(self) -> np.ndarray:
        return self.config.probe_sigma_scale * (self.upper - self.lower)

    def subpop_best_indices(self) -> list[int]:
        return [
            int(members[self.argbest(self.pbest_fitness[members])])
            for members in self._chains
        ]

    def global_best_index(self) -> int:
        return self.argbest(self.pbest_fitness)

    # -- iteration pieces ------------------------------------------------------

    def make_context(self) -> IterationContext:
        l_eff = min(self.l_window, self.max_iterations)
        w = self.config.w_fixed if self.config.w_mode == "fixed" else self._w_state
        return IterationContext(
            l=self.l_window,
            max_iterations=self.max_iterations,
            w=w,
            b_l=rules.contraction_expansion(l_eff, self.max_iterations),
            c=rules.follower_coefficient(l_eff, self.max_iterations),
            best_mean=self.pbest_positions.mean(axis=0),
            food_position=self.food_position.copy(),
            food_fitness=self.food_fitness,
        )

    def ssa_bootstrap(self, ctx: IterationContext) -> None:
        """Classic salp chain rules, used on the first iteration of a window."""
        c1 = rules.salp_coefficient(ctx.l, ctx.max_iterations)
        for members in self._chains:
            rules.salp_chain(
                self.positions, members, ctx.food_position,
                self.lower, self.upper, c1, self.rng,
            )

    def swarm_update(self, ctx: IterationContext) -> None:
        """Quantum jumps for the chain heads, momentum following for the rest."""
        cfg = self.config
        for members in self._chains:
            for rank, idx in enumerate(members):
                x = self.positions[idx]
                attractor = rules.local_attractor(x, ctx.food_position, self.rng)
                if rank < cfg.leaders_per_chain:
                    self.positions[idx] = rules.quantum_update(
                        x, attractor, ctx.b_l, ctx.best_mean, ctx.w, self.rng,
                        cfg.c3_threshold,
                    )
                else:
                    self.positions[idx] = rules.follower_update(
                        x,
                        self.positions[members[rank - 1]],
                        self.positions[members[rank - 2]],
                        attractor,
                        ctx.c,
                        cfg.momentum,
                    )

    def update_memory(self) -> None:
        """Refresh pbests and the food position."""
        self.update_pbests()
        self._refresh_food()

    def _refresh_food(self) -> None:
        best = self.argbest(self.pbest_fitness)
        self.food_position = self.pbest_positions[best].copy()
        self.food_fitness = float(self.pbest_fitness[best])

    def overlap_search(self) -> None:
        """Probe around each chain's best, then enforce inter-chain exclusion."""
        sigma = self.probe_sigma()
        bests = self.subpop_best_indices()
        # one (k, dim) draw equals k sequential draws of dim
        noise = self.rng.standard_normal((len(bests), self.dim))
        probes = self.pbest_positions[bests] + noise * sigma
        np.clip(probes, self.lower, self.upper, out=probes)
        values = self.eval_rows(probes)
        for idx, probe, value in zip(bests, probes, values):
            if self.better(float(value), float(self.pbest_fitness[idx])):
                self.pbest_positions[idx] = probe
                self.pbest_fitness[idx] = value
        # exclusion: chains whose bests share a basin restart, except the
        # chain holding the global best which is never recycled
        bests = self.subpop_best_indices()
        protected = self.global_best_index()
        radius = self.exclusion_radius()
        doomed: set[int] = set()
        for a in range(self.k):
            for b in range(a + 1, self.k):
                pa, pb = bests[a], bests[b]
                dist = float(np.linalg.norm(self.pbest_positions[pa] - self.pbest_positions[pb]))
                if dist >= radius:
                    continue
                if self.better(float(self.pbest_fitness[pa]), float(self.pbest_fitness[pb])):
                    worse = b
                elif self.better(float(self.pbest_fitness[pb]), float(self.pbest_fitness[pa])):
                    worse = a
                else:
                    worse = max(a, b)
                if protected in self._chains[worse]:
                    worse = a if worse == b else b
                    if protected in self._chains[worse]:
                        continue
                doomed.add(worse)
        self.last_excluded_subpops = sorted(doomed)
        for c in doomed:
            self._reinit_members(self._chains[c])
        if doomed:
            self._refresh_food()

    def _reinit_members(self, members: np.ndarray) -> None:
        fresh = self.rng.uniform(self.lower, self.upper, size=(len(members), self.dim))
        self.positions[members] = fresh
        self.pbest_positions[members] = fresh
        self.pbest_fitness[members] = self.worst_value
        self.ages[members] = 0

    def aging_step(self) -> list[int]:
        """Recycle stale salps; the global-best holder is never touched."""
        cfg = self.config
        protected = self.global_best_index()
        best_set = set(self.subpop_best_indices())
        reinited: list[int] = []
        for i in range(self.n):
            if i == protected:
                continue
            limit = cfg.max_age_limit if i in best_set else cfg.min_age_limit
            if self.ages[i] > limit and self.rng.random() < cfg.reinit_probability:
                self._reinit_members(np.array([i]))
                reinited.append(i)
            else:
                self.ages[i] += 1
        self.last_aging_reinits = reinited
        return reinited

    # -- one full iteration -----------------------------------------------------

    def iterate(self) -> None:
        self.sync_dimension()
        self.last_change_detected = self.detect_change()
        ctx = self.make_context()
        self.context = ctx
        if self.l_window == 0:
            self.ssa_bootstrap(ctx)
        else:
            self.swarm_update(ctx)
        self.clamp_positions()
        self.evaluate_all()
        self.update_memory()
        self.overlap_search()
        self.aging_step()
        self._refresh_food()
        if self.config.w_mode == "chaotic":
            self._w_state = rules.logistic_step(self._w_state)
        self.l_window += 1
        self.iterations += 1
