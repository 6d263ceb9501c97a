"""Shared plumbing for the swarm optimizers.

Each optimizer runs against a :class:`~dynopt.objective.DynamicObjective`
(in a run, through the budget recorder that fires its changes), owns one
RNG, and survives both landscape changes and dimension changes mid-run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from dynopt.errors import ConfigError
from dynopt.objective import DynamicObjective, fit_dimension
from dynopt.optimizers import rules

CHANGE_TOLERANCE = 1e-12


def clip_in_place(rows: np.ndarray, lower: float, upper: float) -> None:
    """Clip ``rows`` into ``[lower, upper]`` in place.

    Equal bit for bit to ``np.clip(rows, lower, upper, out=rows)``, NaN,
    infinities and signed zeros included, without ``np.clip``'s Python
    wrappers.  The bound goes first: on equal zeros of opposite sign
    ``maximum`` and ``minimum`` return their second operand, which is the
    one ``np.clip`` keeps.
    """
    np.maximum(lower, rows, out=rows)
    np.minimum(upper, rows, out=rows)


@dataclass(frozen=True)
class SwarmConfig:
    """The setting every swarm shares; each swarm's config extends it."""

    population: int = 50

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ConfigError("population must be at least 1")


class SwarmBase:
    """Population state and the one change-handling iteration.

    Every swarm keeps a food source: the best position it knows,
    ``food_position`` with its value ``food_fitness`` (the gbest of a
    PSO).  Re-evaluating it each iteration is the change sentinel.  Swarms
    with per-member memory (``keeps_pbests``) also keep ``pbest_positions``
    and ``pbest_fitness``; on a change that memory is re-scored.

    ``iterate`` is the one sequence every optimizer runs: sentinel, move,
    clamp, score, remember.  A subclass supplies the two hooks, ``move``
    (its search rule) and ``remember`` (its memory rule), and names its
    ``config_type`` only when it takes more settings than the shared
    ``SwarmConfig``; the constructor builds everything else from the config
    and scores the initial population.  ``sync_dimension`` fits the shared
    state to a T7 step; a subclass fits any further per-dimension state
    where it reads it.
    """

    config_type: type = SwarmConfig
    keeps_pbests = False
    pbest_positions: np.ndarray | None = None
    pbest_fitness: np.ndarray | None = None

    def __init__(
        self,
        problem: DynamicObjective,
        seed: int,
        budget: int,
        config=None,
    ) -> None:
        self.config = config or self.config_type()
        self.problem = problem
        self.rng = np.random.default_rng(int(seed))
        self.n = int(self.config.population)
        self.maximize = problem.maximize
        self.dim = problem.dimension()
        # one box for every coordinate, whatever the dimension
        lower, upper = problem.bounds()
        self.lower, self.upper = float(lower), float(upper)
        # the clips take the pair as 0-d arrays: a Python float operand costs
        # numpy 2 a conversion on every call, a 0-d array does not (same
        # bits); the draws keep the floats, which take ``uniform``'s scalar path
        self._box = (np.array(self.lower), np.array(self.upper))
        window = int(problem.frequency or budget)
        # an iteration scores the population, the sentinel and any probes
        per_iteration = self.n + 1 + self.probes_per_iteration()
        self.max_iterations = max(1, window // per_iteration)
        self.l_window = 0
        self._dim_changed = False
        self.last_change_detected = False

        self.positions = self.rng.uniform(
            self.lower, self.upper, size=(self.n, self.dim)
        )
        self.fitness = np.empty(self.n)
        self.worst_value = -math.inf if self.maximize else math.inf
        self.start_memory()

    def probes_per_iteration(self) -> int:
        """Evaluations an iteration spends beyond the population and sentinel."""
        return 0

    # -- sense helpers ----------------------------------------------------

    def better(self, a, b):
        """Strict improvement of ``a`` over ``b``; elementwise on arrays."""
        return a > b if self.maximize else a < b

    def argbest(self, values: np.ndarray) -> int:
        return int(values.argmax() if self.maximize else values.argmin())

    # -- evaluation -------------------------------------------------------

    def evaluate_all(self) -> None:
        self.fitness[:] = self.problem.evaluate(self.positions)

    def salp_step(self, chains: int) -> None:
        """Move the population as ``chains`` equal classic salp chains."""
        l_eff = min(self.l_window, self.max_iterations)
        rules.salp_chain(
            self.positions.reshape(chains, -1, self.dim), self.food_position,
            self.lower, self.upper,
            rules.salp_coefficient(l_eff, self.max_iterations),
            self.rng.random((chains, 2, self.dim)),
        )

    # -- memory -------------------------------------------------------------

    def start_memory(self) -> None:
        """Score the initial population; its best member becomes the food."""
        self.evaluate_all()
        if self.keeps_pbests:
            self.pbest_positions = self.positions.copy()
            self.pbest_fitness = self.fitness.copy()
        best = self.argbest(self.fitness)
        self.food_position = self.positions[best].copy()
        self.food_fitness = float(self.fitness[best])

    def update_pbests(self) -> np.ndarray:
        """Copy each strictly improved member into its pbest; return the mask."""
        improved = self.better(self.fitness, self.pbest_fitness)
        np.copyto(self.pbest_fitness, self.fitness, where=improved)
        np.copyto(self.pbest_positions, self.positions, where=improved[:, None])
        return improved

    def promote(self, positions: np.ndarray, values: np.ndarray) -> None:
        """Make the best row the food source if it is strictly better."""
        best = self.argbest(values)
        if self.better(float(values[best]), self.food_fitness):
            self.food_position = positions[best].copy()
            self.food_fitness = float(values[best])

    def detect_change(self) -> bool:
        """Sentinel re-evaluation of the food position, once per iteration.

        On a change the food takes its new value, any pbest memory is
        re-scored and may replace it, and the iteration schedule restarts.
        """
        sentinel = float(self.problem.evaluate(self.food_position[None, :])[0])
        changed = self._dim_changed or abs(sentinel - self.food_fitness) > CHANGE_TOLERANCE
        self._dim_changed = False
        if changed:
            self.food_fitness = sentinel
            if self.pbest_positions is not None:
                self.pbest_fitness[:] = self.problem.evaluate(self.pbest_positions)
                self.promote(self.pbest_positions, self.pbest_fitness)
            self.l_window = 0
        return changed

    # -- dimension adaptation ----------------------------------------------

    def sync_dimension(self) -> None:
        """Fit the positions, pbests and food, in that order, to a moved
        dimension; a new coordinate is a uniform draw in the box."""
        new_dim = self.problem.dimension()
        if new_dim == self.dim:
            return
        self.dim = new_dim
        pad = functools.partial(self.rng.uniform, self.lower, self.upper)
        self.positions = fit_dimension(self.positions, new_dim, pad)
        if self.pbest_positions is not None:
            self.pbest_positions = fit_dimension(self.pbest_positions, new_dim, pad)
        self.food_position = fit_dimension(self.food_position[None, :], new_dim, pad)[0]
        self._dim_changed = True

    # -- run loop -----------------------------------------------------------

    def move(self) -> None:  # pragma: no cover - abstract
        """Take the population's next positions: the search rule."""
        raise NotImplementedError

    def remember(self) -> None:  # pragma: no cover - abstract
        """Fold the scored population into the memory and the food."""
        raise NotImplementedError

    def iterate(self) -> None:
        """One iteration: sentinel, move, clamp, score, remember."""
        self.sync_dimension()
        self.last_change_detected = self.detect_change()
        self.move()
        clip_in_place(self.positions, *self._box)
        self.evaluate_all()
        self.remember()
        self.l_window += 1
