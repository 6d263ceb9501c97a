"""Benchmark instances: a landscape plus the machinery that changes it.

The landscapes only score; the instance makes every draw and every move.
It owns its RNG, its change counter ``t`` and an evaluation counter.  It
changes only when told: a run's clock (the budget recorder) calls
``advance_environment()`` on every ``frequency``-th evaluation, before
that evaluation is scored, and ``evaluate`` scores an ``(n, dim)`` batch
in the current environment with one landscape call.

A row whose length is not the current dimension raises
:class:`~dynopt.errors.DimensionMismatch` before the batch is counted;
under T7 the clock fits the rows a change makes stale before they get
here.

The instance remembers one row: the best row scored in the current
environment, with its value, and forgets it at each change.  After each
landscape call the batch's best row (first among ties) replaces it when
strictly better, or when none is remembered.  A one-row request whose
bytes equal the remembered row returns the remembered value and counts
one evaluation without calling the landscape.  This is how the
optimizers' change sentinel, which re-scores the best point they know,
is answered between changes.  It is exact: the landscape is a pure
function of the environment and the row, and a batch row equals its
one-row batch bit for bit, so the value is the one a call would return.
Bytes are compared, so ``-0.0`` and ``0.0`` differ.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from dynopt.errors import ConfigError, DimensionMismatch
from dynopt.gdbg.changes import DIM_MAX, DIM_MIN, ChangeType, change_values, walk_dimension
from dynopt.gdbg.composition import CompositionProblem
from dynopt.gdbg.peaks import PeakSet
from dynopt.gdbg.rotation import paired_rotation, random_orthogonal
from dynopt.objective import DynamicObjective, as_rows, fit_dimension
from dynopt.overrides import apply_overrides

# the grid's families: the peak families (maximized) and the composition
# families (minimized), each named once here
PEAK_COUNTS = {"F1(10)": 10, "F1(50)": 50}
_COMPOSITION_BASES = {
    "F2": ["sphere"] * 10,
    "F3": ["rastrigin"] * 10,
    "F4": ["griewank"] * 10,
    "F5": ["ackley"] * 10,
    "F6": ["sphere", "sphere", "rastrigin", "rastrigin", "weierstrass",
           "weierstrass", "griewank", "griewank", "ackley", "ackley"],
}
FUNCTION_IDS = (*PEAK_COUNTS, *_COMPOSITION_BASES)


# the generator's fixed constants (CEC 2009 GDBG report, Li et al. 2008);
# the composition's sigma and normaliser are constants of its module.  Each
# changing family shares its bounds and severity: the heights, the widths
# (peaks only), and the rotation angle, a family of one
SEARCH_LOWER, SEARCH_UPPER = -5.0, 5.0
HEIGHT_MIN, HEIGHT_MAX, HEIGHT_INIT, HEIGHT_SEVERITY = 10.0, 100.0, 50.0, 5.0
WIDTH_MIN, WIDTH_MAX, WIDTH_INIT, WIDTH_SEVERITY = 1.0, 10.0, 5.0, 0.5
ANGLE_MIN, ANGLE_MAX, ROTATION_SEVERITY = -math.pi, math.pi, 1.0


def resolve_frequency(change_frequency: int, dimension: int) -> int:
    """The change frequency, where 0 means the default ``10_000 * dimension``."""
    if change_frequency > 0:
        return int(change_frequency)
    return 10_000 * dimension


@dataclass(frozen=True)
class GdbgConfig:
    """The settings an instance takes by key=value; the rest are constants."""

    dimension: int = 10
    change_frequency: int = 0  # 0 means the 10_000 * dimension default


class GdbgInstance(DynamicObjective):
    """One seeded (function, change type) benchmark case."""

    def __init__(
        self,
        function_id: str,
        change_type: ChangeType,
        seed: int,
        config: GdbgConfig,
    ) -> None:
        if function_id not in FUNCTION_IDS:
            raise ConfigError(
                f"unknown function id {function_id!r}; expected one of {FUNCTION_IDS}"
            )
        if not DIM_MIN <= config.dimension <= DIM_MAX:
            raise ConfigError(f"dimension must lie in [{DIM_MIN}, {DIM_MAX}]")
        self.function_id = function_id
        self.change_type = change_type
        self.seed = int(seed)
        self.config = config
        self.rng = np.random.default_rng(self.seed)
        self.t = 0
        self.eval_count = 0
        self.frequency = resolve_frequency(config.change_frequency, config.dimension)
        self.maximize = function_id in PEAK_COUNTS
        # the best row scored in this environment (module docstring)
        self._memo_row = b""
        self._memo_value = np.zeros(1)
        # the construction draws, in order: the rotation angle's phase, the
        # centres, a composition's rotations, then the phases of the heights
        # and (peaks only) the widths.  Each changing family is (label,
        # values, phases, low, high, severity), kept in the order a change
        # draws them: heights, widths, the rotation angle
        self.rotation_angle = np.zeros(1)
        angle = self._family("rotation_angle", self.rotation_angle,
                             ANGLE_MIN, ANGLE_MAX, ROTATION_SEVERITY)
        names = _COMPOSITION_BASES.get(function_id, [])
        count = PEAK_COUNTS.get(function_id) or len(names)
        centers = self.rng.uniform(
            SEARCH_LOWER, SEARCH_UPPER, size=(count, config.dimension)
        )
        heights = np.full(count, HEIGHT_INIT)
        changing = [("height[{}]", heights, HEIGHT_MIN, HEIGHT_MAX, HEIGHT_SEVERITY)]
        if self.maximize:
            widths = np.full(count, WIDTH_INIT)
            self.problem: PeakSet | CompositionProblem = PeakSet(centers, heights, widths)
            changing.append(("width[{}]", widths, WIDTH_MIN, WIDTH_MAX, WIDTH_SEVERITY))
        else:
            matrices = random_orthogonal(count, config.dimension, self.rng)
            self.problem = CompositionProblem(
                centers, heights, names, matrices, SEARCH_LOWER, SEARCH_UPPER
            )
        self._families = (*(self._family(*spec) for spec in changing), angle)

    def _family(self, label: str, values: np.ndarray, low: float, high: float,
                severity: float) -> tuple:
        """One changing family, with its phases drawn now."""
        phases = self.rng.uniform(0.0, 2.0 * math.pi, len(values))
        return label, values, phases, low, high, severity

    # -- DynamicObjective -----------------------------------------------

    def dimension(self) -> int:
        return self.problem.dim

    def bounds(self) -> tuple[float, float]:
        return SEARCH_LOWER, SEARCH_UPPER

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Score ``xs`` in the current environment (module docstring)."""
        xs = as_rows(xs)
        d = self.problem.dim
        if xs.shape[1] != d:
            raise DimensionMismatch(f"expected rows of length {d}, got length {xs.shape[1]}")
        if xs.shape[0] == 1 and xs.tobytes() == self._memo_row:
            self.eval_count += 1
            return self._memo_value.copy()
        self.eval_count += xs.shape[0]
        values = self.problem.evaluate(xs)
        self._remember(xs, values)
        return values

    def _remember(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Keep the batch's best row if it beats the memo of this environment."""
        if self.maximize:
            i = int(values.argmax())
            better = values[i] > self._memo_value[0]
        else:
            i = int(values.argmin())
            better = values[i] < self._memo_value[0]
        if better or not self._memo_row:
            self._memo_row = rows[i].tobytes()
            self._memo_value = values[i:i + 1].copy()

    def optimum_value(self) -> float:
        return self.problem.optimum_value()

    def optimum_position(self) -> np.ndarray:
        return self.problem.optimum_position()

    # -- dynamics --------------------------------------------------------

    def advance_environment(self) -> None:
        """Move to the next environment: change every family in place,
        rotate the centres and clip them to the box, and under T7 also
        step the dimension."""
        self.t += 1
        self._memo_row = b""
        problem, rng = self.problem, self.rng
        for _, values, phases, low, high, severity in self._families:
            change_values(values, phases, low, high, severity,
                          self.change_type, rng, self.t)
        rotation = paired_rotation(problem.dim, float(self.rotation_angle[0]), rng)
        centers = problem.centers @ rotation.T
        np.clip(centers, SEARCH_LOWER, SEARCH_UPPER, out=centers)
        problem.centers = centers
        if self.change_type is ChangeType.RANDOM_DIM:
            # the dimension always moves: each centre grows by one uniform
            # coordinate or drops its last, and a composition then draws its
            # rotations afresh at the new dimension
            pad = functools.partial(rng.uniform, SEARCH_LOWER, SEARCH_UPPER)
            dim = walk_dimension(self.config.dimension, self.t)
            problem.centers = fit_dimension(centers, dim, pad)
            if isinstance(problem, CompositionProblem):
                problem.matrices = random_orthogonal(len(centers), dim, rng)
                problem.refresh_normalization()

    # -- introspection ----------------------------------------------------

    def param_lines(self) -> list[str]:
        """Snapshot all dynamic parameters as ``t,name,value`` text lines.

        Values use shortest round-trip decimals so golden files compare
        exactly across runs.  A family of one has no index in its name.
        """
        return [
            f"{self.t},{label.format(i)},{value!r}"
            for label, values, *_ in self._families
            for i, value in enumerate(values.tolist())
        ]


def make_instance(
    function_id: str,
    change_type: ChangeType | str,
    seed: int,
    overrides: dict | None = None,
) -> GdbgInstance:
    """Build a benchmark instance from a function id, regime, and seed."""
    config = apply_overrides(GdbgConfig(), overrides)
    return GdbgInstance(function_id, ChangeType(change_type), seed, config)
