"""Benchmark instances: a landscape plus the machinery that changes it.

An instance owns its RNG, its change counter ``t``, and an evaluation
counter.  Evaluations drive time: when the counter crosses a multiple of
the change frequency the environment advances first and the crossing call
already sees the new landscape.

``evaluate`` takes an ``(n, dim)`` batch and cuts it at change
boundaries: the rows before a crossing are scored on the old landscape in
one call, the crossing row on the new one, and the rows after it in
further calls, so values and counters equal those of a loop of one-row
calls.

Under T7 a change also moves the dimension by one, usually in the middle
of a population sweep, so the rest of the population still holds vectors
of an old length.  When changes come faster than the optimizer's
iterations, two may fall inside one sweep.  The dimension rule: a row
whose length is the dimension just before the latest change, or the
dimension the caller last read from ``dimension()``, is fitted to the
current one, truncated to its leading coordinates when the dimension
shrank and zero-padded when it grew.  The crossing call is fitted the
same way.  Every other length raises
:class:`~dynopt.errors.DimensionMismatch`.

The instance remembers one row: the best row scored in the current
environment, with its value.  After each landscape segment the segment's
best row (first among ties) replaces it when strictly better, or when
``t`` has moved since it was set.  A one-row request whose bytes equal the
remembered row, made while ``t`` is unchanged and on a row where no change
lands, returns the remembered value and counts one evaluation without
calling the landscape.  This is how the optimizers' change sentinel, which
re-scores the best point they know, is answered between changes.  It is
exact: the landscape is a pure function of the environment and the row,
and a batch row equals its one-row batch bit for bit, so the value is
the one a call would return.  Bytes are compared, so ``-0.0`` and ``0.0``
differ and a row of another length never matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dynopt.errors import ConfigError, DimensionMismatch
from dynopt.gdbg.changes import ChangeType, DimensionWalk, change_values
from dynopt.gdbg.composition import CompositionProblem
from dynopt.gdbg.peaks import PeakSet
from dynopt.gdbg.rotation import paired_rotation, random_orthogonal
from dynopt.objective import DynamicObjective, as_rows
from dynopt.overrides import apply_overrides

FUNCTION_IDS = ("F1(10)", "F1(50)", "F2", "F3", "F4", "F5", "F6")

_COMPOSITION_BASES = {
    "F2": ["sphere"] * 10,
    "F3": ["rastrigin"] * 10,
    "F4": ["griewank"] * 10,
    "F5": ["ackley"] * 10,
    "F6": ["sphere", "sphere", "rastrigin", "rastrigin", "weierstrass",
           "weierstrass", "griewank", "griewank", "ackley", "ackley"],
}


# the generator's fixed constants (CEC 2009 GDBG report, Li et al. 2008);
# the composition's sigma and normaliser are constants of its module.  Each
# changing family shares its bounds and severity: the heights, the widths,
# and the rotation angle, a family of one
SEARCH_LOWER, SEARCH_UPPER = -5.0, 5.0
PEAK_COUNTS = {"F1(10)": 10, "F1(50)": 50}
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

    def resolved_frequency(self) -> int:
        return resolve_frequency(self.change_frequency, self.dimension)


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
        if not 5 <= config.dimension <= 15:
            raise ConfigError("dimension must lie in [5, 15]")
        self.function_id = function_id
        self.change_type = change_type
        self.seed = int(seed)
        self.config = config
        self.rng = np.random.default_rng(self.seed)
        self.t = 0
        self.eval_count = 0
        self.frequency = config.resolved_frequency()
        self._walk = DimensionWalk(config.dimension)
        self._previous_dim = config.dimension
        self._read_dim = config.dimension
        # the best row scored in environment ``_memo_t`` (module docstring)
        self._memo_t = -1
        self._memo_row = b""
        self._memo_value = np.zeros(1)
        # each changing family is a value array with a phase array beside it
        self.rotation_angle = np.zeros(1)
        self._angle_phases = self._phases(1)
        if function_id.startswith("F1"):
            self.problem: PeakSet | CompositionProblem = self._build_peaks()
        else:
            self.problem = self._build_composition()

    # -- construction ---------------------------------------------------

    def _phases(self, count: int) -> np.ndarray:
        return self.rng.uniform(0.0, 2.0 * math.pi, count)

    def _build_peaks(self) -> PeakSet:
        count = PEAK_COUNTS[self.function_id]
        centers = self.rng.uniform(
            SEARCH_LOWER, SEARCH_UPPER, size=(count, self.config.dimension)
        )
        self._height_phases = self._phases(count)
        self._width_phases = self._phases(count)
        return PeakSet(
            centers,
            np.full(count, HEIGHT_INIT),
            np.full(count, WIDTH_INIT),
            SEARCH_LOWER,
            SEARCH_UPPER,
        )

    def _build_composition(self) -> CompositionProblem:
        names = _COMPOSITION_BASES[self.function_id]
        optima = self.rng.uniform(
            SEARCH_LOWER, SEARCH_UPPER, size=(len(names), self.config.dimension)
        )
        matrices = random_orthogonal(len(names), self.config.dimension, self.rng)
        self._height_phases = self._phases(len(names))
        return CompositionProblem(
            optima,
            np.full(len(names), HEIGHT_INIT),
            names,
            matrices,
            SEARCH_LOWER,
            SEARCH_UPPER,
        )

    # -- DynamicObjective -----------------------------------------------

    def dimension(self) -> int:
        self._read_dim = self.problem.dim
        return self._read_dim

    def bounds(self) -> tuple[float, float]:
        return SEARCH_LOWER, SEARCH_UPPER

    @property
    def maximize(self) -> bool:
        return self.function_id.startswith("F1")

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        xs = as_rows(xs)
        if (
            xs.shape[0] == 1
            and self._memo_t == self.t
            and (self.eval_count + 1) % self.frequency
            and xs.tobytes() == self._memo_row
        ):
            self.eval_count += 1
            return self._memo_value.copy()
        segments = []
        pos = 0
        while pos < xs.shape[0]:
            # the length is checked before each segment, as a loop of
            # single calls would check it before each evaluation
            rows = self._fit_dimension(xs[pos:])
            if (self.eval_count + 1) % self.frequency == 0:
                self.eval_count += 1
                self.advance_environment()
                # the crossing call is already scored in the new environment
                rows = self._fit_dimension(rows[:1])
            else:
                rows = rows[: self.evals_to_change()]
                self.eval_count += rows.shape[0]
            segments.append(self.problem.evaluate(rows))
            self._remember(rows, segments[-1])
            pos += rows.shape[0]
        return segments[0] if len(segments) == 1 else np.concatenate(segments)

    def _remember(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Keep the segment's best row if it beats the memo of this environment."""
        if self.maximize:
            i = int(values.argmax())
            better = values[i] > self._memo_value[0]
        else:
            i = int(values.argmin())
            better = values[i] < self._memo_value[0]
        if better or self._memo_t != self.t:
            self._memo_t = self.t
            self._memo_row = rows[i].tobytes()
            self._memo_value = values[i:i + 1].copy()

    def evals_to_change(self) -> int:
        left = self.frequency - 1 - self.eval_count % self.frequency
        return left or self.frequency

    def _fit_dimension(self, xs: np.ndarray) -> np.ndarray:
        """Fit rows of a stale length to the current dimension (module docstring)."""
        d = self.problem.dim
        length = xs.shape[1]
        if length == d:
            return xs
        if length not in (self._previous_dim, self._read_dim):
            raise DimensionMismatch(
                f"expected rows of length {d}, got length {length}"
            )
        if length > d:
            return xs[:, :d]
        return np.hstack([xs, np.zeros((xs.shape[0], d - length))])

    def optimum_value(self) -> float:
        return self.problem.optimum_value()

    def optimum_position(self) -> np.ndarray:
        return self.problem.optimum_position()

    def change_count(self) -> int:
        return self.t

    # -- dynamics --------------------------------------------------------

    def advance_environment(self) -> None:
        """Move to the next environment: change the heights, the widths and
        the rotation angle in place, rotate positions, and under T7 also step
        the dimension."""
        self.t += 1
        kind, rng, t = self.change_type, self.rng, self.t
        problem = self.problem
        change_values(
            problem.heights, self._height_phases,
            HEIGHT_MIN, HEIGHT_MAX, HEIGHT_SEVERITY, kind, rng, t,
        )
        if isinstance(problem, PeakSet):
            change_values(
                problem.widths, self._width_phases,
                WIDTH_MIN, WIDTH_MAX, WIDTH_SEVERITY, kind, rng, t,
            )
        change_values(
            self.rotation_angle, self._angle_phases,
            ANGLE_MIN, ANGLE_MAX, ROTATION_SEVERITY, kind, rng, t,
        )
        rotation = paired_rotation(problem.dim, float(self.rotation_angle[0]), rng)
        if isinstance(problem, PeakSet):
            problem.rotate_centers(rotation)
        else:
            problem.rotate_optima(rotation)
        self._previous_dim = problem.dim
        if kind is ChangeType.RANDOM_DIM:
            problem.resize(self._walk.step(), rng)

    # -- introspection ----------------------------------------------------

    def param_lines(self) -> list[str]:
        """Snapshot all dynamic parameters as ``t,name,value`` text lines.

        Values use shortest round-trip decimals so golden files compare
        exactly across runs.
        """
        lines = [
            f"{self.t},height[{i}],{value!r}"
            for i, value in enumerate(self.problem.heights.tolist())
        ]
        if isinstance(self.problem, PeakSet):
            lines += [
                f"{self.t},width[{i}],{value!r}"
                for i, value in enumerate(self.problem.widths.tolist())
            ]
        lines.append(f"{self.t},rotation_angle,{float(self.rotation_angle[0])!r}")
        return lines


def make_instance(
    function_id: str,
    change_type: ChangeType | str,
    seed: int,
    overrides: dict | None = None,
) -> GdbgInstance:
    """Build a benchmark instance from a function id, regime, and seed."""
    if isinstance(change_type, str):
        change_type = ChangeType.from_label(change_type)
    config = apply_overrides(GdbgConfig(), overrides)
    return GdbgInstance(function_id, change_type, seed, config)
