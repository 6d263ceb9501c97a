"""Shared test helpers: a scripted RNG stand-in and controllable problems."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import pytest

from dynopt.errors import DimensionMismatch
from dynopt.harness.experiment import ExperimentResult, run_experiment
from dynopt.objective import DynamicObjective, as_rows


class FakeRng:
    """Drop-in replacement for numpy's Generator with scripted draws.

    Each supported method pops pre-recorded values from its own queue, in
    the order the code under test consumes them.  Running past the end of
    a queue fails the test immediately, so every scripted draw is
    accounted for.  Values are returned as-is: callers of ``uniform`` and
    ``standard_normal`` receive the queued numbers directly, not samples
    of a distribution.
    """

    def __init__(self, random=(), uniform=(), standard_normal=(), permutation=()):
        self._random = list(random)
        self._uniform = list(uniform)
        self._normal = list(standard_normal)
        self._perm = list(permutation)

    def _pop(self, queue, name):
        if not queue:
            raise AssertionError(f"FakeRng ran out of scripted {name} draws")
        return queue.pop(0)

    def _draw(self, queue, name, size):
        if size is None:
            return float(self._pop(queue, name))
        shape = (size,) if np.isscalar(size) else tuple(size)
        count = int(np.prod(shape))
        values = [float(self._pop(queue, name)) for _ in range(count)]
        return np.array(values).reshape(shape)

    def random(self, size=None):
        return self._draw(self._random, "random", size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._draw(self._uniform, "uniform", size)

    def standard_normal(self, size=None):
        return self._draw(self._normal, "standard_normal", size)

    def permutation(self, n):
        values = self._pop(self._perm, "permutation")
        assert len(values) == n, "scripted permutation has the wrong length"
        return np.array(values, dtype=int)

    def exhausted(self) -> bool:
        return not (self._random or self._uniform or self._normal or self._perm)


def check_dimension(problem: DynamicObjective, xs: np.ndarray) -> np.ndarray:
    """``xs`` as an ``(n, dim)`` float batch of the problem's dimension."""
    xs = as_rows(xs)
    if xs.shape[1] != problem.dimension():
        raise DimensionMismatch(
            f"expected rows of length {problem.dimension()}, got shape {xs.shape}"
        )
    return xs


class StaticFunctionProblem(DynamicObjective):
    """Wrap a plain function as a never-changing objective.

    The function takes one vector, so ``evaluate`` calls it row by row.
    """

    def __init__(
        self,
        func: Callable[[np.ndarray], float],
        dimension: int,
        lower: float,
        upper: float,
        optimum: float = 0.0,
        maximize: bool = False,
    ) -> None:
        if upper <= lower:
            raise ValueError("upper bound must exceed lower bound")
        self._func = func
        self._dim = int(dimension)
        self._lower = float(lower)
        self._upper = float(upper)
        self._optimum = float(optimum)
        self._maximize = bool(maximize)
        self.evaluations = 0

    def dimension(self) -> int:
        return self._dim

    def bounds(self) -> tuple[float, float]:
        return self._lower, self._upper

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        xs = check_dimension(self, xs)
        self.evaluations += xs.shape[0]
        return np.array([self._func(x) for x in xs], dtype=float)

    def optimum_value(self) -> float:
        return self._optimum

    @property
    def maximize(self) -> bool:
        return self._maximize


class SwitchableProblem(DynamicObjective):
    """Quadratic bowl whose offset, center, and dimension tests can move.

    ``evaluate`` gives ``offset + sum((x - center)^2)`` per row, so the optimum
    value is ``offset`` and sentinel re-evaluations notice any shift.
    """

    MAX_DIM = 24

    def __init__(self, dimension: int = 5, lower: float = -5.0, upper: float = 5.0):
        self._dim = int(dimension)
        self._lower = float(lower)
        self._upper = float(upper)
        self._center = np.zeros(self.MAX_DIM)
        self.offset = 0.0
        self.t = 0
        self.evaluations = 0

    def shift(self, offset=None, center_first=None, dimension=None) -> None:
        """Advance to a new environment, changing whatever was passed."""
        self.t += 1
        if offset is not None:
            self.offset = float(offset)
        if center_first is not None:
            self._center[0] = float(center_first)
        if dimension is not None:
            if not 1 <= dimension <= self.MAX_DIM:
                raise ValueError("dimension out of range for the test problem")
            self._dim = int(dimension)

    def dimension(self) -> int:
        return self._dim

    def bounds(self):
        return self._lower, self._upper

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        xs = check_dimension(self, xs)
        self.evaluations += xs.shape[0]
        diff = xs - self._center[: self._dim]
        return self.offset + np.sum(diff * diff, axis=1)

    def optimum_value(self) -> float:
        return self.offset


def environment_note() -> str:
    """What a failed golden comparison should say about the numeric environment.

    The golden files hold only on ``GOLDEN_ENVIRONMENT``; the note names
    each key where this process differs from it.
    """
    from dynopt.cli import GOLDEN_ENVIRONMENT, numeric_environment

    current = numeric_environment()
    differing = [
        f"{key} is {current.get(key)!r}, recorded {recorded!r}"
        for key, recorded in GOLDEN_ENVIRONMENT.items()
        if current.get(key) != recorded
    ]
    if not differing:
        return "the numeric environment is the recorded one"
    return "the numeric environment differs from the recorded one: " + "; ".join(differing)


def evaluate_one(problem, x) -> float:
    """Value of the one point ``x``, scored as a one-row batch."""
    return float(problem.evaluate(np.asarray(x, dtype=float)[None, :])[0])


def collect_cells(config) -> ExperimentResult:
    """Every cell ``run_experiment`` yields, keyed by (case id, optimizer id)."""
    return ExperimentResult({
        (cell.case.case_id, cell.optimizer_id): cell for cell in run_experiment(config)
    })


def sphere_problem(dimension=5, lower=-5.0, upper=5.0, **kwargs) -> StaticFunctionProblem:
    return StaticFunctionProblem(
        lambda x: float(np.sum(x * x)), dimension, lower, upper, **kwargs
    )


@pytest.fixture
def fake_rng_cls():
    return FakeRng


@pytest.fixture
def switchable_cls():
    return SwitchableProblem
