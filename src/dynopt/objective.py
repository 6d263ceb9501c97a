"""Uniform objective interface the optimizers run against.

A dynamic objective owns its own evaluation counter and may change its
landscape as a side effect of being evaluated; optimizers only ever see
``evaluate`` and ``evaluate_batch``, the bounds, the sense, and a change
counter they can poll.

``evaluate_batch`` is the evaluation primitive: it scores the rows of an
``(n, dim)`` array in order and counts ``n`` evaluations, with exactly the
values, counters and changes that ``n`` calls of ``evaluate`` would give.
Callers that must see each change (the budget recorder) feed it segments
of at most ``evals_to_change()`` rows: every row of such a segment is
scored in one environment, so a change, if any, falls on its first row.
The defaults loop ``evaluate`` and ask for one row at a time, so an
objective that only implements ``evaluate`` stays exact.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from dynopt.errors import DimensionMismatch


class DynamicObjective(abc.ABC):
    """Minimal contract between a (possibly changing) problem and a solver."""

    @abc.abstractmethod
    def dimension(self) -> int:
        """Current number of decision variables."""

    @abc.abstractmethod
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension (lower, upper) arrays for the current dimension."""

    @abc.abstractmethod
    def evaluate(self, x: np.ndarray) -> float:
        """Objective value at ``x``; counts one evaluation."""

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Objective values of the rows of ``xs``; counts one evaluation each."""
        return np.array([self.evaluate(x) for x in as_rows(xs)], dtype=float)

    def evals_to_change(self) -> int:
        """How many upcoming evaluations are scored in one environment.

        A change, if any, falls on the first of them.  The default, 1, holds
        for any objective whose change schedule is unknown.
        """
        return 1

    @abc.abstractmethod
    def optimum_value(self) -> float:
        """Objective value of the current global optimum."""

    @abc.abstractmethod
    def change_count(self) -> int:
        """Number of environment changes so far (0 while static)."""

    @property
    def maximize(self) -> bool:
        return False

    def check_dimension(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.dimension():
            raise DimensionMismatch(
                f"expected a vector of length {self.dimension()}, got shape {x.shape}"
            )
        return x


def as_row(x: np.ndarray) -> np.ndarray:
    """One vector as a one-row batch; anything but a vector is rejected."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {x.shape}")
    return x[None, :]


def as_rows(xs: np.ndarray) -> np.ndarray:
    """An ``(n, dim)`` batch as a float array; anything else is rejected."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise DimensionMismatch(f"expected an (n, dim) batch, got shape {xs.shape}")
    return xs


class StaticFunctionProblem(DynamicObjective):
    """Wrap a plain function as a never-changing objective (mostly for tests)."""

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
        self._lower = np.full(self._dim, float(lower))
        self._upper = np.full(self._dim, float(upper))
        self._optimum = float(optimum)
        self._maximize = bool(maximize)
        self.evaluations = 0

    def dimension(self) -> int:
        return self._dim

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lower, self._upper

    def evaluate(self, x: np.ndarray) -> float:
        x = self.check_dimension(x)
        self.evaluations += 1
        return float(self._func(x))

    def optimum_value(self) -> float:
        return self._optimum

    def change_count(self) -> int:
        return 0

    @property
    def maximize(self) -> bool:
        return self._maximize
