"""Uniform objective interface the optimizers run against.

A dynamic objective owns its own evaluation counter and may change its
landscape as a side effect of being evaluated; optimizers only ever see
``evaluate``, the bounds, the sense, and a change counter they can poll.

``evaluate`` is the one evaluation method of every layer: it scores the
rows of an ``(n, dim)`` array in order and counts ``n`` evaluations, with
exactly the values, counters and changes that ``n`` one-row calls would
give.  A single point is a one-row batch.  Callers that must see each
change (the budget recorder) feed it segments of at most
``evals_to_change()`` rows: every row of such a segment is scored in one
environment, so a change, if any, falls on its first row.  The default
asks for one row at a time, so an objective with an unknown change
schedule stays exact.
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
    def bounds(self) -> tuple[float, float]:
        """The search box: one (lower, upper) pair shared by every coordinate."""

    @abc.abstractmethod
    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Objective values of the rows of ``xs``; counts one evaluation each."""

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

    def check_dimension(self, xs: np.ndarray) -> np.ndarray:
        """``xs`` as an ``(n, dim)`` float batch of the current dimension."""
        xs = as_rows(xs)
        if xs.shape[1] != self.dimension():
            raise DimensionMismatch(
                f"expected rows of length {self.dimension()}, got shape {xs.shape}"
            )
        return xs


def as_rows(xs: np.ndarray) -> np.ndarray:
    """An ``(n, dim)`` batch as a float array; anything else is rejected."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise DimensionMismatch(f"expected an (n, dim) batch, got shape {xs.shape}")
    return xs


class StaticFunctionProblem(DynamicObjective):
    """Wrap a plain function as a never-changing objective (mostly for tests).

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
        xs = self.check_dimension(xs)
        self.evaluations += xs.shape[0]
        return np.array([self._func(x) for x in xs], dtype=float)

    def optimum_value(self) -> float:
        return self._optimum

    def change_count(self) -> int:
        return 0

    @property
    def maximize(self) -> bool:
        return self._maximize
