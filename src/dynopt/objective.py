"""Uniform objective interface the optimizers run against.

An objective scores the rows of an ``(n, dim)`` array in its current
environment and counts ``n`` evaluations; a single point is a one-row
batch.  ``evaluate`` is the one evaluation method of every layer.

An objective changes only when told.  ``frequency`` is the number of
evaluations per environment, and a run's clock (the budget recorder)
calls ``advance_environment()`` on every ``frequency``-th evaluation,
before that evaluation is scored.  A ``frequency`` of 0 is one
environment that never changes.
"""

from __future__ import annotations

import abc

import numpy as np

from dynopt.errors import DimensionMismatch


class DynamicObjective(abc.ABC):
    """Minimal contract between a (possibly changing) problem and a solver."""

    frequency = 0  # evaluations per environment; 0 is one environment
    maximize = False  # the sense, fixed for the objective's life

    @abc.abstractmethod
    def dimension(self) -> int:
        """Current number of decision variables."""

    @abc.abstractmethod
    def bounds(self) -> tuple[float, float]:
        """The search box: one (lower, upper) pair shared by every coordinate."""

    @abc.abstractmethod
    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Objective values of the rows of ``xs``; counts one evaluation each."""

    def advance_environment(self) -> None:
        """Move to the next environment; only a problem with a frequency can."""
        raise NotImplementedError(f"{type(self).__name__} never changes")

    @abc.abstractmethod
    def optimum_value(self) -> float:
        """Objective value of the current global optimum."""


def as_rows(xs: np.ndarray) -> np.ndarray:
    """An ``(n, dim)`` batch as a float array; anything else is rejected."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise DimensionMismatch(f"expected an (n, dim) batch, got shape {xs.shape}")
    return xs


def fit_dimension(rows: np.ndarray, dim: int, pad=np.zeros) -> np.ndarray:
    """``(n, old)`` rows refitted to ``dim`` columns: the one T7 rule.

    A shrink keeps the leading ``dim`` coordinates and never calls ``pad``;
    a growth appends the ``(n, dim - old)`` block ``pad(shape)`` returns.
    The result is a new C-contiguous array, never a view of ``rows``.
    """
    n, old = rows.shape
    if dim <= old:
        return rows[:, :dim].copy()
    return np.hstack([rows, pad((n, dim - old))])
