"""Composition landscapes: weighted blends of shifted, stretched, rotated
base functions, to be minimized.

Each component ``i`` contributes ``w_i * (f'_i(x) + H_i)`` where the weight
decays with distance from the component's optimum, the nearest component
dominates, and ``f'_i`` is the base landscape normalized by its value at the
domain corner so all components share a common scale.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

import numpy as np

from dynopt.errors import ConfigError
from dynopt.gdbg.basefuncs import BASE_FUNCTIONS, NATURAL_HALF_RANGE
from dynopt.gdbg.changes import DynamicParam
from dynopt.gdbg.rotation import random_orthogonal

FMAX_GUARD = 1e-12
DOMINANCE_POWER = 10


def stretch_factor(func_name: str, search_half_range: float) -> float:
    """Scale factor mapping the search box onto a base function's own range."""
    return search_half_range / NATURAL_HALF_RANGE[func_name]


class CompositionProblem:
    """``m`` blended components over a box domain."""

    def __init__(
        self,
        optima: np.ndarray,
        heights: list[DynamicParam],
        func_names: list[str],
        matrices: np.ndarray,
        lower: float,
        upper: float,
        sigma: float = 1.0,
        normalizer: float = 2000.0,
    ) -> None:
        self.optima = np.asarray(optima, dtype=float)
        if self.optima.ndim != 2:
            raise ValueError("optima must be an (m, dim) array")
        m = self.optima.shape[0]
        if not (len(heights) == len(func_names) == m and matrices.shape[0] == m):
            raise ValueError("heights, functions and matrices must match optima")
        for name in func_names:
            if name not in BASE_FUNCTIONS:
                raise ConfigError(f"unknown base function {name!r}")
        self.heights = heights
        self.func_names = list(func_names)
        self.matrices = np.asarray(matrices, dtype=float)
        self.lower = float(lower)
        self.upper = float(upper)
        self.sigma = float(sigma)
        self.normalizer = float(normalizer)
        half = (self.upper - self.lower) / 2.0
        self.lambdas = np.array(
            [stretch_factor(name, half) for name in func_names]
        )
        # each run of adjacent components sharing a base function is one
        # call on a slice view: base functions act per component and reduce
        # only over the last axis, so a component's value does not depend
        # on the others in its run
        self._runs: list[tuple[Callable[[np.ndarray], np.ndarray], slice]] = []
        start = 0
        for name, run in itertools.groupby(self.func_names):
            stop = start + len(list(run))
            self._runs.append((BASE_FUNCTIONS[name], slice(start, stop)))
            start = stop
        self._h = np.empty(m)
        self.refresh_cache()
        self._fmax = np.empty(m)
        self.refresh_normalization()

    @property
    def num_components(self) -> int:
        return self.optima.shape[0]

    @property
    def dim(self) -> int:
        return self.optima.shape[1]

    def refresh_cache(self) -> None:
        self._h[:] = [p.value for p in self.heights]

    def refresh_normalization(self) -> None:
        """Recompute each component's corner value used for rescaling."""
        corner = np.full(self.dim, self.upper)
        for i, name in enumerate(self.func_names):
            z = (corner / self.lambdas[i]) @ self.matrices[i]
            self._fmax[i] = float(BASE_FUNCTIONS[name](z))
        if np.any(np.abs(self._fmax) < FMAX_GUARD):
            raise ConfigError("degenerate component normalization (corner value ~ 0)")

    def _component_values(self, z: np.ndarray) -> np.ndarray:
        values = np.empty(z.shape[:2])
        for func, run in self._runs:
            values[:, run] = func(z[:, run])
        return values

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """One value per row of an ``(n, dim)`` batch."""
        diff = xs[:, None, :] - self.optima
        # ufunc reductions called directly: the same bits as np.sum / .max,
        # without their Python-level dispatch
        sq_dist = np.add.reduce(diff * diff, axis=2)
        w = np.exp(-np.sqrt(sq_dist / (2.0 * self.dim * self.sigma**2)))
        wmax = np.maximum.reduce(w, axis=1, keepdims=True)
        # only the closest component keeps full weight once it dominates;
        # the power is taken one row at a time because numpy's vectorised
        # power may differ from the scalar one in the last bit
        damping = [[1.0 - v**DOMINANCE_POWER] for v in wmax[:, 0].tolist()]
        w = np.where(w == wmax, w, w * np.array(damping))
        w /= np.add.reduce(w, axis=1, keepdims=True)
        z = np.einsum("nmd,mde->nme", diff / self.lambdas[:, None], self.matrices)
        f_prime = self.normalizer * self._component_values(z) / np.abs(self._fmax)
        return np.add.reduce(w * (f_prime + self._h), axis=1)

    def optimum_value(self) -> float:
        return float(self._h.min())

    def optimum_position(self) -> np.ndarray:
        return self.optima[int(np.argmin(self._h))].copy()

    def rotate_optima(self, matrix: np.ndarray) -> None:
        self.optima = self.optima @ matrix.T
        np.clip(self.optima, self.lower, self.upper, out=self.optima)

    def resize(self, new_dim: int, rng: np.random.Generator) -> None:
        """Resize optima by one coordinate and regenerate the rotations."""
        old = self.dim
        if new_dim == old:
            return
        if new_dim == old + 1:
            extra = rng.uniform(self.lower, self.upper, size=(self.num_components, 1))
            self.optima = np.hstack([self.optima, extra])
        elif new_dim == old - 1:
            self.optima = self.optima[:, :-1].copy()
        else:
            raise ValueError("dimension may only move one step at a time")
        self.matrices = np.stack(
            [random_orthogonal(new_dim, rng) for _ in range(self.num_components)]
        )
        self.refresh_normalization()
