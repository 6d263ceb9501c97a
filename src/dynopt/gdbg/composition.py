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
from dynopt.gdbg.basefuncs import BASE_FUNCTIONS, NATURAL_HALF_RANGE, squared_norm

FMAX_GUARD = 1e-12
DOMINANCE_POWER = 10
SIGMA = 1.0  # the weights' distance scale
NORMALIZER = 2000.0  # the common scale of the normalized components

# 0-d, not Python floats: see basefuncs
_NORMALIZER = np.array(NORMALIZER)
_POWER = np.array(float(DOMINANCE_POWER))
_ONE = np.array(1.0)


def stretch_factor(func_name: str, search_half_range: float) -> float:
    """Scale factor mapping the search box onto a base function's own range."""
    return search_half_range / NATURAL_HALF_RANGE[func_name]


class CompositionProblem:
    """``m`` blended components over a box domain.

    The landscape only scores: the instance driving it changes ``heights``
    in place, moves ``centers`` (the components' optima) and, when the
    dimension moves, replaces ``matrices`` and calls
    :meth:`refresh_normalization`.
    """

    def __init__(
        self,
        centers: np.ndarray,
        heights: np.ndarray,
        func_names: list[str],
        matrices: np.ndarray,
        lower: float,
        upper: float,
    ) -> None:
        self.centers = np.asarray(centers, dtype=float)
        if self.centers.ndim != 2:
            raise ValueError("centers must be an (m, dim) array")
        m = self.centers.shape[0]
        if not (len(heights) == len(func_names) == m and matrices.shape[0] == m):
            raise ValueError("heights, functions and matrices must match centers")
        for name in func_names:
            if name not in BASE_FUNCTIONS:
                raise ConfigError(f"unknown base function {name!r}")
        self.heights = np.asarray(heights, dtype=float)
        self.func_names = list(func_names)
        self.matrices = np.asarray(matrices, dtype=float)
        self.lower = float(lower)
        self.upper = float(upper)
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
        self.refresh_normalization()

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def refresh_normalization(self) -> None:
        """Recompute what depends on the dimension and the rotations: the
        matrices scaled by 1/lambda, each component's corner value used for
        rescaling, and the weight scale."""
        self._scaled = self.matrices / self.lambdas[:, None, None]
        # the corners take the same product as evaluate: corner @ (M / lambda)
        corners = np.full((len(self.heights), 1, self.dim), self.upper)
        self._fmax = self._component_values((corners @ self._scaled)[None, :, 0])[0]
        self._abs_fmax = np.abs(self._fmax)
        if np.any(self._abs_fmax < FMAX_GUARD):
            raise ConfigError("degenerate component normalization (corner value ~ 0)")
        self._weight_scale = np.array(2.0 * self.dim * SIGMA**2)

    def _component_values(self, z: np.ndarray) -> np.ndarray:
        """Base-function values of an ``(n, m, dim)`` stack, one run a call."""
        if len(self._runs) == 1:
            return self._runs[0][0](z)
        values = np.empty(z.shape[:2])
        for func, run in self._runs:
            values[:, run] = func(z[:, run])
        return values

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """One value per row of an ``(n, dim)`` batch."""
        # The steps compute, operation for operation,
        #   w = exp(-sqrt(sum(diff^2) / (2 dim sigma^2)))
        #   w = where(w == wmax, w, w * (1 - wmax^10)); w /= sum(w)
        #   z = diff @ (M / lambda), one vector-matrix product per (row, component)
        #   f = sum(w * (normalizer * f_i(z) / |fmax| + h))
        # in arrays the call already owns, with 0-d constants (see basefuncs)
        # and operands swapped only where IEEE arithmetic commutes, so the
        # bits are those of the expressions; the masked multiply is the
        # where(), NaN included.  The sum over coordinates is basefuncs'
        # squared norm (einsum); the sums and maxima over components call
        # their ufuncs directly, the same bits as np.sum / .max without the
        # wrappers' dispatch.  The stretch lambda is folded into the matrices
        # once per normalization: GDBG's (diff / lambda) M, rounded in
        # another order
        diff = xs[:, None, :] - self.centers
        w = squared_norm(diff)
        w /= self._weight_scale
        np.sqrt(w, out=w)
        np.negative(w, out=w)
        np.exp(w, out=w)
        wmax = np.maximum.reduce(w, axis=1)
        # only the closest component keeps full weight once it dominates.
        # float_power, not power: numpy's power has SIMD loops that may
        # differ in the last bit from C's pow, which Python's ``v**10`` and
        # float_power both call (`tests/test_composition.py` pins them equal)
        damping = np.float_power(wmax, _POWER)
        np.subtract(_ONE, damping, out=damping)
        np.multiply(w, damping[:, None], out=w, where=w != wmax[:, None])
        w /= np.add.reduce(w, axis=1, keepdims=True)
        # each (row, component) product has the same sizes whatever the
        # batch, so a row equals its one-row batch bit for bit, which the
        # instance's sentinel memo relies on (`tests/test_composition.py`
        # checks it, in ``TestRowEqualsBatch``)
        f = self._component_values((diff[:, :, None, :] @ self._scaled)[:, :, 0, :])
        f *= _NORMALIZER
        f /= self._abs_fmax
        f += self.heights
        f *= w
        return np.add.reduce(f, axis=1)

    def optimum_value(self) -> float:
        return float(self.heights.min())

    def optimum_position(self) -> np.ndarray:
        return self.centers[int(np.argmin(self.heights))].copy()
