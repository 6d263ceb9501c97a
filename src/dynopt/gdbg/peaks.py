"""Rotation-peak landscape: a field of cones to be maximized."""

from __future__ import annotations

import numpy as np

_ONE = np.array(1.0)  # 0-d, not a Python float: see basefuncs


class PeakSet:
    """``m`` peaks with dynamic heights and widths over a box domain.

    The landscape value is the best response over peaks,
    ``H_i / (1 + W_i * sqrt(mean_j (x_j - c_ij)^2))``, so the global
    optimum value is exactly the largest height, attained at that
    peak's center.  ``heights`` and ``widths`` are float arrays of length
    ``m`` that the instance driving the landscape changes in place.
    """

    def __init__(
        self,
        centers: np.ndarray,
        heights: np.ndarray,
        widths: np.ndarray,
        lower: float,
        upper: float,
    ) -> None:
        self.centers = np.asarray(centers, dtype=float)
        if self.centers.ndim != 2:
            raise ValueError("centers must be an (m, dim) array")
        if len(heights) != len(self.centers) or len(widths) != len(self.centers):
            raise ValueError("one height and width per peak required")
        self.heights = np.asarray(heights, dtype=float)
        self.widths = np.asarray(widths, dtype=float)
        self.lower = float(lower)
        self.upper = float(upper)

    @property
    def num_peaks(self) -> int:
        return len(self.heights)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """One value per row of an ``(n, dim)`` batch."""
        diff = xs[:, None, :] - self.centers
        # np.mean is add.reduce over the count; calling the ufuncs directly
        # gives the same bits without the wrappers' dispatch cost.  The steps
        # of h / (1 + w * dist) then run in place on one array, operands
        # swapped only where IEEE arithmetic commutes, so the bits are those
        # of the expression
        value = np.add.reduce(diff * diff, axis=2)
        value /= diff.shape[2]
        np.sqrt(value, out=value)
        value *= self.widths
        value += _ONE
        np.divide(self.heights, value, out=value)
        return np.maximum.reduce(value, axis=1)

    def optimum_value(self) -> float:
        return float(self.heights.max())

    def optimum_position(self) -> np.ndarray:
        return self.centers[int(np.argmax(self.heights))].copy()

    def rotate_centers(self, matrix: np.ndarray) -> None:
        self.centers = self.centers @ matrix.T
        np.clip(self.centers, self.lower, self.upper, out=self.centers)

    def resize(self, new_dim: int, rng: np.random.Generator) -> None:
        """Grow by one uniform coordinate per peak or drop the last one."""
        old = self.dim
        if new_dim == old:
            return
        if new_dim == old + 1:
            extra = rng.uniform(self.lower, self.upper, size=(self.num_peaks, 1))
            self.centers = np.hstack([self.centers, extra])
        elif new_dim == old - 1:
            self.centers = self.centers[:, :-1].copy()
        else:
            raise ValueError("dimension may only move one step at a time")
