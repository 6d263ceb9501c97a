"""Rotation-peak landscape: a field of cones to be maximized."""

from __future__ import annotations

import numpy as np

from dynopt.gdbg.basefuncs import squared_norm

_ONE = np.array(1.0)  # 0-d, not a Python float: see basefuncs


class PeakSet:
    """``m`` peaks with dynamic heights and widths over a box domain.

    The landscape value is the best response over peaks,
    ``H_i / (1 + W_i * sqrt(mean_j (x_j - c_ij)^2))``, so the global
    optimum value is exactly the largest height, attained at that
    peak's center.  The landscape only scores: the instance driving it
    changes ``heights`` and ``widths`` in place and moves ``centers``.
    """

    def __init__(
        self, centers: np.ndarray, heights: np.ndarray, widths: np.ndarray
    ) -> None:
        self.centers = np.asarray(centers, dtype=float)
        if self.centers.ndim != 2:
            raise ValueError("centers must be an (m, dim) array")
        if len(heights) != len(self.centers) or len(widths) != len(self.centers):
            raise ValueError("one height and width per peak required")
        self.heights = np.asarray(heights, dtype=float)
        self.widths = np.asarray(widths, dtype=float)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def evaluate(self, xs: np.ndarray) -> np.ndarray:
        """One value per row of an ``(n, dim)`` batch."""
        diff = xs[:, None, :] - self.centers
        # the mean square is basefuncs' squared norm over the count.  The
        # steps of h / (1 + w * dist) then run in place on one array,
        # operands swapped only where IEEE arithmetic commutes, so the bits
        # are those of the expression; the maximum calls its ufunc directly,
        # the same bits as np.max without the wrapper's dispatch cost
        value = squared_norm(diff)
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
