"""The five classic base landscapes used inside composition problems.

Each function takes a vector or a batch of vectors along the last axis,
reduces over that axis, and is 0 at the origin (Weierstrass exactly).
"""

from __future__ import annotations

import functools

import numpy as np

# Weierstrass term k = 0..20, 2^-k (cos 2pi 3^k (x+1/2) - cos pi 3^k), equals
# 2^-(k+1) v_k, v_k = 4 sin^2(pi 3^k x), as 3^k is odd: a sum of squares, 0 at
# the optimum. v obeys v <- v (3 - v)^2 (triple angle); blocks of 7 terms
# restart it by a direct sine at k = 0, 7, 14 (1e-9 error without restarts).
# cos 3t = cos t (4cos^2 t - 3) was rejected: ~1e-3 relative error near 0.
_W_AJ = [0.5 ** (j + 1) for j in range(7)]
_W_PI3K = np.pi * 3.0 ** np.array([0.0, 7.0, 14.0])

# Natural half-ranges, used to stretch composition offsets onto each
# landscape's own scale (search half-range 5 maps to these).
NATURAL_HALF_RANGE = {
    "sphere": 100.0,
    "rastrigin": 5.0,
    "weierstrass": 0.5,
    "griewank": 100.0,
    "ackley": 32.0,
}


def sphere(x: np.ndarray) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    return np.add.reduce(x * x, axis=-1)


def rastrigin(x: np.ndarray) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    return np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def weierstrass(x: np.ndarray) -> np.ndarray | float:
    # elementwise only (no BLAS over k): batch rows equal lone vectors bitwise
    v = (2.0 * np.sin(np.multiply.outer(_W_PI3K, x))) ** 2
    total = 0.5 * v
    for weight in _W_AJ[1:]:
        v = v * (3.0 - v) ** 2
        total += weight * v
    return np.add.reduce(total[0] + total[1] * 2.0**-7 + total[2] * 2.0**-14, axis=-1)


@functools.cache
def _griewank_divisor(n: int) -> np.ndarray:
    """sqrt(1..n), read-only and built once per dimension (T7 changes n)."""
    idx = np.sqrt(np.arange(1, n + 1, dtype=float))
    idx.flags.writeable = False
    return idx


def griewank(x: np.ndarray) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    return (
        np.add.reduce(x * x, axis=-1) / 4000.0
        - np.multiply.reduce(np.cos(x / _griewank_divisor(x.shape[-1])), axis=-1)
        + 1.0
    )


def ackley(x: np.ndarray) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    quad = np.sqrt(np.add.reduce(x * x, axis=-1) / n)
    trig = np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / n
    return -20.0 * np.exp(-0.2 * quad) - np.exp(trig) + 20.0 + np.e


BASE_FUNCTIONS = {
    "sphere": sphere,
    "rastrigin": rastrigin,
    "weierstrass": weierstrass,
    "griewank": griewank,
    "ackley": ackley,
}
