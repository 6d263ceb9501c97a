"""The five classic base landscapes used inside composition problems.

Each function takes a vector or a batch of vectors along the last axis,
reduces over that axis, and is 0 at the origin (Weierstrass exactly).

Every sum over the coordinate axis in the landscape layer, here and in the
peak and composition landscapes, goes through one primitive:
:func:`coordinate_sum` and :func:`squared_norm`, both ``np.einsum``.
``np.add.reduce`` over a 5-15-long last axis runs one short inner loop per
(row, component); einsum sums the same terms 2.5-4x faster on a 50-row
batch (numpy 2.4, 2-core Xeon VM).  Its order of summation is fixed by the
length of the axis alone, so a row gives the same bits alone, in a batch
or in a strided slice, and its worst-case error is the (d-1) eps sum|a| of
any fixed-order sum of d terms (Higham 2002, sec. 4.2).  einsum's default
``optimize=False`` keeps the sum out of BLAS.
"""

from __future__ import annotations

import functools

import numpy as np

# Weierstrass term k = 0..20, 2^-k (cos 2pi 3^k (x+1/2) - cos pi 3^k), equals
# 2^-(k+1) v_k, v_k = 4 sin^2(pi 3^k x), as 3^k is odd: a sum of squares, 0 at
# the optimum. v obeys v <- v (3 - v)^2 (triple angle); blocks of 7 terms
# restart it by a direct sine at k = 0, 7, 14 (1e-9 error without restarts).
# cos 3t = cos t (4cos^2 t - 3) was rejected: ~1e-3 relative error near 0.
_W_AJ = [np.array(0.5 ** (j + 1)) for j in range(7)]
_W_PI3K = np.pi * 3.0 ** np.array([0.0, 7.0, 14.0])
_W_BLOCK_SCALES = np.array(2.0**-7), np.array(2.0**-14)

# Constants enter the ufuncs as 0-d float64 arrays, not Python floats: under
# numpy 2's promotion rules a Python scalar operand is converted on every call
# (~0.5 us with numpy 2.4 on a 2-core Xeon VM, half the cost of the whole op
# on a 60-element array), a 0-d array is not.  The value, and so every result
# bit, is the same.  The functions keep the operation order of the plain
# expressions, updating each temporary in place where those made a new array.
_ONE = np.array(1.0)
_TWO = np.array(2.0)
_THREE = np.array(3.0)
_TEN = np.array(10.0)
_TWENTY = np.array(20.0)
_4000 = np.array(4000.0)
_TWO_PI = np.array(2.0 * np.pi)
_E = np.array(np.e)
_ACKLEY_RATE = np.array(-0.2)
_ACKLEY_DEPTH = np.array(-20.0)

# Natural half-ranges, used to stretch composition offsets onto each
# landscape's own scale (search half-range 5 maps to these).
NATURAL_HALF_RANGE = {
    "sphere": 100.0,
    "rastrigin": 5.0,
    "weierstrass": 0.5,
    "griewank": 100.0,
    "ackley": 32.0,
}


def coordinate_sum(x: np.ndarray) -> np.ndarray | float:
    """Sum over the last axis: one value per vector."""
    return np.einsum("...d->...", x)


def squared_norm(x: np.ndarray) -> np.ndarray | float:
    """Sum of squares over the last axis: one value per vector."""
    return np.einsum("...d,...d->...", x, x)


def sphere(x: np.ndarray) -> np.ndarray | float:
    return squared_norm(np.asarray(x, dtype=float))


def rastrigin(x: np.ndarray) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    s = x * x
    t = x * _TWO_PI
    np.cos(t, out=t)
    t *= _TEN
    s -= t
    s += _TEN
    return coordinate_sum(s)


def weierstrass(x: np.ndarray) -> np.ndarray | float:
    # elementwise only (no BLAS over k): batch rows equal lone vectors bitwise
    v = np.multiply.outer(_W_PI3K, x)
    np.sin(v, out=v)
    v *= _TWO
    v *= v
    total = v * _W_AJ[0]
    t = np.empty_like(v)
    for weight in _W_AJ[1:]:
        np.subtract(_THREE, v, out=t)
        t *= t
        v *= t
        np.multiply(v, weight, out=t)
        total += t
    first, second, third = total
    second *= _W_BLOCK_SCALES[0]
    first += second
    third *= _W_BLOCK_SCALES[1]
    first += third
    return coordinate_sum(first)


@functools.cache
def _griewank_divisor(n: int) -> np.ndarray:
    """sqrt(1..n), read-only and built once per dimension (T7 changes n)."""
    idx = np.sqrt(np.arange(1, n + 1, dtype=float))
    idx.flags.writeable = False
    return idx


def griewank(x: np.ndarray) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    c = x / _griewank_divisor(x.shape[-1])
    np.cos(c, out=c)
    value = squared_norm(x)
    value /= _4000
    value -= np.multiply.reduce(c, axis=-1)
    value += _ONE
    return value


def ackley(x: np.ndarray) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    quad = squared_norm(x)
    quad /= n
    c = x * _TWO_PI
    np.cos(c, out=c)
    trig = coordinate_sum(c)
    trig /= n
    value = np.exp(np.sqrt(quad) * _ACKLEY_RATE)
    value *= _ACKLEY_DEPTH
    value -= np.exp(trig)
    value += _TWENTY
    value += _E
    return value


BASE_FUNCTIONS = {
    "sphere": sphere,
    "rastrigin": rastrigin,
    "weierstrass": weierstrass,
    "griewank": griewank,
    "ackley": ackley,
}
