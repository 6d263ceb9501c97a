"""Plane-rotation helpers for moving optima between environments."""

from __future__ import annotations

import numpy as np


def paired_rotation(dim: int, angle: float, rng: np.random.Generator) -> np.ndarray:
    """Compose floor(dim/2) plane rotations over a random pairing of axes.

    All planes share one angle; with an odd dimension the leftover axis is
    untouched.  The planes are disjoint, so their product is the identity
    with one ``(c, -s; s, c)`` block written per plane.  The result is
    orthogonal by construction.
    """
    perm = rng.permutation(dim)
    c, s = np.cos(angle), np.sin(angle)
    m = np.eye(dim)
    for k in range(dim // 2):
        p, q = int(perm[2 * k]), int(perm[2 * k + 1])
        m[p, p] = c
        m[q, q] = c
        m[p, q] = -s
        m[q, p] = s
    return m


def random_orthogonal(count: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform-ish random orthogonal matrices, stacked ``(count, dim, dim)``.

    One ``(count, dim, dim)`` normal draw, the stream of ``count`` draws of
    ``(dim, dim)``, and one stacked QR, which factors each matrix alone.
    """
    gauss = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(gauss)
    # fix the sign ambiguity so the distribution does not favour an octant
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    return q
