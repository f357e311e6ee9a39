"""Closed-form smallest eigenvalues of 2x2 and 3x3 real symmetric matrices.

The formulas are written once, entry by entry, as numpy expressions: each
entry may be a float or an array, and arrays evaluate elementwise.
"""

from __future__ import annotations

import math

import numpy as np


def min_eig_sym2(a, b, c):
    """Smaller eigenvalue of [[a, b], [b, c]]."""
    return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)


def min_eig_sym3_entries(a00, a01, a02, a11, a12, a22):
    """Smallest eigenvalue of the real symmetric 3x3 matrix with these
    upper-triangle entries, by Cardano's trigonometric solution of the
    characteristic cubic; a diagonal matrix gives its smallest entry, and
    so does one whose spread p rounds to 0."""
    off = a01 * a01 + a02 * a02 + a12 * a12
    q = (a00 + a11 + a22) / 3.0
    d00, d11, d22 = a00 - q, a11 - q, a22 - q
    p2 = d00 * d00 + d11 * d11 + d22 * d22 + 2.0 * off
    p = np.sqrt(p2 / 6.0)
    # p is 0 for a multiple of the identity, and also where nonzero
    # off-diagonal squares are too small for p2/6 to round above 0; every
    # entry of m - q*I is then below 4e-162 in magnitude, so each
    # eigenvalue lies within 1e-161 of the diagonal value selected below
    diagonal = (off == 0.0) | (p == 0.0)
    p = np.where(diagonal, 1.0, p)
    # det of (m - q*I)/p
    b00, b11, b22 = d00 / p, d11 / p, d22 / p
    b01, b02, b12 = a01 / p, a02 / p, a12 / p
    det = (
        b00 * (b11 * b22 - b12 * b12)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    r = np.maximum(-1.0, np.minimum(1.0, det / 2.0))
    phi = np.arccos(r) / 3.0
    # eigenvalues are q + 2p*cos(phi + 2*pi*k/3); the smallest uses k=1
    cubic = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    return np.where(diagonal, np.minimum(np.minimum(a00, a11), a22), cubic)


def min_eig_sym3(m: np.ndarray):
    """Smallest eigenvalue of a real symmetric 3x3 matrix, or of each
    matrix of a (..., 3, 3) stack."""
    return min_eig_sym3_entries(
        m[..., 0, 0], m[..., 0, 1], m[..., 0, 2], m[..., 1, 1], m[..., 1, 2], m[..., 2, 2]
    )
