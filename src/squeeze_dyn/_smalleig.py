"""Closed-form smallest eigenvalues of 2x2 and 3x3 real symmetric matrices.

The formulas are written once, entry by entry, and evaluate either on
Python floats (``FLOATS``, the math module: no numpy call per value) or
elementwise on numpy arrays (``ARRAYS``); ``ops_for`` picks by input.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

FLOATS = SimpleNamespace(
    sqrt=math.sqrt,
    hypot=math.hypot,
    cos=math.cos,
    acos=math.acos,
    minimum=min,
    maximum=max,
    where=lambda cond, a, b: a if cond else b,
)
ARRAYS = SimpleNamespace(
    sqrt=np.sqrt,
    hypot=np.hypot,
    cos=np.cos,
    acos=np.arccos,
    minimum=np.minimum,
    maximum=np.maximum,
    where=np.where,
)


def ops_for(x) -> SimpleNamespace:
    """``ARRAYS`` for a numpy array, ``FLOATS`` for anything else."""
    return ARRAYS if isinstance(x, np.ndarray) else FLOATS


def min_eig_sym2(a, b, c, xp: SimpleNamespace = FLOATS):
    """Smaller eigenvalue of [[a, b], [b, c]]."""
    return 0.5 * (a + c) - xp.hypot(0.5 * (a - c), b)


def min_eig_sym3_entries(a00, a01, a02, a11, a12, a22, xp: SimpleNamespace = FLOATS):
    """Smallest eigenvalue of the real symmetric 3x3 matrix with these
    upper-triangle entries, by Cardano's trigonometric solution of the
    characteristic cubic; a diagonal matrix gives its smallest entry."""
    off = a01 * a01 + a02 * a02 + a12 * a12
    diagonal = off == 0.0
    q = (a00 + a11 + a22) / 3.0
    p2 = (a00 - q) ** 2 + (a11 - q) ** 2 + (a22 - q) ** 2 + 2.0 * off
    # p vanishes only for a diagonal matrix, whose value is selected below
    p = xp.where(diagonal, 1.0, xp.sqrt(p2 / 6.0))
    # det of (m - q*I)/p
    b00, b11, b22 = (a00 - q) / p, (a11 - q) / p, (a22 - q) / p
    b01, b02, b12 = a01 / p, a02 / p, a12 / p
    det = (
        b00 * (b11 * b22 - b12 * b12)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    r = xp.maximum(-1.0, xp.minimum(1.0, det / 2.0))
    phi = xp.acos(r) / 3.0
    # eigenvalues are q + 2p*cos(phi + 2*pi*k/3); the smallest uses k=1
    cubic = q + 2.0 * p * xp.cos(phi + 2.0 * math.pi / 3.0)
    return xp.where(diagonal, xp.minimum(xp.minimum(a00, a11), a22), cubic)


def min_eig_sym3(m: np.ndarray) -> float:
    """Smallest eigenvalue of a real symmetric 3x3 matrix."""
    return min_eig_sym3_entries(
        float(m[0, 0]), float(m[0, 1]), float(m[0, 2]),
        float(m[1, 1]), float(m[1, 2]), float(m[2, 2]),
    )
