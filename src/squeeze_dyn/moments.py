"""Collective spin moments and the two squeezing definitions evaluated
from them.

Both the closed-form route (analytic module) and the explicit-state route
(oracle module) reduce to a ``CollectiveMoments`` record; the definitions
below are the shared final step. J = sum_j S_j with S = sigma/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._smalleig import min_eig_sym2, min_eig_sym3
from .errors import DegenerateDenominator

#: below this mean-spin norm the variance form is tagged divergent
ZERO_MEAN_SPIN_TOL = 1e-12


@dataclass(frozen=True)
class CollectiveMoments:
    """First and symmetrized second moments of the collective spin.

    ``corr`` is C with C_kl = <J_l J_k + J_k J_l>/2; the covariance
    Upsilon = C - <J><J>^T is derived.
    """

    n_particles: int
    mean_spin: np.ndarray  # shape (3,)
    corr: np.ndarray  # shape (3, 3), symmetric

    @property
    def cov(self) -> np.ndarray:
        return self.corr - np.outer(self.mean_spin, self.mean_spin)


# The squeezing parameters below are written once, over rows: n is a (K,)
# array of particle numbers, mean a (K, 3) array of mean spins and corr a
# (K, 3, 3) array of correlation matrices. The public functions run them
# on one row, and every row rounds exactly as that row would alone.


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[k] . y[k] for each row, rounded as ``np.linalg.norm`` and ``@``
    round the dot of one pair of 3-vectors (an elementwise product summed
    along the row does not always)."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _row_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] x b[k] for each row, term for term the products and
    differences of ``np.cross``."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)


def _xi2_rows(n: np.ndarray, mean: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """``xi2_from_moments`` of each row; +inf where the mean spin vanishes."""
    mag = np.sqrt(_row_dot(mean, mean))
    vanishing = mag <= ZERO_MEAN_SPIN_TOL
    # a vanishing row scores +inf below; a unit mean keeps its frame finite
    mag = np.where(vanishing, 1.0, mag)
    u = np.where(vanishing[:, None], (1.0, 0.0, 0.0), mean / mag[:, None])
    # in-plane frame: e1 = u x ref with ref = x, or y where u is near x
    ref = np.where((np.abs(u[:, 0]) < 0.9)[:, None], (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    e1 = _row_cross(u, ref)
    e1 /= np.sqrt(_row_dot(e1, e1))[:, None]
    e2 = _row_cross(u, e1)
    c1 = np.matmul(e1[:, None, :], corr)[:, 0]
    c2 = np.matmul(e2[:, None, :], corr)[:, 0]
    lam = min_eig_sym2(_row_dot(c1, e1), _row_dot(c1, e2), _row_dot(c2, e2))
    # |<J>|^2 by libm pow, as a float's ** takes it: mag * mag differs in
    # the last bit for about 1 value in 1,000
    return np.where(vanishing, math.inf, n * lam / np.float_power(mag, 2))


def _xi2_prime_rows(n: np.ndarray, mean: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """``xi2_prime_from_moments`` of each row; the first row with a
    non-positive denominator raises ``DegenerateDenominator``."""
    den = np.trace(corr, axis1=1, axis2=2) - n / 2.0
    bad = np.flatnonzero(den <= ZERO_MEAN_SPIN_TOL)
    if bad.size:
        raise DegenerateDenominator(
            f"<J^2> - N/2 = {float(den[bad[0]])} is not positive; "
            "the eigenvalue form is undefined"
        )
    # Gamma = (N-1) Upsilon + C
    cov = corr - mean[:, :, None] * mean[:, None, :]
    gamma = (n - 1)[:, None, None] * cov + corr
    return min_eig_sym3(gamma) / den


def xi2_from_moments(m: CollectiveMoments) -> float:
    """Variance-form parameter: N * lambda_min(P) / |<J>|^2.

    P is the 2x2 restriction of C to the plane orthogonal to the mean
    spin direction; its smaller eigenvalue is the minimum over in-plane
    directions of the spin variance (the mean has no component there, so
    second moment and variance coincide).

    A vanishing mean spin gives +inf, not an exception: a divergent
    denominator is a value that curve emission can plot.
    """
    return float(_xi2_rows(np.array([m.n_particles]), m.mean_spin[None], m.corr[None])[0])


def xi2_prime_from_moments(m: CollectiveMoments) -> float:
    """Eigenvalue-form parameter: lambda_min(Gamma) / (<J^2> - N/2),
    Gamma = (N-1) Upsilon + C and <J^2> = tr C."""
    return float(
        _xi2_prime_rows(np.array([m.n_particles]), m.mean_spin[None], m.corr[None])[0]
    )
