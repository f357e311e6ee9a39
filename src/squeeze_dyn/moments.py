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
    Upsilon = C - <J><J>^T and Gamma = (N-1) Upsilon + C are derived.
    """

    n_particles: int
    mean_spin: np.ndarray  # shape (3,)
    corr: np.ndarray  # shape (3, 3), symmetric

    @property
    def cov(self) -> np.ndarray:
        return self.corr - np.outer(self.mean_spin, self.mean_spin)

    @property
    def gamma_matrix(self) -> np.ndarray:
        return (self.n_particles - 1) * self.cov + self.corr

    @property
    def j_squared(self) -> float:
        """<J^2> = tr C."""
        return float(np.trace(self.corr))


def _cross(a: list[float], b: list[float]) -> list[float]:
    """a x b of two 3-vectors, term for term the products and differences
    ``np.cross`` evaluates, without its array overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _perp_frame(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = n.tolist()
    ref = [1.0, 0.0, 0.0] if abs(u[0]) < 0.9 else [0.0, 1.0, 0.0]
    e1 = np.array(_cross(u, ref))
    e1 /= np.linalg.norm(e1)
    return e1, np.array(_cross(u, e1.tolist()))


def xi2_from_moments(m: CollectiveMoments) -> float:
    """Variance-form parameter: N * lambda_min(P) / |<J>|^2.

    P is the 2x2 restriction of C to the plane orthogonal to the mean
    spin direction; its smaller eigenvalue is the minimum over in-plane
    directions of the spin variance (the mean has no component there, so
    second moment and variance coincide).

    A vanishing mean spin gives +inf, not an exception: a divergent
    denominator is a value that curve emission can plot.
    """
    mag = float(np.linalg.norm(m.mean_spin))
    if mag <= ZERO_MEAN_SPIN_TOL:
        return math.inf
    e1, e2 = _perp_frame(m.mean_spin / mag)
    p11 = float(e1 @ m.corr @ e1)
    p22 = float(e2 @ m.corr @ e2)
    p12 = float(e1 @ m.corr @ e2)
    lam = float(min_eig_sym2(p11, p12, p22))
    return m.n_particles * lam / mag**2


def xi2_prime_from_moments(m: CollectiveMoments) -> float:
    """Eigenvalue-form parameter: lambda_min(Gamma) / (<J^2> - N/2)."""
    den = m.j_squared - m.n_particles / 2.0
    if den <= ZERO_MEAN_SPIN_TOL:
        raise DegenerateDenominator(
            f"<J^2> - N/2 = {den} is not positive; the eigenvalue form is undefined"
        )
    lam = min_eig_sym3(m.gamma_matrix)
    return lam / den
