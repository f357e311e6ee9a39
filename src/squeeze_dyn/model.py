"""Core domain types: ensemble validation, reservoir configuration, channel
and definition enumerations, time grids, and generator parameters.

All types are immutable value objects and safe to share between threads.
Units are dimensionless throughout; gamma and eta0 carry inverse-time
meaning by convention only.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteParameter, NonPositiveN, ValidationError


class ChannelKind(enum.Enum):
    """Per-qubit decoherence channel."""

    DEPHASING = "dephasing"
    DEPOLARIZING = "depolarizing"
    DAMPING = "damping"


class Definition(enum.Enum):
    """Which squeezing parameter to compute.

    XI is the variance form N (dJ_perp)^2_min / |<J>|^2; XI_PRIME is the
    eigenvalue form lambda_min(Gamma) / (<J^2> - N/2) with
    Gamma = (N-1)*Upsilon + C.
    """

    XI = "xi"
    XI_PRIME = "xi-prime"


class Regime(enum.Enum):
    """Coupling regime of a Lorentzian reservoir."""

    STRONG = "strong"
    WEAK = "weak"
    CRITICAL = "critical"


class EnsembleWarning(enum.Enum):
    """Degenerate twisting angles flagged by validation."""

    PRODUCT_STATE = "product-state"  # alpha = m*pi
    GRAPH_STATE = "graph-state"  # alpha = (2m+1)*pi/2
    OUTSIDE_SQUEEZED_REGIME = "outside-squeezed-regime"  # alpha not in (0, pi/2)


def _require_finite(name: str, x: float) -> float:
    if not math.isfinite(x):
        raise NonFiniteParameter(f"{name} must be finite, got {x!r}")
    return float(x)


def _require_alpha(alpha: float) -> float:
    """A finite twisting angle whose double is finite too: the closed forms
    take cos(2*alpha)."""
    _require_finite("alpha", alpha)
    if not math.isfinite(2.0 * alpha):
        raise NonFiniteParameter(f"2*alpha overflows for alpha = {alpha!r}")
    return float(alpha)


def validate_ensemble(n: int, alpha: float) -> tuple[EnsembleWarning, ...]:
    """Check N exchange-symmetric spin-1/2 particles twisted by the
    accumulated angle ``alpha`` (pair coupling times time, uniform over
    pairs), and return the degenerate-angle warnings.

    Angles outside (0, pi/2) are accepted: the closed forms stay
    evaluable and the endpoints (product state at m*pi, graph state at
    odd multiples of pi/2) are useful boundary cases. The endpoint test's
    tolerance 1e-12 |alpha/(pi/2)| is applied only while it is <= 1e-6.
    """
    if int(n) != n or n < 1:
        raise NonPositiveN(f"n must be a positive integer, got {n}")
    _require_alpha(alpha)

    warns: list[EnsembleWarning] = []
    half_pi_units = alpha / (math.pi / 2)
    nearest = round(half_pi_units)
    tol = 1e-12 * max(1.0, abs(half_pi_units))
    if tol <= 1e-6 and abs(half_pi_units - nearest) <= tol:
        if nearest % 2 == 0:
            warns.append(EnsembleWarning.PRODUCT_STATE)
        else:
            warns.append(EnsembleWarning.GRAPH_STATE)
    if not (0.0 < alpha < math.pi / 2) and not warns:
        warns.append(EnsembleWarning.OUTSIDE_SQUEEZED_REGIME)
    return tuple(warns)


@dataclass(frozen=True)
class ReservoirConfig:
    """Lorentzian reservoir: spectral width gamma, coupling strength eta0.

    The memory kernel is f(u) = eta0*gamma*exp(-gamma*u)/2.
    """

    gamma: float
    eta0: float

    def __post_init__(self) -> None:
        _require_finite("gamma", self.gamma)
        _require_finite("eta0", self.eta0)
        if self.gamma <= 0 or self.eta0 <= 0:
            raise ValidationError("gamma and eta0 must both be positive")
        # the regime formulas need the discriminant's products as normal
        # floats: an underflow to 0 or an overflow to inf breaks the branch
        # choice or makes kappa NaN
        g, e = self.gamma, self.eta0
        products = (("gamma^2", g * g), ("eta0*gamma", e * g), ("2*eta0*gamma", 2.0 * e * g))
        for name, prod in products:
            if not sys.float_info.min <= prod < math.inf:
                raise ValidationError(
                    f"{name} = {prod!r} is not a finite normal float "
                    f"(gamma = {self.gamma!r}, eta0 = {self.eta0!r})"
                )

    @property
    def discriminant(self) -> float:
        """2*eta0*gamma - gamma^2; positive in the strong-coupling regime."""
        return 2.0 * self.eta0 * self.gamma - self.gamma**2


#: relative tolerance on eta0 = gamma/2 for tagging the critical regime
_CRITICAL_RTOL = 1e-12


def reservoir_regime(res: ReservoirConfig) -> tuple[Regime, float]:
    """Classify the coupling regime and return the rate scale d.

    Returns ``(regime, d)`` with d = sqrt(|2*eta0*gamma - gamma^2|): the
    oscillation frequency of the decoherence function in the strong
    regime, the hyperbolic rate in the weak regime, ~0 at critical
    coupling eta0 = gamma/2.
    """
    d = math.sqrt(abs(res.discriminant))
    if abs(res.eta0 - res.gamma / 2.0) <= _CRITICAL_RTOL * (res.gamma / 2.0):
        return Regime.CRITICAL, d
    if res.eta0 > res.gamma / 2.0:
        return Regime.STRONG, d
    return Regime.WEAK, d


@dataclass(frozen=True)
class LindbladParams:
    """Generator parameters (s, b, c) for the single-qubit master equation.

    b weights the population flip terms (s of it pumping down, 1-s up),
    c sets the coherence decay rate. Named specializations:

    - dephasing:    s = 0, b = 0, c = gamma (s moves nothing when b = 0)
    - depolarizing: s = 1/2, b = c = gamma
    - damping:      s = 1, b = 2c = gamma (decay toward the ground state)
    """

    s: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("s", "b", "c"):
            _require_finite(name, getattr(self, name))
        if not 0.0 <= self.s <= 1.0:
            raise ValidationError(f"s must lie in [0, 1], got {self.s}")
        if self.b < 0 or self.c < 0:
            raise ValidationError("b and c must be nonnegative")

    @classmethod
    def dephasing(cls, gamma: float) -> "LindbladParams":
        return cls(s=0.0, b=0.0, c=gamma)

    @classmethod
    def depolarizing(cls, gamma: float) -> "LindbladParams":
        return cls(s=0.5, b=gamma, c=gamma)

    @classmethod
    def damping(cls, gamma: float) -> "LindbladParams":
        return cls(s=1.0, b=gamma, c=gamma / 2.0)


#: most nodes a time grid or a death-time scan may have; a finer grid is
#: rejected before anything is allocated, since it would exhaust memory
MAX_GRID_NODES = 10**7

#: largest particle number the CLI accepts; the closed forms' plain powers
#: lose digits as N grows (pure xi^2 at the optimal angle is off by 6.5e-8
#: relative at N = 10^5 and by 1.5e-3 at 10^7)
MAX_PARTICLES = 10**5


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [t_start, t_end] with the given step and at
    most ``MAX_GRID_NODES`` nodes."""

    t_start: float
    t_end: float
    step: float

    def __post_init__(self) -> None:
        for name in ("t_start", "t_end", "step"):
            _require_finite(name, getattr(self, name))
        if self.t_start < 0:
            raise ValidationError("t_start must be nonnegative")
        if self.t_end <= self.t_start:
            raise ValidationError("t_end must exceed t_start")
        if self.step <= 0:
            raise ValidationError("step must be positive")
        # the ratio test comes first: it also catches a step so small that
        # the ratio overflows
        if not (self.t_end - self.t_start) / self.step < MAX_GRID_NODES or (
            self.n_nodes > MAX_GRID_NODES
        ):
            raise ValidationError(
                f"step {self.step!r} on [{self.t_start!r}, {self.t_end!r}] "
                f"gives more than {MAX_GRID_NODES} grid nodes"
            )

    @property
    def n_nodes(self) -> int:
        span = self.t_end - self.t_start
        return int(math.floor(span / self.step + 1e-9)) + 1

    def nodes(self) -> np.ndarray:
        return self.t_start + self.step * np.arange(self.n_nodes)
