"""Closed-form squeezing expressions for one-axis-twisted ensembles.

Everything is driven by the pair coefficients

    A = 1 - cos^(N-2)(2 alpha),   B = 4 sin(alpha) cos^(N-2)(alpha),

the per-pair transverse correlators of the twisted state. The pure-state
variance-form parameter is

    xi^2 = [1 - (N-1)(sqrt(A^2+B^2) - A)/4] / cos^(2N-2)(alpha).

``oat_coefficients(n, alpha)`` computes every alpha-only quantity once,
as one ``OatCoefficients`` record: ``a_coef`` (A), ``b_coef`` (B),
``hypot`` (sqrt(A^2+B^2)), ``c2`` (cos^(N-2)(2 alpha)), ``x1``
(cos^(N-1)(alpha)) and ``cpow`` (cos^(2N-2)(alpha)). Every closed form
below reads its powers from that record, except the alpha-grid scan
``xi2_oat_curve``, which computes them on arrays.

Decohered expressions come in two families, selected by ``Form``:

``Form.REFERENCE``
    The widely quoted closed forms: a shared numerator zeta(kappa) over
    channel-specific denominators. zeta evaluates the transverse variance
    at the squeezing direction that is optimal for the undamped state,
    and the denominators keep the undamped mean-spin normalization for
    dephasing and adopt a linearized one for damping. These are the
    expressions behind the standard published curves and death times.

``Form.EXACT``
    Exact expectation values of the per-qubit channels: every single- and
    two-qubit correlator is contracted by the channel's Heisenberg
    factors and the definitions are evaluated from the resulting
    collective moments (re-minimizing over directions). This family
    agrees with the explicit density-matrix computation to machine
    precision and is what the verification suite checks against.

Both families coincide at kappa = 1 and are evaluable for any |kappa| <= 1.

Along a kappa(t) trajectory the closed form is built once and maps whole
arrays: ``squeezing_curve`` returns a ``SqueezingCurve`` of three arrays
on a time grid (kappa, xi^2 and an optional Markovian comparison), and
``curve_evaluator`` returns the t -> xi^2 map that the death-time scan
calls. Neither records its arguments; the command line writes the
output header from its own.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from ._smalleig import min_eig_sym2, min_eig_sym3_entries
from .errors import DegenerateDenominator, InvalidKappa, NTooSmall
from .kappa import KappaModel, kappa_markovian
from .model import ChannelKind, Definition, TimeGrid
from .moments import ZERO_MEAN_SPIN_TOL, CollectiveMoments

__all__ = [
    "Form",
    "OatCoefficients",
    "SqueezingCurve",
    "oat_coefficients",
    "xi2_oat",
    "xi2_prime_oat",
    "decohered_moments",
    "optimal_alpha",
    "squeezing_curve",
    "curve_evaluator",
    "channel_xi2",
]


class Form(enum.Enum):
    REFERENCE = "reference"
    EXACT = "exact"


# exponents above this are evaluated in log space to dodge underflow in
# intermediate powers at large N
_LOG_POWER_ABOVE = 64


def _signed_power(base: float, expo: int) -> float:
    if expo <= _LOG_POWER_ABOVE:
        return float(base) ** expo
    a = abs(base)
    if a == 0.0:
        return 0.0
    val = math.exp(expo * math.log(a))
    return -val if (base < 0.0 and expo % 2) else val


class OatCoefficients(NamedTuple):
    """The alpha-only quantities of the twisted state: the pair
    coefficients A, B and sqrt(A^2+B^2), and the powers
    c2 = cos^(N-2)(2a), x1 = cos^(N-1)(a) and cpow = cos^(2N-2)(a).

    A named tuple, not a frozen dataclass: ``optimal_alpha`` builds one per
    golden-section step, and a frozen dataclass's ``__init__`` costs about
    three times the tuple's and would be half the objective's cost."""

    a_coef: float
    b_coef: float
    hypot: float
    c2: float
    x1: float
    cpow: float


def oat_coefficients(n: int, alpha: float) -> OatCoefficients:
    """A = 1 - cos^(N-2)(2a), B = 4 sin(a) cos^(N-2)(a) and the powers
    every closed form reads; overflow-safe."""
    if n < 2:
        raise NTooSmall(f"need at least 2 particles, got {n}")
    c2 = _signed_power(math.cos(2.0 * alpha), n - 2)
    cos_a = math.cos(alpha)
    a_coef = 1.0 - c2
    b_coef = 4.0 * math.sin(alpha) * _signed_power(cos_a, n - 2)
    return OatCoefficients(
        a_coef,
        b_coef,
        math.hypot(a_coef, b_coef),
        c2,
        _signed_power(cos_a, n - 1),
        _signed_power(cos_a, 2 * n - 2),
    )


# ---------------------------------------------------------------------------
# pure-state forms


def xi2_oat(n: int, alpha: float) -> float:
    """Variance-form parameter of the pure twisted state (exact); +inf
    where cos^(2N-2)(alpha) vanishes."""
    co = oat_coefficients(n, alpha)
    if co.cpow == 0.0:
        return math.inf
    return (1.0 - (n - 1) * (co.hypot - co.a_coef) / 4.0) / co.cpow


def xi2_prime_oat(n: int, alpha: float, form: Form = Form.REFERENCE) -> float:
    """Eigenvalue-form parameter of the pure twisted state: the smaller of
    the transverse-plane minimum and the mean-spin-axis entry, over the
    normalization <J^2> - N/2.

    The REFERENCE denominator (1-1/N)(1+cos^(N-2)2a)/2 + 1/N is the
    commonly quoted one; the EXACT normalization is 1 because symmetric
    pure states satisfy <J^2> = (N/2)(N/2+1). The two coincide for N = 2.
    """
    co = oat_coefficients(n, alpha)
    c2 = 1.0 - co.a_coef  # not co.c2: the two can differ in the last bit
    num = min(
        1.0 - (n - 1) * (co.hypot - co.a_coef) / 4.0,
        1.0 + (n - 1) * ((1.0 + c2) / 2.0 - co.cpow),
    )
    if form is Form.EXACT:
        return num
    return num / ((1.0 - 1.0 / n) * (1.0 + co.c2) / 2.0 + 1.0 / n)


# ---------------------------------------------------------------------------
# the kappa -> xi^2 map
#
# Along a curve n and alpha are fixed and only kappa varies, so each
# closed form is built once per (n, alpha, channel, definition, form)
# from one ``oat_coefficients`` record, and the returned map takes a
# numpy array of kappa values through numpy expressions, elementwise.


def _div_or_inf(num, den):
    """num / den, tagged +inf where den == 0."""
    return np.where(den == 0.0, math.inf, num / np.where(den == 0.0, 1.0, den))


def _smallest(x) -> float:
    return float(np.min(x))


def _check_kappa(kappa: float) -> float:
    if not (abs(kappa) <= 1.0):
        raise InvalidKappa(f"|kappa| must be <= 1, got {kappa}")
    return float(kappa)


def _zeta(n: int, co: OatCoefficients) -> Callable:
    """Shared numerator of the reference family, as a map of kappa.

    Transverse variance at the kappa = 1 optimal squeezing angle; the
    A = B = 0 point (alpha = 0) is the continuous limit zeta = 1.
    """
    if co.hypot == 0.0:
        return lambda k: 1.0 + 0.0 * k  # 1, in the shape of kappa
    quad = co.a_coef - co.a_coef**2 / co.hypot
    lin = co.b_coef**2 / co.hypot
    n1 = n - 1
    return lambda k: 1.0 + 0.25 * k * k * n1 * quad - 0.25 * k * n1 * lin


def _reference_map(
    n: int, co: OatCoefficients, kind: ChannelKind, definition: Definition
) -> Callable:
    zeta = _zeta(n, co)
    if definition is Definition.XI:
        if kind is ChannelKind.DEPHASING:
            return lambda k: _div_or_inf(zeta(k), co.cpow)
        if kind is ChannelKind.DEPOLARIZING:
            return lambda k: _div_or_inf(zeta(k), k * k * co.cpow)

        def damped(k):
            root = k * co.x1 + (1.0 - k)
            return _div_or_inf(zeta(k), root * root)

        return damped

    frac, inv_n = 1.0 - 1.0 / n, 1.0 / n
    if kind is ChannelKind.DEPHASING:

        def dephased(k):
            k2 = k * k
            return zeta(k) / (frac * (k2 + (1.0 - k2) * (1.0 + co.c2) / 2.0) + inv_n)

        return dephased
    if kind is ChannelKind.DEPOLARIZING:
        return lambda k: zeta(k) / (frac * (k * k) + inv_n)
    bracket = 1.0 - co.x1 + (1.0 + co.c2) / 2.0

    def damped_prime(k):
        den = 1.0 + frac * k * (1.0 - k) * bracket
        if _smallest(den) <= 0.0:
            raise DegenerateDenominator(
                f"damping eigenvalue-form denominator {_smallest(den)} is not positive"
            )
        return zeta(k) / den

    return damped_prime


def _contractions(kind: ChannelKind, kappa):
    """Heisenberg factors (r_perp, r_z, m) of one channel application:
    sigma_x/y -> r_perp sigma_x/y, sigma_z -> r_z sigma_z + m."""
    k2 = kappa * kappa
    if kind is ChannelKind.DEPHASING:
        return k2, 1.0, 0.0
    if kind is ChannelKind.DEPOLARIZING:
        return k2, k2, 0.0
    return kappa, k2, k2 - 1.0


def _moment_entries(n: int, co: OatCoefficients, kind: ChannelKind, kappa):
    """Nonzero collective moments of the decohered twisted state:
    <J_x>, <J_z> and C_xx, C_yy, C_zz, C_yz, C_xz (<J_y> = C_xy = 0).

    Uses the per-pair correlators of the pure state
    (<ss_xx> = (1+c)/2, <ss_yy> = A/2, <ss_yz> = B/4 with
    c = cos^(N-2)(2a)) contracted by the channel factors.
    """
    rp, rz, m = _contractions(kind, kappa)
    c2 = 1.0 - co.a_coef  # not co.c2: the two can differ in the last bit
    pair = n * (n - 1) / 4.0
    return (
        0.5 * n * rp * co.x1,
        0.5 * n * m,
        n / 4.0 + pair * rp * rp * (1.0 + c2) / 2.0,
        n / 4.0 + pair * rp * rp * co.a_coef / 2.0,
        n / 4.0 + pair * m * m,
        pair * rp * rz * co.b_coef / 4.0,
        pair * rp * m * co.x1,
    )


def decohered_moments(
    n: int, alpha: float, kind: ChannelKind, kappa: float
) -> CollectiveMoments:
    """Collective moments of the channel-decohered twisted state, in
    closed form. Exact for every |kappa| <= 1, including the
    sign-flipped kappa < 0 branch.
    """
    co = oat_coefficients(n, alpha)
    jx, jz, cxx, cyy, czz, cyz, cxz = _moment_entries(n, co, kind, _check_kappa(kappa))
    corr = np.array([[cxx, 0.0, cxz], [0.0, cyy, cyz], [cxz, cyz, czz]])
    return CollectiveMoments(n_particles=n, mean_spin=np.array([jx, 0.0, jz]), corr=corr)


def _exact_map(n: int, co: OatCoefficients, kind: ChannelKind, definition: Definition) -> Callable:
    """The moments route of ``xi2_from_moments``/``xi2_prime_from_moments``
    specialised to the decohered twisted state: the mean spin lies in the
    x-z plane and C_xy = 0, so xi needs one 2x2 and xi' one 3x3 solve."""

    def xi(k):
        jx, jz, cxx, cyy, czz, cyz, cxz = _moment_entries(n, co, kind, k)
        mag = np.sqrt(jx * jx + jz * jz)
        vanishing = mag <= ZERO_MEAN_SPIN_TOL
        mag = np.where(vanishing, 1.0, mag)
        ux, uz = jx / mag, jz / mag
        # the plane orthogonal to the mean spin is spanned by y and
        # (-u_z, 0, u_x); C restricted to it:
        pww = uz * uz * cxx - 2.0 * ux * uz * cxz + ux * ux * czz
        lam = min_eig_sym2(cyy, ux * cyz, pww)
        return np.where(vanishing, math.inf, n * lam / mag**2)

    def xi_prime(k):
        jx, jz, cxx, cyy, czz, cyz, cxz = _moment_entries(n, co, kind, k)
        den = cxx + cyy + czz - n / 2.0
        if _smallest(den) <= ZERO_MEAN_SPIN_TOL:
            raise DegenerateDenominator(
                f"<J^2> - N/2 = {_smallest(den)} is not positive; "
                "the eigenvalue form is undefined"
            )
        # Gamma = (N-1)(C - <J><J>^T) + C
        lam = min_eig_sym3_entries(
            (n - 1) * (cxx - jx * jx) + cxx,
            0.0,
            (n - 1) * (cxz - jx * jz) + cxz,
            (n - 1) * cyy + cyy,
            (n - 1) * cyz + cyz,
            (n - 1) * (czz - jz * jz) + czz,
        )
        return lam / den

    return xi if definition is Definition.XI else xi_prime


def _kappa_map(
    n: int, co: OatCoefficients, kind: ChannelKind, definition: Definition, form: Form
) -> Callable:
    """kappa -> xi^2 at fixed (n, alpha, channel, definition, form), from
    the (n, alpha) pair's coefficients ``co = oat_coefficients(n, alpha)``.

    The map takes a numpy array of kappa values and returns an array of
    the same shape; divergences are tagged +inf and an undefined
    eigenvalue-form denominator raises ``DegenerateDenominator``.
    """
    build = _reference_map if form is Form.REFERENCE else _exact_map
    return build(n, co, kind, definition)


def channel_xi2(
    n: int,
    alpha: float,
    kappa: float,
    kind: ChannelKind,
    definition: Definition = Definition.XI,
    form: Form = Form.REFERENCE,
) -> float:
    """Decohered squeezing parameter for any channel/definition/form;
    +inf where the variance form diverges."""
    xi2 = _kappa_map(n, oat_coefficients(n, alpha), kind, definition, form)
    return float(xi2(np.array([_check_kappa(kappa)]))[0])


# ---------------------------------------------------------------------------
# optimization, curves


def xi2_oat_curve(n: int, alphas: np.ndarray) -> np.ndarray:
    """Vectorized pure-state variance form over an alpha grid (log-space
    powers, divergences mapped to +inf)."""
    a = np.asarray(alphas, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = np.cos(a)
        c2 = np.cos(2.0 * a)
        expo = n - 2

        def spow(base, e):
            if e == 0:
                return np.ones_like(base)
            mag = np.exp(e * np.log(np.abs(base)))
            if e % 2:
                return np.where(base < 0, -mag, mag)
            return mag

        cA = 1.0 - spow(c2, expo)
        cB = 4.0 * np.sin(a) * spow(c, expo)
        hy = np.hypot(cA, cB)
        num = 1.0 - (n - 1) * (hy - cA) / 4.0
        den = spow(c, 2 * n - 2)
        out = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
    return out


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f: Callable[[float], float], lo: float, hi: float, xatol: float) -> tuple[float, float]:
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > xatol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


#: nodes in the coarse bracket scan preceding the golden-section refine
_SCAN_POINTS = 2048


def optimal_alpha(n: int, xatol: float = 1e-10) -> tuple[float, float]:
    """Minimize the pure variance-form parameter over alpha in (0, pi/2).

    Coarse 2048-point scan to bracket, golden-section to ``xatol`` in
    alpha. Returns (alpha_star, xi_min) with xi_min = sqrt(min xi^2).
    """
    if n < 3:
        raise NTooSmall(f"optimization needs at least 3 particles, got {n}")
    grid = np.linspace(0.0, math.pi / 2.0, _SCAN_POINTS + 2)[1:-1]
    vals = xi2_oat_curve(n, grid)
    i = int(np.argmin(vals))
    # a minimum at the first or last node may lie beyond it (at large N
    # the optimum falls below the first node), so bracket to the domain edge
    lo = grid[i - 1] if i > 0 else 0.0
    hi = grid[i + 1] if i + 1 < len(grid) else math.pi / 2.0
    alpha_star, best = _golden_min(lambda a: xi2_oat(n, a), lo, hi, xatol)
    return alpha_star, math.sqrt(best)


class SqueezingCurve(NamedTuple):
    """A squeezing parameter sampled on a time grid: kappa(t), xi^2(t)
    and, when a Markovian comparison rate was given, xi^2 under
    exp(-rate*t); one array element per grid node."""

    kappa: np.ndarray
    values: np.ndarray
    markov_values: np.ndarray | None


def _eval_curve(xi2: Callable, kappas: np.ndarray) -> np.ndarray:
    # the channels depend on kappa only through kappa^2 (dephasing,
    # depolarizing exactly) or up to a per-qubit z rotation that leaves
    # both parameters invariant (damping), so curves evaluate at |kappa|
    return xi2(np.minimum(np.abs(kappas), 1.0))


def curve_evaluator(
    n: int,
    alpha: float,
    channel: ChannelKind,
    model: KappaModel,
    definition: Definition = Definition.XI,
    form: Form = Form.REFERENCE,
) -> Callable[[np.ndarray], np.ndarray]:
    """t -> xi^2(t) along one curve for interval scans: an ndarray of times
    gives the array ``squeezing_curve`` computes for them."""
    xi2 = _kappa_map(n, oat_coefficients(n, alpha), channel, definition, form)
    return lambda t: _eval_curve(xi2, np.asarray(model.evaluate(t), dtype=float))


def squeezing_curve(
    n: int,
    alpha: float,
    channel: ChannelKind,
    model: KappaModel,
    grid: TimeGrid,
    definition: Definition = Definition.XI,
    form: Form = Form.REFERENCE,
    compare_markovian: float | None = None,
) -> SqueezingCurve:
    """Evaluate kappa(t) on the grid and map it through the decohered
    closed form, whole arrays at a time; optionally add a Markovian
    comparison column computed from kappa(t) = exp(-rate*t)."""
    xi2 = _kappa_map(n, oat_coefficients(n, alpha), channel, definition, form)
    ts = grid.nodes()
    kappas = np.asarray(model.evaluate(ts), dtype=float)
    values = _eval_curve(xi2, kappas)
    markov_values = None
    if compare_markovian is not None:
        markov_values = _eval_curve(xi2, np.asarray(kappa_markovian(compare_markovian, ts)))
    return SqueezingCurve(kappas, values, markov_values)
