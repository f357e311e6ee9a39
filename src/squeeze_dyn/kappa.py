"""The decoherence function kappa(t).

Three model variants share one interface: a Markovian exponential, the
closed-form solution for a resonant Lorentzian reservoir (all coupling
regimes), and tabulated values (solver output or a kappa file).
kappa multiplies the channel parametrizations applied per qubit; kappa(0)
is exactly 1 and |kappa(t)| <= 1 for t >= 0.

The Lorentzian closed form solves

    kappa'(t) = -int_0^t f(t - s) kappa(s) ds,  kappa(0) = 1,

for the exponential kernel f(u) = eta0*gamma*exp(-gamma*u)/2. With
d = sqrt(2*eta0*gamma - gamma^2) the strong-coupling solution is

    kappa(t) = exp(-gamma t/2) [cos(d t/2) + (gamma/d) sin(d t/2)],

oscillatory with sign changes (information backflow); the weak-coupling
branch is the analytic continuation d -> i|d| (monotone positive decay)
and the critical point eta0 = gamma/2 the limit exp(-gamma t/2)(1 + gamma t/2).
``solve_volterra`` integrates the same equation numerically for arbitrary
kernels into a ``Tabulated`` model, and is checked against the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, IO

import numpy as np

from ._format import write_csv
from .errors import (
    KernelEvaluationError,
    NegativeTime,
    NotOscillatory,
    StepTooLarge,
    ValidationError,
)
from .model import MAX_GRID_NODES, Regime, ReservoirConfig, TimeGrid, reservoir_regime

__all__ = [
    "KappaModel",
    "MarkovianExponential",
    "LorentzianClosedForm",
    "Tabulated",
    "MemoryKernel",
    "kappa_markovian",
    "kappa_lorentzian",
    "solve_volterra",
    "kappa_zeros",
]

# switch to the series limit when |2*eta0*gamma - gamma^2| < tol * gamma^2,
# avoiding cancellation near d = 0
_CRITICAL_DISC_TOL = 1e-14
_FLOAT_MAX = np.finfo(float).max


def _check_times(t: np.ndarray | float) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise NegativeTime("kappa is defined for t >= 0")
    return arr


def _check_rate(rate: float) -> None:
    if not (rate > 0 and math.isfinite(rate)):
        raise ValidationError("rate must be positive and finite")


def kappa_markovian(rate: float, t: float | np.ndarray) -> float | np.ndarray:
    """exp(-rate*t): decreasing, in [0, 1]; 0 where rate*t overflows."""
    _check_rate(rate)
    with np.errstate(over="ignore"):
        return np.exp(-rate * _check_times(t))


def _lorentzian_value(res: ReservoirConfig, arr: np.ndarray) -> np.ndarray:
    """Branch dispatch without the t >= 0 guard (analytic expression).

    Near the largest doubles gamma*t and d*t overflow. The envelope
    exp(-gamma*t/2) is then exactly 0, so its partner is capped at the
    largest double: 0 * inf and cos(inf) would make nan.
    """
    gam = res.gamma
    disc = res.discriminant
    with np.errstate(over="ignore"):
        if abs(disc) < _CRITICAL_DISC_TOL * gam * gam:
            u = np.minimum(gam * arr / 2.0, _FLOAT_MAX)
            return np.exp(-u) * (1.0 + u)
        if disc > 0:
            d = math.sqrt(disc)
            x = np.minimum(d * arr / 2.0, _FLOAT_MAX)
            return np.exp(-gam * arr / 2.0) * (np.cos(x) + (gam / d) * np.sin(x))
        # d -> i*dh: cosh/sinh recombined into plain exponentials so large t
        # cannot overflow; the weights a and 1 - a sum to exactly 1, so
        # kappa(0) = 1: a > 1, so 1 and a are multiples of ulp(a) and
        # |1 - a| < a, which makes 1 - a exact
        dh = math.sqrt(-disc)
        a = 0.5 * (1.0 + gam / dh)
        return a * np.exp((dh - gam) * arr / 2.0) + (1.0 - a) * np.exp(-(dh + gam) * arr / 2.0)


def kappa_lorentzian(res: ReservoirConfig, t: float | np.ndarray) -> float | np.ndarray:
    """Closed-form kappa for the Lorentzian reservoir, all regimes.

    kappa(0) = 1 and kappa'(0) = 0 in every branch (the history integral
    vanishes at t = 0).
    """
    return _lorentzian_value(res, _check_times(t))


def kappa_zeros(res: ReservoirConfig, horizon: float) -> list[float]:
    """All zeros of the Lorentzian kappa in (0, horizon], ascending.

    Only the strong-coupling regime oscillates; the roots are
    t_k = (2/d) (k*pi + pi - arctan(d/gamma)) with exact spacing 2*pi/d.
    A non-finite horizon, or one holding more than ``MAX_GRID_NODES``
    zeros, raises ``ValidationError`` before any zero is listed.
    """
    regime, d = reservoir_regime(res)
    if regime is not Regime.STRONG:
        raise NotOscillatory(f"kappa has no zeros in the {regime.value} regime")
    if not math.isfinite(horizon):
        raise ValidationError(f"horizon must be finite, got {horizon!r}")
    base = math.pi - math.atan2(d, res.gamma)

    def zero(k: int) -> float:
        return (2.0 / d) * (k * math.pi + base)

    # count the zeros before listing any: the estimate is off by rounding
    # at most, and zero(k) is nondecreasing in k, so the two corrections
    # make the count exact up to the cap
    estimate = (horizon * d / 2.0 - base) / math.pi + 1.0
    count = int(min(max(estimate, 0.0), MAX_GRID_NODES + 1))
    while count <= MAX_GRID_NODES and zero(count) <= horizon:
        count += 1
    while count > 0 and zero(count - 1) > horizon:
        count -= 1
    if count > MAX_GRID_NODES:
        raise ValidationError(
            f"horizon {horizon!r} holds more than {MAX_GRID_NODES} zeros of kappa"
        )
    return [zero(k) for k in range(count)]


@dataclass(frozen=True)
class MemoryKernel:
    """Two-point reservoir correlation function f(u), u >= 0.

    ``exponential`` builds the Lorentzian-reservoir kernel
    f(u) = eta0*gamma*exp(-gamma*u)/2; for custom spectra, any callable that
    maps an array of u to an array of f(u) of the same shape works.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    # (c, gamma) of f(u) = c*exp(-gamma*u); set only by ``exponential``, so
    # the solver's O(M) recurrence runs only on kernels known to have this form
    _exponential: tuple[float, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.evaluator(u)

    @classmethod
    def exponential(cls, res: ReservoirConfig) -> "MemoryKernel":
        scale = 0.5 * res.eta0 * res.gamma

        def f(u):
            return scale * np.exp(-res.gamma * np.asarray(u, dtype=float))

        kernel = cls(evaluator=f)
        object.__setattr__(kernel, "_exponential", (scale, res.gamma))
        return kernel


# base block of the history-sum tiling in ``_solve_general``: pairs closer
# than a block are summed by the block map, the rest by FFT products
_BLOCK = 64


def _block_map(fvals: np.ndarray, h: float, rows: int) -> np.ndarray:
    """The (rows, rows + 2) map from one block's inputs to its kappa
    increments.

    A block's inputs are kappa (column 0) and the slope g (column 1) at the
    step before it, and u_i = f_i/2 + far_i (column 2 + i), the part of
    step i's history term known when the block starts. Row i holds the
    coefficients of kappa_i - kappa_start: the scheme is linear, so its own
    recurrence, run on the rows + 2 unit inputs at once, gives them.
    """
    unit = np.eye(rows + 2)
    inc = np.zeros((rows, rows + 2))  # kappa_i - kappa_start
    kap = np.zeros((rows, rows + 2))  # kappa_i, which the near-field sums read
    last = np.zeros(rows + 2)
    g = unit[1]
    half_f0 = 0.5 * fvals[0]
    for i in range(rows):
        near = (fvals[i:0:-1, None] * kap[:i]).sum(axis=0)
        pred = unit[0] + (last + h * g)
        g_p = -h * (unit[2 + i] + half_f0 * pred + near)
        inc[i] = last = last + 0.5 * h * (g + g_p)
        kap[i] = unit[0] + last
        g = -h * (unit[2 + i] + half_f0 * kap[i] + near)
    return inc


def _solve_general(fvals: np.ndarray, h: float, out: np.ndarray) -> None:
    """Fill ``out`` (length M) with kappa at the grid nodes in O(M log^2 M).

    ``fvals[j]`` must hold the kernel sampled at j*h. The predictor at step
    m - 1 -> m needs S_{m-1} = sum_{j=1}^{m-2} f[m-1-j] kappa_j and the
    corrector S_m. That sum is tiled (Hairer, Lubich and Schlichte, SIAM J.
    Sci. Stat. Comput. 6, 532 (1985)) into blocks of ``_BLOCK`` nodes. Once
    kappa_{e-1} is known at a block edge e, the sources [e - L, e) are
    convolved into the far-field sums of the targets [e, e + L) with one
    FFT of size 2L, where L is the largest ``_BLOCK * 2**l`` with e/L odd.
    These squares cover every pair of blocks exactly once. Sources in the
    target's own block enter through ``_block_map``, built once per solve:
    each block's kappa values are its start value plus one elementwise
    product and row sum of that map with the block's inputs. No BLAS call
    is made, so the output does not depend on the thread count.
    """
    fft = np.fft  # numpy imports its fft module on first use
    M = fvals.shape[0]
    out[0] = k_s = 1.0
    if M < 2:
        return
    g_s = 0.0  # the slope at t = 0: the history integral vanishes there
    inc = _block_map(fvals, h, min(_BLOCK, M - 1))
    u = 0.5 * fvals  # f_m/2 plus the far-field part of S_m
    half_f0 = u[0]
    spectra: dict[int, np.ndarray] = {}  # L -> rfft of f[0:2L], zero-padded
    for b in range(0, M, _BLOCK):
        if b:  # block edge: add the square [b - L, b) x [b, b + L)
            L = _BLOCK
            while (b // L) % 2 == 0:
                L *= 2
            spec = spectra.get(L)
            if spec is None:
                spec = spectra[L] = fft.rfft(fvals[: 2 * L], 2 * L)
            src = out[b - L:b]
            if b == L:  # kappa_0 enters through its own end-point term
                src = src.copy()
                src[0] = 0.0
            width = min(L, M - b)
            u[b:b + width] += fft.irfft(fft.rfft(src, 2 * L) * spec, 2 * L)[L:L + width]
        m0 = max(b, 1)  # the first block starts after kappa_0
        n = min(b + _BLOCK, M) - m0
        x = np.concatenate(((k_s, g_s), u[m0:m0 + n]))
        np.add(k_s, (inc[:n, :n + 2] * x).sum(axis=1), out=out[m0:m0 + n])
        end = m0 + n - 1
        k_s = float(out[end])
        # the next block's start slope: g at the block's last node
        g_s = -h * (u[end] + half_f0 * k_s + (fvals[n - 1:0:-1] * out[m0:end]).sum())


def _solve_exponential(
    fvals: np.ndarray, h: float, c: float, gamma: float, out: np.ndarray
) -> None:
    """``_solve_general`` for f(u) = c*exp(-gamma*u) in O(M).

    With r = exp(-gamma*h) the history sum E_n = sum_{j=1}^{n-1} r^(n-j) kappa_j
    obeys E_{n+1} = r*(E_n + kappa_n), and the scheme's history term is
    c*E_n in the predictor and c*E_{n+1} in the corrector. The end-point
    terms read the sampled ``fvals`` as the general path does.
    """
    half_f = (0.5 * fvals).tolist()
    kap = memoryview(out)
    neg_h, half_h, half_f0 = -h, 0.5 * h, half_f[0]
    r = math.exp(-gamma * h)
    kap[0] = k_n = 1.0
    g_n = 0.0
    hist = 0.0  # E_m; E_1 is an empty sum
    for m in range(1, len(half_f)):
        hf_m = half_f[m]
        c_hist = c * hist
        pred = k_n + h * g_n
        g_p = neg_h * (hf_m + half_f0 * pred + c_hist)
        kap[m] = k_n = k_n + half_h * (g_n + g_p)
        g_n = neg_h * (hf_m + half_f0 * k_n + c_hist)  # the next step's g_n
        hist = r * (hist + k_n)


def solve_volterra(kernel: MemoryKernel, grid: TimeGrid) -> Tabulated:
    """Numerically integrate kappa'(t) = -int_0^t f(t-s) kappa(s) ds.

    Product-trapezoidal quadrature for the history integral plus a
    second-order Heun predictor-corrector step. The kernel built by
    ``MemoryKernel.exponential`` takes O(M) time in the node count M
    (about 5 ms at M = 20,001): its history sum follows a one-term
    recurrence. Any other kernel takes O(M log^2 M) (about 14 ms at
    M = 20,001): its history sum is tiled into blocks of ``_BLOCK``
    nodes, with FFT products across blocks, and each block's values come
    from one precomputed linear map of the block's inputs. Neither path
    makes a BLAS call, so neither output depends on the BLAS thread
    setting. The grid must start at t = 0 (the history integral anchors
    there) and satisfy the stability guard step*sqrt(|f(0)|) < 0.1. The
    result is a ``Tabulated``: a solution that leaves [-1, 1], such as
    cosh(0.2 t) of the constant kernel f = -0.04, raises ``ValidationError``.
    """
    if grid.t_start != 0.0:
        raise ValidationError("solver grids must start at t = 0")
    ts = grid.nodes()
    try:
        fvals = np.asarray(kernel(ts), dtype=float)
    except KernelEvaluationError:
        raise
    except Exception as exc:
        raise KernelEvaluationError(f"kernel evaluation failed: {exc}") from exc
    if fvals.shape != ts.shape:
        raise KernelEvaluationError(f"kernel returned shape {fvals.shape}, not {ts.shape}")
    if not np.all(np.isfinite(fvals)):
        raise KernelEvaluationError("kernel returned non-finite values")
    if grid.step * math.sqrt(abs(fvals[0])) >= 0.1:
        raise StepTooLarge(
            f"step {grid.step} too large for |f(0)| = {abs(fvals[0])}: "
            "need step*sqrt(|f(0)|) < 0.1"
        )
    out = np.empty_like(fvals)
    if kernel._exponential is None:
        _solve_general(fvals, grid.step, out)
    else:
        _solve_exponential(fvals, grid.step, *kernel._exponential, out)
    return Tabulated(grid=grid, values=out)


class KappaModel:
    """Base for the kappa(t) variants; subclasses implement ``evaluate``."""

    def evaluate(self, t: float | np.ndarray) -> float | np.ndarray:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError

    def params(self) -> dict[str, object]:
        raise NotImplementedError


@dataclass(frozen=True)
class MarkovianExponential(KappaModel):
    rate: float

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    def evaluate(self, t):
        return kappa_markovian(self.rate, t)

    def label(self) -> str:
        return "markovian"

    def params(self) -> dict[str, object]:
        return {"rate": self.rate}


@dataclass(frozen=True)
class LorentzianClosedForm(KappaModel):
    res: ReservoirConfig

    def evaluate(self, t):
        return kappa_lorentzian(self.res, t)

    def label(self) -> str:
        return "lorentzian"

    def params(self) -> dict[str, object]:
        return {"gamma": self.res.gamma, "eta0": self.res.eta0}


@dataclass(frozen=True)
class Tabulated(KappaModel):
    """Linear interpolation of kappa sampled from t = 0 on: solver output or
    a kappa file. kappa(0) must be exactly 1 and every value finite, |kappa| <= 1."""

    grid: TimeGrid
    values: np.ndarray
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # before t_start np.interp would repeat values[0] without data
        if self.grid.t_start != 0.0:
            raise ValidationError("tabulated kappa must start at t = 0")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_nodes,):
            raise ValidationError(
                f"expected {self.grid.n_nodes} values, got shape {vals.shape}"
            )
        if vals[0] != 1.0:
            raise ValidationError("tabulated kappa must start at exactly 1")
        if not np.all(np.abs(vals) <= 1.0):
            raise ValidationError("tabulated kappa must be finite with |kappa| <= 1")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_nodes", self.grid.nodes())

    def evaluate(self, t):
        arr = _check_times(t)
        if np.any(arr > self.grid.t_end * (1 + 1e-12) + 1e-12):
            raise ValidationError("evaluation time beyond the tabulated range")
        return np.interp(arr, self._nodes, self.values)

    def label(self) -> str:
        return "tabulated"

    def params(self) -> dict[str, object]:
        return {
            "t_start": self.grid.t_start,
            "t_end": self.grid.t_end,
            "step": self.grid.step,
        }

    def to_csv(self, fp: IO[str]) -> None:
        """The kappa file that ``--kappa-file`` reads: the grid, then rows t,kappa."""
        rows = np.column_stack((self._nodes, self.values))
        write_csv(fp, "kappa", self.params(), ["t", "kappa"], rows)
