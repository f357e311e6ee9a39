"""Cross-validation of the closed forms against the explicit-state
computation.

Runs the full matrix of channels x definitions x (N, alpha, kappa): the
Form.EXACT closed forms must match the moments of the decohered state,
computed from its one- and two-qubit reduced states (every case of the
matrix in one stacked pass), to tolerance; the Form.REFERENCE values are
recorded alongside with their deviation (they are not exact expectation
values and are not gated).
Also fits the decoherence parameter that makes each operator-sum channel
reproduce the constant-rate generator evolution, and reports the fitted
exponent per unit rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._format import SCHEMA
from .analytic import Form, _form_map, oat_coefficients, xi2_oat
from .errors import ValidationError
from .model import ChannelKind, Definition, LindbladParams
from .moments import _xi2_prime_rows, _xi2_rows
from .oracle import (
    N_CAP,
    _moment_rows,
    apply_channel,
    build_oat_state,
    integrate_single_qubit_generator,
    reduced_sums,
)

__all__ = ["CaseResult", "GeneratorFit", "VerificationReport", "run_verification"]

DEFAULT_ALPHAS = (0.05, 0.2, 0.5)
DEFAULT_KAPPAS = (1.0, 0.7, 0.3, -0.4)

#: the constant-rate generator each channel is fitted to
_GENERATORS = {
    ChannelKind.DEPHASING: LindbladParams.dephasing,
    ChannelKind.DEPOLARIZING: LindbladParams.depolarizing,
    ChannelKind.DAMPING: LindbladParams.damping,
}


@dataclass(frozen=True)
class CaseResult:
    n: int
    alpha: float
    kappa: float
    channel: ChannelKind
    definition: Definition
    oracle: float
    exact: float
    reference: float
    tolerance: float

    @property
    def delta_exact(self) -> float:
        return abs(self.oracle - self.exact)

    @property
    def delta_reference(self) -> float:
        return abs(self.oracle - self.reference)

    @property
    def passed(self) -> bool:
        return self.delta_exact <= self.tolerance

    def row(self) -> dict[str, object]:
        return {
            "n": self.n,
            "alpha": self.alpha,
            "kappa": self.kappa,
            "channel": self.channel.value,
            "definition": self.definition.value,
            "oracle": self.oracle,
            "exact": self.exact,
            "reference": self.reference,
            "delta_exact": self.delta_exact,
            "delta_reference": self.delta_reference,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class GeneratorFit:
    """Operator-sum parameter fitted from the generator solution.

    ``exponent_ratio`` is -ln(kappa_fit)/(rate * t): the decay exponent of
    the fitted kappa per unit generator rate (1/2 for all three channels,
    i.e. kappa(t) = exp(-rate*t/2)).
    """

    channel: ChannelKind
    rate: float
    t: float
    kappa_fit: float
    exponent_ratio: float
    max_state_delta: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_state_delta <= self.tolerance

    def row(self) -> dict[str, object]:
        return {
            "channel": self.channel.value,
            "rate": self.rate,
            "t": self.t,
            "kappa_fit": self.kappa_fit,
            "exponent_ratio": self.exponent_ratio,
            "max_state_delta": self.max_state_delta,
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    tolerance: float
    cases: list[CaseResult] = field(default_factory=list)
    reduction_deltas: list[dict[str, float]] = field(default_factory=list)
    generator_fits: list[GeneratorFit] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return (
            all(c.passed for c in self.cases)
            and all(g.passed for g in self.generator_fits)
            and all(r["delta"] <= self.tolerance for r in self.reduction_deltas)
        )

    @property
    def worst_exact_delta(self) -> float:
        return max((c.delta_exact for c in self.cases), default=0.0)

    def to_json(self) -> dict[str, object]:
        return {
            "schema": SCHEMA,
            "kind": "verification",
            "tolerance": self.tolerance,
            "all_passed": self.all_passed,
            "worst_exact_delta": self.worst_exact_delta,
            "cases": [c.row() for c in self.cases],
            "two_particle_reductions": self.reduction_deltas,
            "generator_fits": [g.row() for g in self.generator_fits],
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"cases: {len(self.cases)}, worst |oracle - exact| = "
            f"{self.worst_exact_delta:.3e} (tolerance {self.tolerance:g})"
        ]
        worst_ref = max((c.delta_reference for c in self.cases), default=0.0)
        lines.append(
            f"reference-form deviation from oracle up to {worst_ref:.3e} "
            "(informational; reference forms freeze the squeezing angle)"
        )
        for g in self.generator_fits:
            lines.append(
                f"generator fit {g.channel.value}: kappa(t) = exp(-{g.exponent_ratio:.6f} "
                f"* rate * t), state match {g.max_state_delta:.2e}"
            )
        lines.append("PASS" if self.all_passed else "FAIL")
        return lines


def _random_densities(rng: np.random.Generator, count: int) -> np.ndarray:
    out = []
    for _ in range(count):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        out.append(rho / np.trace(rho).real)
    return np.stack(out)


def _fit_generators(rate: float, t: float, tolerance: float) -> list[GeneratorFit]:
    """One fit per channel, in ``ChannelKind`` order, from one batched
    integration of the three generators."""
    params = [_GENERATORS[kind](rate) for kind in ChannelKind]
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    up = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    # per channel: the fit state and 8 random densities
    randoms = _random_densities(np.random.default_rng(20240917), 8)
    chi0 = np.stack([
        np.concatenate([[up if kind is ChannelKind.DAMPING else plus], randoms])
        for kind in ChannelKind
    ])
    fits = []
    for kind, evolved in zip(ChannelKind, integrate_single_qubit_generator(params, chi0, t)):
        chi_t = evolved[0]
        if kind is ChannelKind.DAMPING:
            # fit from the excited population decay
            kappa_fit = math.sqrt(chi_t[1, 1].real)
        else:
            # fit from the off-diagonal decay (dephasing) or the Bloch-vector
            # contraction (depolarizing)
            kappa_fit = math.sqrt(abs(chi_t[0, 1]) / 0.5)

        via_map = apply_channel(randoms, kind, np.full(len(randoms), kappa_fit))
        fits.append(
            GeneratorFit(
                channel=kind,
                rate=rate,
                t=t,
                kappa_fit=kappa_fit,
                exponent_ratio=-math.log(kappa_fit) / (rate * t),
                max_state_delta=float(np.max(np.abs(evolved[1:] - via_map))),
                tolerance=tolerance,
            )
        )
    return fits


def _case_matrix(
    ensembles: list[tuple[int, float]], kappas: tuple[float, ...], tolerance: float
) -> list[CaseResult]:
    """Every case of the (n, alpha) ensembles in report order: ensemble,
    channel, kappa, definition. The oracle side runs as one pass of
    stacked rows in that order."""
    if not ensembles:
        return []
    ks = np.array(kappas, dtype=float)
    n_ens, n_ch, n_k = len(ensembles), len(ChannelKind), len(ks)
    # per-qubit channels commute with the partial trace: reduce each pure
    # state once, then decohere the 2x2 and 4x4 sums of every ensemble at
    # every kappa, one apply_channel call per channel and size
    sums = [reduced_sums(build_oat_state(n, alpha), n) for n, alpha in ensembles]
    row_kappas = np.tile(ks, n_ens)
    decohered = []
    for size, part in ((2, 0), (4, 1)):
        stacked = np.repeat(np.stack([s[part] for s in sums]), n_k, axis=0)
        per_channel = [
            apply_channel(stacked, kind, row_kappas).reshape(n_ens, n_k, size, size)
            for kind in ChannelKind
        ]
        decohered.append(np.stack(per_channel, axis=1).reshape(-1, size, size))
    n_rows = np.repeat([n for n, _ in ensembles], n_ch * n_k)
    mean, corr = _moment_rows(*decohered, n_rows)
    # <J^2> - N/2 is at least N/4 on these states, so scoring every row
    # before any closed form raises no error out of case order
    shape = (n_ens, n_ch, n_k)
    oracle = {
        Definition.XI: _xi2_rows(n_rows, mean, corr).reshape(shape).tolist(),
        Definition.XI_PRIME: _xi2_prime_rows(n_rows, mean, corr).reshape(shape).tolist(),
    }

    cases = []
    for e, (n, alpha) in enumerate(ensembles):
        co = oat_coefficients(n, alpha)
        for c, kind in enumerate(ChannelKind):
            # apply_channel has rejected any |kappa| > 1 above; each closed
            # form takes every kappa in one array call
            closed = {
                (definition, form): _form_map(n, co, kind, definition, form)(ks).tolist()
                for definition in Definition
                for form in Form
            }
            for i, kappa in enumerate(kappas):
                for definition in Definition:
                    cases.append(
                        CaseResult(
                            n=n,
                            alpha=alpha,
                            kappa=kappa,
                            channel=kind,
                            definition=definition,
                            oracle=oracle[definition][e][c][i],
                            exact=closed[definition, Form.EXACT][i],
                            reference=closed[definition, Form.REFERENCE][i],
                            tolerance=tolerance,
                        )
                    )
    return cases


def run_verification(
    max_n: int = 6,
    tolerance: float = 1e-8,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    kappas: tuple[float, ...] = DEFAULT_KAPPAS,
    ns: tuple[int, ...] | None = None,
    include_generator: bool = True,
) -> VerificationReport:
    """Run the oracle-vs-closed-form matrix up to max_n particles."""
    if not 2 <= max_n <= N_CAP:
        raise ValidationError(f"max_n must lie in [2, {N_CAP}], got {max_n}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance}")
    if ns is None:
        ns = tuple(n for n in (2, 3, 4, 5, 6, 8, 10, 12, 14, 16) if n <= max_n)
    report = VerificationReport(tolerance=tolerance)
    report.cases = _case_matrix([(n, alpha) for n in ns for alpha in alphas], kappas, tolerance)

    # two-particle reduction: the variance form collapses to 1/(1 + sin a)
    if 2 in ns:
        for alpha in alphas:
            closed = 1.0 / (1.0 + math.sin(alpha))
            report.reduction_deltas.append(
                {"alpha": alpha, "delta": abs(xi2_oat(2, alpha) - closed)}
            )

    if include_generator:
        report.generator_fits = _fit_generators(rate=0.01, t=35.0, tolerance=tolerance)

    return report
