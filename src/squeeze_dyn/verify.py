"""Cross-validation of the closed forms against the explicit-state
computation.

Runs the full matrix of channels x definitions x (N, alpha, kappa): the
Form.EXACT closed forms must match the moments of the decohered state,
computed from its one- and two-qubit reduced states, to tolerance; the Form.REFERENCE values are recorded alongside with their
deviation (they are not exact expectation values and are not gated).
Also fits the decoherence parameter that makes each operator-sum channel
reproduce the constant-rate generator evolution, and reports the fitted
exponent per unit rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._format import SCHEMA
from .analytic import Form, _xi2_pure_raw, channel_xi2
from .errors import ValidationError
from .model import ChannelKind, Definition, LindbladParams
from .oracle import (
    N_CAP,
    apply_channel,
    build_oat_state,
    integrate_single_qubit_generator,
    moments_from_reduced,
    reduced_sums,
    xi2_from_moments,
    xi2_prime_from_moments,
)

__all__ = ["CaseResult", "GeneratorFit", "VerificationReport", "run_verification"]

DEFAULT_ALPHAS = (0.05, 0.2, 0.5)
DEFAULT_KAPPAS = (1.0, 0.7, 0.3, -0.4)


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


def _random_densities(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    out = []
    for _ in range(count):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        out.append(rho / np.trace(rho).real)
    return out


def _fit_generator(
    kind: ChannelKind, rate: float, t: float, tolerance: float
) -> GeneratorFit:
    if kind is ChannelKind.DEPHASING:
        params = LindbladParams.dephasing(rate)
    elif kind is ChannelKind.DEPOLARIZING:
        params = LindbladParams.depolarizing(rate)
    else:
        params = LindbladParams.damping(rate)

    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    up = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    # the fit state and 8 random densities, integrated as one batch
    fit_state = up if kind is ChannelKind.DAMPING else plus
    randoms = _random_densities(np.random.default_rng(20240917), 8)
    evolved = integrate_single_qubit_generator(params, np.stack([fit_state, *randoms]), t)
    chi_t = evolved[0]
    if kind is ChannelKind.DAMPING:
        # fit from the excited population decay
        kappa_fit = math.sqrt(chi_t[1, 1].real)
    else:
        # fit from the off-diagonal decay (dephasing) or the Bloch-vector
        # contraction (depolarizing)
        kappa_fit = math.sqrt(abs(chi_t[0, 1]) / 0.5)

    worst = 0.0
    for chi0, via_gen in zip(randoms, evolved[1:]):
        via_map = apply_channel(chi0, kind, kappa_fit)
        worst = max(worst, float(np.max(np.abs(via_gen - via_map))))
    exponent_ratio = -math.log(kappa_fit) / (rate * t)
    return GeneratorFit(
        channel=kind,
        rate=rate,
        t=t,
        kappa_fit=kappa_fit,
        exponent_ratio=exponent_ratio,
        max_state_delta=worst,
        tolerance=tolerance,
    )


def _ensemble_cases(
    n: int, alpha: float, kappas: tuple[float, ...], tolerance: float
) -> list[CaseResult]:
    # per-qubit channels commute with the partial trace: reduce the pure
    # state once, then decohere the 2x2 and 4x4 sums
    one, pair = reduced_sums(build_oat_state(n, alpha), n)
    cases = []
    for kind in ChannelKind:
        for kappa in kappas:
            mom = moments_from_reduced(
                apply_channel(one, kind, kappa), apply_channel(pair, kind, kappa), n
            )
            oracle_xi = xi2_from_moments(mom).value
            oracle_xip = xi2_prime_from_moments(mom).value
            for definition, oracle_val in (
                (Definition.XI, oracle_xi),
                (Definition.XI_PRIME, oracle_xip),
            ):
                exact = channel_xi2(n, alpha, kappa, kind, definition, Form.EXACT).value
                reference = channel_xi2(n, alpha, kappa, kind, definition, Form.REFERENCE).value
                cases.append(
                    CaseResult(
                        n=n,
                        alpha=alpha,
                        kappa=kappa,
                        channel=kind,
                        definition=definition,
                        oracle=oracle_val,
                        exact=exact,
                        reference=reference,
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
    for n in ns:
        for alpha in alphas:
            report.cases.extend(_ensemble_cases(n, alpha, kappas, tolerance))

    # two-particle reduction: the variance form collapses to 1/(1 + sin a)
    if 2 in ns:
        for alpha in alphas:
            closed = 1.0 / (1.0 + math.sin(alpha))
            report.reduction_deltas.append(
                {"alpha": alpha, "delta": abs(_xi2_pure_raw(2, alpha) - closed)}
            )

    if include_generator:
        for kind in ChannelKind:
            report.generator_fits.append(_fit_generator(kind, rate=0.01, t=35.0, tolerance=tolerance))

    return report
