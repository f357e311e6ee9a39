"""Cross-validation of the closed forms against the explicit-state
computation.

Runs the full matrix of channels x definitions x (N, alpha, kappa): the
Form.EXACT closed forms must match the moments of the decohered state,
computed from its one- and two-qubit reduced states (every case of the
matrix in one stacked pass), to tolerance; the Form.REFERENCE values are
recorded alongside with their deviation (they are not exact expectation
values and are not gated). Equal values agree, +inf included (a vanishing
mean spin gives +inf on both routes); a nan on either route fails.
Also fits the decoherence parameter that makes each operator-sum channel
reproduce the constant-rate generator evolution, and reports the fitted
exponent per unit rate.

``run_verification`` returns a ``VerificationReport`` whose ``cases``,
``two_particle_reductions`` and ``generator_fits`` are the report's rows:
flat dicts, as the JSON report writes them.
"""

from __future__ import annotations

import math
from itertools import product
from typing import NamedTuple

import numpy as np

from ._format import SCHEMA
from .analytic import Form, _kappa_map, oat_coefficients, xi2_oat
from .errors import ValidationError
from .model import ChannelKind, Definition, LindbladParams, _require_finite
from .moments import _xi2_prime_rows, _xi2_rows
from .oracle import (
    N_CAP,
    _moment_rows,
    apply_channel,
    build_oat_state,
    integrate_single_qubit_generator,
    reduced_sums,
)

__all__ = ["VerificationReport", "run_verification"]

DEFAULT_ALPHAS = (0.05, 0.2, 0.5)
DEFAULT_KAPPAS = (1.0, 0.7, 0.3, -0.4)

#: the constant-rate generator each channel is fitted to
_GENERATORS = {
    ChannelKind.DEPHASING: LindbladParams.dephasing,
    ChannelKind.DEPOLARIZING: LindbladParams.depolarizing,
    ChannelKind.DAMPING: LindbladParams.damping,
}

Row = dict[str, object]

#: the keys of a case row, in report order
_CASE_KEYS = (
    "n", "alpha", "kappa", "channel", "definition",
    "oracle", "exact", "reference", "delta_exact", "delta_reference", "passed",
)


class VerificationReport(NamedTuple):
    """The verification report: its verdict, and its rows in report order.

    ``cases`` holds one row per (n, alpha, channel, kappa, definition);
    ``generator_fits`` one per channel, whose ``exponent_ratio`` is
    -ln(kappa_fit)/(rate * t): the decay exponent of the fitted kappa per
    unit generator rate (1/2 for all three channels, i.e.
    kappa(t) = exp(-rate*t/2)).
    """

    tolerance: float
    all_passed: bool
    worst_exact_delta: float
    cases: list[Row]
    two_particle_reductions: list[Row]
    generator_fits: list[Row]

    def to_json(self) -> dict[str, object]:
        return {"schema": SCHEMA, "kind": "verification", **self._asdict()}

    def summary_lines(self) -> list[str]:
        worst_ref = _worst(self.cases, "delta_reference")
        return [
            f"cases: {len(self.cases)}, worst |oracle - exact| = "
            f"{self.worst_exact_delta:.3e} (tolerance {self.tolerance:g})",
            f"reference-form deviation from oracle up to {worst_ref:.3e} "
            "(informational; reference forms freeze the squeezing angle)",
            *(
                f"generator fit {g['channel']}: kappa(t) = exp(-{g['exponent_ratio']:.6f} "
                f"* rate * t), state match {g['max_state_delta']:.2e}"
                for g in self.generator_fits
            ),
            "PASS" if self.all_passed else "FAIL",
        ]


def _worst(rows: list[Row], key: str) -> float:
    """The largest ``row[key]`` (0 for no rows); nan if any is nan, in
    whatever order the rows come."""
    return float(np.max([row[key] for row in rows], initial=0.0))


def _delta(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b|, with equal values (+inf included) 0 and a nan kept."""
    with np.errstate(invalid="ignore"):  # inf - inf
        return np.where(a == b, 0.0, np.abs(a - b))


def _random_densities(rng: np.random.Generator, count: int) -> np.ndarray:
    out = []
    for _ in range(count):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        out.append(rho / np.trace(rho).real)
    return np.stack(out)


def _fit_generators(rate: float, t: float, tolerance: float) -> list[Row]:
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
        max_state_delta = float(np.max(np.abs(evolved[1:] - via_map)))
        fits.append({
            "channel": kind.value,
            "rate": rate,
            "t": t,
            "kappa_fit": kappa_fit,
            "exponent_ratio": -math.log(kappa_fit) / (rate * t),
            "max_state_delta": max_state_delta,
            "passed": max_state_delta <= tolerance,
        })
    return fits


def _case_matrix(
    ensembles: list[tuple[int, float]], kappas: tuple[float, ...], tolerance: float
) -> list[Row]:
    """Every case of the (n, alpha) ensembles in report order: ensemble,
    channel, kappa, definition. Both routes run as arrays in that order."""
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
    # before any closed form raises no error out of case order; one flat
    # column in (ensemble, channel, kappa, definition) order
    oracle = np.stack([_xi2_rows(n_rows, mean, corr), _xi2_prime_rows(n_rows, mean, corr)], -1)
    oracle = oracle.ravel()

    # apply_channel has rejected any |kappa| > 1 above; each closed form
    # takes every kappa in one array call
    closed = np.empty((n_ens, n_ch, len(Definition), len(Form), n_k))
    for e, (n, alpha) in enumerate(ensembles):
        co = oat_coefficients(n, alpha)
        for c, kind in enumerate(ChannelKind):
            closed[e, c] = [
                [_kappa_map(n, co, kind, definition, form)(ks) for form in Form]
                for definition in Definition
            ]
    # one flat column per form, in the oracle's order
    by_form = dict(zip(Form, closed.transpose(3, 0, 1, 4, 2).reshape(len(Form), -1)))
    exact, reference = by_form[Form.EXACT], by_form[Form.REFERENCE]
    delta_exact = _delta(oracle, exact)
    columns = (
        oracle, exact, reference, delta_exact, _delta(oracle, reference), delta_exact <= tolerance
    )
    values = zip(*(column.tolist() for column in columns))
    labels = product(ensembles, ChannelKind, kappas, Definition)
    return [
        dict(zip(_CASE_KEYS, (n, alpha, kappa, kind.value, definition.value, *row)))
        for ((n, alpha), kind, kappa, definition), row in zip(labels, values)
    ]


def run_verification(
    max_n: int = 6,
    tolerance: float = 1e-8,
    alphas: tuple[float, ...] = DEFAULT_ALPHAS,
    kappas: tuple[float, ...] = DEFAULT_KAPPAS,
    ns: tuple[int, ...] | None = None,
    include_generator: bool = True,
) -> VerificationReport:
    """Run the oracle-vs-closed-form matrix up to max_n particles.

    An empty ``ns``, ``alphas`` or ``kappas``, or a non-finite alpha,
    raises ``ValidationError`` before any case is computed.
    """
    if not 2 <= max_n <= N_CAP:
        raise ValidationError(f"max_n must lie in [2, {N_CAP}], got {max_n}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance}")
    if ns is None:
        ns = tuple(n for n in (2, 3, 4, 5, 6, 8, 10, 12, 14, 16) if n <= max_n)
    # an empty case matrix would pass without checking anything
    for name, values in (("ns", ns), ("alphas", alphas), ("kappas", kappas)):
        if len(values) == 0:
            raise ValidationError(f"{name} must hold at least one value")
    for alpha in alphas:
        _require_finite("alpha", alpha)
    cases = _case_matrix([(n, alpha) for n in ns for alpha in alphas], kappas, tolerance)
    # two-particle reduction: the variance form collapses to 1/(1 + sin a)
    reductions = [
        {"alpha": alpha, "delta": abs(xi2_oat(2, alpha) - 1.0 / (1.0 + math.sin(alpha)))}
        for alpha in (alphas if 2 in ns else ())
    ]
    fits = _fit_generators(rate=0.01, t=35.0, tolerance=tolerance) if include_generator else []
    all_passed = all(row["passed"] for row in cases + fits) and all(
        row["delta"] <= tolerance for row in reductions
    )
    return VerificationReport(
        tolerance, all_passed, _worst(cases, "delta_exact"), cases, reductions, fits
    )
