"""Spin-squeezing dynamics of one-axis-twisted spin-1/2 ensembles under
per-qubit Markovian and non-Markovian decoherence.

Closed-form squeezing parameters (two families: the classic reference
expressions and exact channel expectation values), the decoherence
function kappa(t) for Lorentzian reservoirs with a generic memory-kernel
solver, an explicit small-N density-matrix cross-check, and death/revival
analysis of the resulting curves.
"""

from .analytic import (
    Form,
    OatCoefficients,
    SqueezingCurve,
    channel_xi2,
    curve_evaluator,
    decohered_moments,
    oat_coefficients,
    optimal_alpha,
    squeezing_curve,
    xi2_oat,
    xi2_prime_oat,
)
from .deathtimes import death_report, default_coarse_step, squeezed_intervals
from .kappa import (
    KappaModel,
    KappaSeries,
    LorentzianClosedForm,
    MarkovianExponential,
    MemoryKernel,
    Tabulated,
    kappa_lorentzian,
    kappa_markovian,
    kappa_zeros,
    solve_volterra,
)
from .model import (
    ChannelKind,
    Definition,
    EnsembleWarning,
    LindbladParams,
    Regime,
    ReservoirConfig,
    TimeGrid,
    reservoir_regime,
    validate_ensemble,
)
from .moments import CollectiveMoments
from .oracle import (
    apply_channel,
    build_oat_state,
    collective_moments,
    integrate_single_qubit_generator,
    kraus_operators,
    xi2_from_moments,
    xi2_prime_from_moments,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ChannelKind",
    "Definition",
    "EnsembleWarning",
    "LindbladParams",
    "Regime",
    "ReservoirConfig",
    "TimeGrid",
    "reservoir_regime",
    "validate_ensemble",
    # kappa
    "KappaModel",
    "KappaSeries",
    "LorentzianClosedForm",
    "MarkovianExponential",
    "MemoryKernel",
    "Tabulated",
    "kappa_lorentzian",
    "kappa_markovian",
    "kappa_zeros",
    "solve_volterra",
    # analytic
    "Form",
    "OatCoefficients",
    "SqueezingCurve",
    "channel_xi2",
    "curve_evaluator",
    "decohered_moments",
    "oat_coefficients",
    "optimal_alpha",
    "squeezing_curve",
    "xi2_oat",
    "xi2_prime_oat",
    # moments / oracle
    "CollectiveMoments",
    "apply_channel",
    "build_oat_state",
    "collective_moments",
    "integrate_single_qubit_generator",
    "kraus_operators",
    "xi2_from_moments",
    "xi2_prime_from_moments",
    # death/revival
    "death_report",
    "default_coarse_step",
    "squeezed_intervals",
    # verification
    "run_verification",
]
