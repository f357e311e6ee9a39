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
from .deathtimes import (
    SqueezedInterval,
    default_coarse_step,
    final_death_time,
    first_death_time,
    squeezed_intervals,
)
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
    EnsembleConfig,
    EnsembleWarning,
    LindbladParams,
    Regime,
    ReservoirConfig,
    SqueezingValue,
    TimeGrid,
    reservoir_regime,
    validate_ensemble,
)
from .moments import CollectiveMoments
from .oracle import (
    apply_channel,
    apply_field_rotation,
    build_oat_state,
    collective_moments,
    integrate_single_qubit_generator,
    kraus_operators,
    validate_density_matrix,
    xi2_from_moments,
    xi2_from_state,
    xi2_prime_from_moments,
    xi2_prime_from_state,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "ChannelKind",
    "Definition",
    "EnsembleConfig",
    "EnsembleWarning",
    "LindbladParams",
    "Regime",
    "ReservoirConfig",
    "SqueezingValue",
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
    "apply_field_rotation",
    "build_oat_state",
    "collective_moments",
    "integrate_single_qubit_generator",
    "kraus_operators",
    "validate_density_matrix",
    "xi2_from_moments",
    "xi2_from_state",
    "xi2_prime_from_moments",
    "xi2_prime_from_state",
    # death/revival
    "SqueezedInterval",
    "default_coarse_step",
    "final_death_time",
    "first_death_time",
    "squeezed_intervals",
    # verification
    "run_verification",
]
