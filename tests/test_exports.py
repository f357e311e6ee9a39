import importlib
import pkgutil

import pytest

import squeeze_dyn

MODULES = ["squeeze_dyn"] + [
    f"squeeze_dyn.{info.name}" for info in pkgutil.iter_modules(squeeze_dyn.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)


PUBLIC = [
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


def test_public_surface_is_pinned():
    # adding or removing a public name is a visible diff here
    assert squeeze_dyn.__all__ == PUBLIC
