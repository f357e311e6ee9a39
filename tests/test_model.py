import math

import numpy as np
import pytest

from squeeze_dyn import (
    EnsembleWarning,
    LindbladParams,
    Regime,
    ReservoirConfig,
    TimeGrid,
    reservoir_regime,
    validate_ensemble,
)
from squeeze_dyn.errors import NonFiniteParameter, NonPositiveN, ValidationError
from squeeze_dyn.model import MAX_GRID_NODES


def test_validate_interior_angle_has_no_warnings():
    res = validate_ensemble(10, 0.1)
    assert type(res) is tuple
    assert res == ()


def test_validate_flags_product_state_at_pi():
    res = validate_ensemble(10, math.pi)
    assert res == (EnsembleWarning.PRODUCT_STATE,)


def test_validate_flags_graph_state_at_half_pi():
    res = validate_ensemble(10, math.pi / 2)
    assert res == (EnsembleWarning.GRAPH_STATE,)


def test_validate_flags_angles_outside_regime():
    res = validate_ensemble(10, -0.3)
    assert res == (EnsembleWarning.OUTSIDE_SQUEEZED_REGIME,)


def test_validate_rejects_bad_n_and_nonfinite():
    with pytest.raises(NonPositiveN):
        validate_ensemble(0, 0.1)
    with pytest.raises(NonFiniteParameter):
        validate_ensemble(3, math.nan)


@pytest.mark.parametrize("alpha", [1e308, -1e308, 8.99e307])
def test_validate_rejects_an_alpha_whose_double_overflows(alpha):
    # the closed forms take cos(2*alpha)
    with pytest.raises(NonFiniteParameter, match="2\\*alpha overflows"):
        validate_ensemble(3, alpha)
    # the largest doubles that still double finitely pass
    validate_ensemble(3, 8.98e307)


def test_validate_does_not_call_a_huge_angle_a_product_state():
    # the endpoint tolerance 1e-12 |alpha/(pi/2)| would reach 1/2 near
    # alpha = 7.9e11 and claim every angle; here cos(2 alpha) = 0.568
    assert validate_ensemble(10, 1e17) == (
        EnsembleWarning.OUTSIDE_SQUEEZED_REGIME,
    )
    assert validate_ensemble(10, 8.98e307) == (
        EnsembleWarning.OUTSIDE_SQUEEZED_REGIME,
    )


def test_validate_flags_every_multiple_of_half_pi_up_to_a_million():
    ks = sorted({*range(-200, 2001), *np.geomspace(2000, 10**6, 400).astype(int), 10**6})
    for k in ks:
        want = EnsembleWarning.PRODUCT_STATE if k % 2 == 0 else EnsembleWarning.GRAPH_STATE
        assert validate_ensemble(10, k * (math.pi / 2)) == (want,), k


def test_reservoir_regime_strong_d_value():
    regime, d = reservoir_regime(ReservoirConfig(gamma=0.01, eta0=10.0))
    assert regime is Regime.STRONG
    assert d == pytest.approx(0.447102, abs=1e-6)


def test_reservoir_regime_weak_and_critical():
    assert reservoir_regime(ReservoirConfig(0.01, 0.001))[0] is Regime.WEAK
    assert reservoir_regime(ReservoirConfig(0.01, 0.005))[0] is Regime.CRITICAL


def test_reservoir_regime_matches_discriminant_sign():
    rng = np.random.default_rng(7)
    for _ in range(200):
        gamma = float(rng.uniform(1e-3, 2.0))
        eta0 = float(rng.uniform(1e-4, 5.0))
        res = ReservoirConfig(gamma, eta0)
        regime, _ = reservoir_regime(res)
        disc = 2 * eta0 * gamma - gamma * gamma
        if regime is Regime.STRONG:
            assert disc > 0
        elif regime is Regime.WEAK:
            assert disc < 0


def test_reservoir_rejects_nonpositive():
    with pytest.raises(ValidationError):
        ReservoirConfig(gamma=0.0, eta0=1.0)
    with pytest.raises(ValidationError):
        ReservoirConfig(gamma=0.1, eta0=-1.0)


@pytest.mark.parametrize(
    "gamma,eta0",
    [(1e-300, 1e-300), (1e-154, 1.0), (1.0, 1e-320), (1e200, 1e200), (1.0, 1e308)],
)
def test_reservoir_rejects_products_outside_the_normal_floats(gamma, eta0):
    # gamma^2 or eta0*gamma underflowing sent kappa into a division by
    # zero; overflow made the discriminant raise or kappa NaN
    with pytest.raises(ValidationError, match="normal float"):
        ReservoirConfig(gamma, eta0)


def test_reservoir_accepts_small_normal_products():
    res = ReservoirConfig(1e-150, 1e-150)
    assert res.discriminant == pytest.approx(1e-300, rel=1e-12)


@pytest.mark.parametrize(
    "params,expected",
    [
        (LindbladParams.dephasing(0.3), (0.0, 0.0, 0.3)),
        (LindbladParams.depolarizing(0.3), (0.5, 0.3, 0.3)),
        (LindbladParams.damping(0.3), (1.0, 0.3, 0.15)),
    ],
)
def test_lindblad_specializations_round_trip(params, expected):
    assert (params.s, params.b, params.c) == expected


def test_lindblad_damping_satisfies_b_equals_2c():
    p = LindbladParams.damping(0.42)
    assert p.b == 2 * p.c == 0.42


def test_lindblad_rejects_invalid():
    with pytest.raises(ValidationError):
        LindbladParams(s=1.5, b=0.1, c=0.1)
    with pytest.raises(ValidationError):
        LindbladParams(s=0.5, b=-0.1, c=0.1)


def test_time_grid_node_count_and_nodes():
    grid = TimeGrid(0.0, 100.0, 0.005)
    assert grid.n_nodes == 20001
    nodes = grid.nodes()
    assert nodes[0] == 0.0
    assert nodes[-1] == pytest.approx(100.0, abs=1e-9)


def test_time_grid_rejects_bad_spans():
    with pytest.raises(ValidationError):
        TimeGrid(1.0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        TimeGrid(-1.0, 1.0, 0.1)


@pytest.mark.parametrize("step", [1e-12, 5e-324])  # the second overflows span/step
def test_time_grid_rejects_too_many_nodes(step):
    with pytest.raises(ValidationError, match="grid nodes"):
        TimeGrid(0.0, 200.0, step)
    assert TimeGrid(0.0, (MAX_GRID_NODES - 1) * 0.5, 0.5).n_nodes == MAX_GRID_NODES
