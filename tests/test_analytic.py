import math
import sys
from itertools import product

import numpy as np
import pytest

from squeeze_dyn import (
    ChannelKind,
    Definition,
    Form,
    MarkovianExponential,
    OatCoefficients,
    TimeGrid,
    apply_channel,
    build_oat_state,
    channel_xi2,
    collective_moments,
    decohered_moments,
    oat_coefficients,
    optimal_alpha,
    squeezing_curve,
    xi2_from_moments,
    xi2_oat,
    xi2_prime_from_moments,
    xi2_prime_oat,
)
from squeeze_dyn.analytic import _kappa_map, _zeta, xi2_oat_curve
from squeeze_dyn.errors import DegenerateDenominator, InvalidKappa, NTooSmall, ValidationError

PI_6 = math.pi / 6


def test_oat_coefficients_vanish_at_zero_angle():
    co = oat_coefficients(10, 0.0)
    assert co.a_coef == 0.0 and co.b_coef == 0.0 and co.hypot == 0.0


def test_oat_coefficients_two_particles():
    co = oat_coefficients(2, PI_6)
    assert co.a_coef == 0.0
    assert co.b_coef == pytest.approx(2.0, rel=1e-15)


def test_oat_coefficients_requires_two_particles():
    with pytest.raises(NTooSmall):
        oat_coefficients(1, 0.1)


@pytest.mark.parametrize("n", [2, 3, 10, 66, 67, 68, 100, 1000])
def test_oat_coefficients_match_50_digit_values(n):
    # alpha > pi/4 makes cos(2a) negative, so N = 67 takes the
    # negative-base, odd-exponent branch of the log-space power
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    alphas = [0.05, 0.2, 0.7, 1.0, 1.3, 1.5] + ([optimal_alpha(n)[0]] if n >= 3 else [])
    for alpha in alphas:
        a = mp.mpf(alpha)
        c2 = mp.cos(2 * a) ** (n - 2)
        big_a, big_b = 1 - c2, 4 * mp.sin(a) * mp.cos(a) ** (n - 2)
        want = {
            "a_coef": big_a,
            "b_coef": big_b,
            "hypot": mp.sqrt(big_a**2 + big_b**2),
            "c2": c2,
            "x1": mp.cos(a) ** (n - 1),
            "cpow": mp.cos(a) ** (2 * n - 2),
        }
        co = oat_coefficients(n, alpha)
        for field, value in want.items():
            got = getattr(co, field)
            # a true value below the normal float range may underflow to 0
            assert abs(mp.mpf(got) - value) <= 1e-12 * abs(value) + sys.float_info.min, (
                field, alpha, got, value,
            )


def test_xi2_oat_baseline_is_exactly_one():
    for n in (2, 5, 10, 100):
        assert xi2_oat(n, 0.0) == 1.0
        assert xi2_prime_oat(n, 0.0) == 1.0
        assert xi2_prime_oat(n, 0.0, Form.EXACT) == 1.0


def test_xi2_oat_two_particle_closed_form():
    assert xi2_oat(2, PI_6) == pytest.approx(2.0 / 3.0, rel=1e-14)
    for alpha in np.linspace(0.01, 1.5, 40):
        assert xi2_oat(2, alpha) == pytest.approx(
            1.0 / (1.0 + math.sin(alpha)), rel=1e-14
        )


def test_xi2_oat_divergence_tagged_at_cos_zero():
    # float cos(pi/2) is ~6e-17, so the denominator only reaches exact
    # zero once the power underflows; the value is tagged, not raised
    assert xi2_oat(4, math.pi / 2) > 1e90
    assert math.isinf(xi2_oat(200, math.pi / 2))


def test_xi2_prime_oat_two_particles_both_forms():
    # at N=2 the reference normalization is identically 1
    assert xi2_prime_oat(2, PI_6) == pytest.approx(0.5, rel=1e-14)
    assert xi2_prime_oat(2, PI_6, Form.EXACT) == pytest.approx(0.5, rel=1e-14)


def test_xi2_prime_exact_matches_state_computation():
    psi = build_oat_state(4, 0.3)
    oracle = xi2_prime_from_moments(collective_moments(psi))
    assert xi2_prime_oat(4, 0.3, Form.EXACT) == pytest.approx(oracle, abs=1e-10)


def test_squeezing_functions_return_floats():
    psi = build_oat_state(4, 0.3)
    mixed = collective_moments(np.eye(2**3, dtype=complex) / 2**3)
    values = {
        "xi2_oat": xi2_oat(10, 0.2),
        "xi2_prime_oat reference": xi2_prime_oat(10, 0.2, Form.REFERENCE),
        "xi2_prime_oat exact": xi2_prime_oat(10, 0.2, Form.EXACT),
        "channel_xi2": channel_xi2(10, 0.1, 0.0, ChannelKind.DEPOLARIZING, Definition.XI),
        "xi2_from_moments": xi2_from_moments(mixed),
        "xi2_prime_from_moments": xi2_prime_from_moments(mixed),
        "xi2_from_moments pure": xi2_from_moments(collective_moments(psi)),
        "xi2_prime_from_moments pure": xi2_prime_from_moments(collective_moments(psi)),
    }
    for name, value in values.items():
        assert type(value) is float, name
    # divergences are +inf values, not exceptions
    assert values["channel_xi2"] == math.inf
    assert values["xi2_from_moments"] == math.inf


def test_zeta_reduces_to_pure_numerator_at_kappa_one():
    for n in (2, 3, 5, 8, 13, 21, 34, 64):
        for alpha in np.linspace(1e-3, math.pi / 2 - 1e-3, 100):
            co = oat_coefficients(n, alpha)
            pure = 1.0 - (n - 1) * (co.hypot - co.a_coef) / 4.0
            assert _zeta(n, co)(1.0) == pytest.approx(pure, abs=1e-13)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("form", list(Form))
def test_kappa_one_reduces_to_pure_variance_form(kind, form):
    for n, alpha in [(4, 0.3), (10, 0.2), (6, 0.5)]:
        dec = channel_xi2(n, alpha, 1.0, kind, Definition.XI, form)
        assert dec == pytest.approx(xi2_oat(n, alpha), rel=1e-14)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_kappa_one_reduces_to_pure_eigenvalue_form(kind):
    # the identity channel leaves the state pure, so both families land
    # on the exact pure value min(a, b) (the reference pure expression
    # carries its own, different normalization)
    for n, alpha in [(4, 0.3), (10, 0.2)]:
        pure_exact = xi2_prime_oat(n, alpha, Form.EXACT)
        for form in Form:
            dec = channel_xi2(n, alpha, 1.0, kind, Definition.XI_PRIME, form)
            assert dec == pytest.approx(pure_exact, rel=1e-14)


def test_dephased_kappa_zero_reference_value():
    # fully dephased: the reference form keeps the undamped normalization
    expected = 1.0 / math.cos(0.1) ** 18
    got = channel_xi2(10, 0.1, 0.0, ChannelKind.DEPHASING)
    assert got == pytest.approx(expected, rel=1e-14)
    assert expected >= 1.0


def test_damped_kappa_zero_is_coherent_state_baseline():
    for form in Form:
        got = channel_xi2(10, 0.2, 0.0, ChannelKind.DAMPING, Definition.XI, form)
        assert got == pytest.approx(1.0, rel=1e-14)


def test_depolarized_kappa_zero_diverges():
    for form in Form:
        got = channel_xi2(10, 0.1, 0.0, ChannelKind.DEPOLARIZING, Definition.XI, form)
        assert math.isinf(got)


def test_prime_depolarized_kappa_zero_equals_n():
    for form in Form:
        got = channel_xi2(10, 0.1, 0.0, ChannelKind.DEPOLARIZING, Definition.XI_PRIME, form)
        assert got == pytest.approx(10.0, rel=1e-12)


def test_kappa_out_of_range_rejected():
    with pytest.raises(InvalidKappa):
        channel_xi2(4, 0.3, 1.5, ChannelKind.DEPHASING)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("definition", list(Definition))
def test_exact_forms_even_in_kappa(kind, definition):
    for kappa in (0.25, 0.6, 0.93):
        plus = channel_xi2(5, 0.35, kappa, kind, definition, Form.EXACT)
        minus = channel_xi2(5, 0.35, -kappa, kind, definition, Form.EXACT)
        assert plus == pytest.approx(minus, rel=1e-12)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_decohered_moments_match_state_computation(kind):
    n, alpha, kappa = 4, 0.3, 0.6
    psi = build_oat_state(n, alpha)
    rho = apply_channel(np.outer(psi, psi.conj()), kind, kappa)
    exact_m = decohered_moments(n, alpha, kind, kappa)
    state_m = collective_moments(rho)
    np.testing.assert_allclose(exact_m.mean_spin, state_m.mean_spin, atol=1e-12)
    np.testing.assert_allclose(exact_m.corr, state_m.corr, atol=1e-12)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("definition", list(Definition))
def test_exact_forms_match_state_computation(kind, definition):
    n, alpha = 6, 0.2
    psi = build_oat_state(n, alpha)
    rho0 = np.outer(psi, psi.conj())
    for kappa in (0.7, 0.3, -0.4):
        rho = apply_channel(rho0, kind, kappa)
        m = collective_moments(rho)
        oracle = (
            xi2_from_moments(m) if definition is Definition.XI else xi2_prime_from_moments(m)
        )
        closed = channel_xi2(n, alpha, kappa, kind, definition, Form.EXACT)
        assert closed == pytest.approx(oracle, abs=1e-8)


def test_optimal_alpha_matches_brute_force():
    for n in (3, 10):
        alphas = np.linspace(1e-6, math.pi / 2 - 1e-6, 1_000_000)
        brute = math.sqrt(float(np.min(xi2_oat_curve(n, alphas))))
        _, xi_min = optimal_alpha(n)
        assert abs(xi_min - brute) <= 1e-8


def test_optimal_alpha_ten_particles():
    alpha_star, xi_min = optimal_alpha(10)
    assert alpha_star == pytest.approx(0.20048, abs=2e-4)
    assert xi_min**2 == pytest.approx(0.30986, abs=1e-4)


def test_optimal_alpha_requires_three():
    with pytest.raises(NTooSmall):
        optimal_alpha(2)


@pytest.mark.parametrize("n", [74_989, 100_000])
def test_optimal_alpha_below_first_scan_node(n):
    # above N ~ 6e4 the optimum lies below the first node of the bracket
    # scan; the search must reach it rather than return that node
    first_node = (math.pi / 2.0) / 2049
    alpha_star, xi_min = optimal_alpha(n)
    brute = float(np.min(xi2_oat_curve(n, np.linspace(1e-6, first_node, 200_001))))
    assert alpha_star < first_node
    # xi^2 carries ~1e-7 relative rounding noise near the optimum at this
    # N (cancellation in 1 - (N-1)(hypot - A)/4); the scan-node answer was
    # 8 % (N = 74,989) and 59 % (N = 100,000) above the minimum
    assert xi_min**2 <= brute * (1.0 + 1e-6)


def test_large_n_evaluation_is_stable():
    alpha_star, xi_min = optimal_alpha(100_000)
    assert 0 < alpha_star < 0.01
    assert 0 < xi_min < 0.1
    assert math.isfinite(xi2_oat(100_000, alpha_star))


def test_squeezing_curve_from_solver_output_matches_closed_form():
    # full pipeline: numerical kappa (a tabulated model) -> curve, against
    # the closed-form kappa driving the same formula
    from squeeze_dyn import LorentzianClosedForm, MemoryKernel, ReservoirConfig, solve_volterra

    res = ReservoirConfig(gamma=0.01, eta0=10.0)
    solved = solve_volterra(MemoryKernel.exponential(res), TimeGrid(0.0, 50.0, 0.01))
    grid = TimeGrid(0.0, 50.0, 0.5)
    curve_tab = squeezing_curve(10, 0.2, ChannelKind.DEPHASING, solved, grid)
    curve_exact = squeezing_curve(10, 0.2, ChannelKind.DEPHASING, LorentzianClosedForm(res), grid)
    np.testing.assert_allclose(curve_tab.values, curve_exact.values, atol=2e-4)


def test_squeezing_curve_markovian_dephasing_crossing():
    alpha_star, _ = optimal_alpha(10)
    grid = TimeGrid(0.0, 400.0, 0.5)
    curve = squeezing_curve(
        10,
        alpha_star,
        ChannelKind.DEPHASING,
        MarkovianExponential(rate=0.005),
        grid,
        compare_markovian=0.005,
    )
    ts = grid.nodes()
    vals = curve.values
    assert vals[0] < 1.0 < vals[-1]
    # crossing lands near t ~ 260
    crossing = ts[np.argmax(vals >= 1.0)]
    assert 240 < crossing < 280
    # comparison column computed from the same rate coincides
    np.testing.assert_allclose(curve.markov_values, vals, rtol=1e-12)
    np.testing.assert_array_equal(curve.kappa, np.exp(-0.005 * ts))


# the kappa -> xi^2 map on whole arrays against the scalar route

MAP_NS = (2, 3, 10, 3693, 100_000)
MAP_KAPPAS = np.array([0.0, 1e-3, -1e-3, 0.5, -0.7, 1.0])


def _map_alpha(n):
    return 0.3 if n == 2 else optimal_alpha(n)[0]


def _per_node(n, alpha, kappas, kind, definition, form):
    return np.array(
        [channel_xi2(n, alpha, float(k), kind, definition, form) for k in kappas]
    )


@pytest.mark.parametrize("form", list(Form))
@pytest.mark.parametrize("definition", list(Definition))
@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("n", MAP_NS)
def test_kappa_map_on_arrays_matches_per_node(n, kind, definition, form):
    alpha = _map_alpha(n)
    xi2 = _kappa_map(n, oat_coefficients(n, alpha), kind, definition, form)
    try:
        want = _per_node(n, alpha, MAP_KAPPAS, kind, definition, form)
    except DegenerateDenominator:
        # a node with an undefined denominator fails the whole array
        with pytest.raises(DegenerateDenominator):
            xi2(MAP_KAPPAS)
        return
    got = xi2(MAP_KAPPAS)
    assert isinstance(got, np.ndarray) and got.shape == MAP_KAPPAS.shape
    # one code path: a lone kappa gives exactly its array value
    np.testing.assert_array_equal(got, want)
    if kind is ChannelKind.DEPOLARIZING and definition is Definition.XI:
        assert got[0] == math.inf


@pytest.mark.parametrize("form", list(Form))
@pytest.mark.parametrize("definition", list(Definition))
@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("n", MAP_NS)
def test_squeezing_curve_matches_per_node(n, kind, definition, form):
    from squeeze_dyn import Tabulated

    alpha = _map_alpha(n)
    # kappa(t) passes through every test value at a grid node
    kappas = np.concatenate([[1.0], MAP_KAPPAS])
    grid = TimeGrid(0.0, float(len(kappas) - 1), 1.0)
    curve = squeezing_curve(n, alpha, kind, Tabulated(grid, kappas), grid, definition, form)
    want = _per_node(n, alpha, np.abs(kappas), kind, definition, form)
    np.testing.assert_array_equal(curve.values, want)


@pytest.mark.parametrize("definition", list(Definition))
@pytest.mark.parametrize("kind", list(ChannelKind))
def test_exact_map_matches_moments_route(kind, definition):
    # independent route: the full 3x3 moments through the generic definitions
    for n in MAP_NS:
        alpha = _map_alpha(n)
        got = _kappa_map(n, oat_coefficients(n, alpha), kind, definition, Form.EXACT)(MAP_KAPPAS)
        to_xi2 = xi2_from_moments if definition is Definition.XI else xi2_prime_from_moments
        want = np.array(
            [to_xi2(decohered_moments(n, alpha, kind, float(k))) for k in MAP_KAPPAS]
        )
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-10, atol=0.0)


def test_damping_prime_reference_degenerate_denominator_raises():
    alpha = _map_alpha(3693)
    co = oat_coefficients(3693, alpha)
    xi2 = _kappa_map(3693, co, ChannelKind.DAMPING, Definition.XI_PRIME, Form.REFERENCE)
    with pytest.raises(DegenerateDenominator):
        channel_xi2(3693, alpha, -0.7, ChannelKind.DAMPING, Definition.XI_PRIME)
    with pytest.raises(DegenerateDenominator):
        xi2(-0.7)
    with pytest.raises(DegenerateDenominator):
        xi2(np.array([1.0, 0.5, -0.7]))


# the kappa -> xi^2 map over many (n, alpha) pairs at once

BATCH_PAIRS = list(product((2, 3, 5, 10, 16), (0.0, 0.05, 0.2, 0.5, 1.1)))
BATCH_KAPPAS = np.array([1.0, 0.7, 0.3, 0.0, -0.4])


def _batch(pairs):
    """n and the coefficient fields of each pair, stacked as (E, 1) arrays."""
    ns = np.array([n for n, _ in pairs])[:, None]
    fields = np.array([oat_coefficients(n, alpha) for n, alpha in pairs]).T[:, :, None]
    return ns, OatCoefficients(*fields)


@pytest.mark.parametrize("form", list(Form))
@pytest.mark.parametrize("definition", list(Definition))
@pytest.mark.parametrize("kind", list(ChannelKind))
def test_kappa_map_over_many_pairs_matches_each_pair(kind, definition, form):
    # alpha = 0 (A = B = 0, so zeta = 1) and N = 2 included
    ns, co = _batch(BATCH_PAIRS)
    got = _kappa_map(ns, co, kind, definition, form)(BATCH_KAPPAS[None, :])
    assert got.shape == (len(BATCH_PAIRS), len(BATCH_KAPPAS))
    for row, (n, alpha) in zip(got, BATCH_PAIRS):
        one = _kappa_map(n, oat_coefficients(n, alpha), kind, definition, form)(BATCH_KAPPAS)
        lone = [channel_xi2(n, alpha, float(k), kind, definition, form) for k in BATCH_KAPPAS]
        assert row.tobytes() == one.tobytes() == np.array(lone).tobytes()


def test_batched_damping_prime_reference_raises_for_one_degenerate_row():
    # at N = 3, alpha = 0.2, kappa = -1 the denominator is -1/3
    pairs = [(10, 0.2), (3, 0.2), (16, 0.05)]
    with pytest.raises(DegenerateDenominator, match="-0.333333"):
        channel_xi2(3, 0.2, -1.0, ChannelKind.DAMPING, Definition.XI_PRIME)
    xi2 = _kappa_map(*_batch(pairs), ChannelKind.DAMPING, Definition.XI_PRIME, Form.REFERENCE)
    assert np.isfinite(xi2(np.array([[1.0, 0.5, 0.0]]))).all()
    with pytest.raises(DegenerateDenominator):
        xi2(np.array([[1.0, 0.5, -1.0]]))


#: pairs whose A or B squared by a float's ** (libm pow, glibc) differs
#: in the last bit from the product
POW_PAIRS = [(5, 0.9275), (16, 0.1875), (100, 0.0125), (100, 0.115)]


def test_zeta_of_one_pair_equals_its_batched_row():
    # arrays square by product, so the scalar route must too
    got = _zeta(*_batch(POW_PAIRS))(BATCH_KAPPAS[None, :])
    for row, (n, alpha) in zip(got, POW_PAIRS):
        assert row.tobytes() == _zeta(n, oat_coefficients(n, alpha))(BATCH_KAPPAS).tobytes()


def test_kappa_map_keeps_array_shape():
    # alpha = 0 makes the reference numerator constant; the curve still
    # has one value per node
    xi2 = _kappa_map(
        10, oat_coefficients(10, 0.0), ChannelKind.DEPHASING, Definition.XI, Form.REFERENCE
    )
    np.testing.assert_array_equal(xi2(np.array([0.0, 0.5, 1.0])), [1.0, 1.0, 1.0])


def test_channel_xi2_value_is_a_float():
    for form in Form:
        for definition in Definition:
            value = channel_xi2(10, 0.2, 0.5, ChannelKind.DAMPING, definition, form)
            assert type(value) is float


@pytest.mark.parametrize("alpha", [1e308, -1e308, math.inf, math.nan])
def test_closed_forms_reject_an_alpha_whose_double_is_not_finite(alpha):
    # math.cos(2*alpha) raised a bare "math domain error" at 1e308
    with pytest.raises(ValidationError):
        oat_coefficients(5, alpha)
    with pytest.raises(ValidationError):
        xi2_oat(2, alpha)


def test_squeezing_curve_checks_the_comparison_rate_before_any_curve():
    class Refusing(MarkovianExponential):
        def evaluate(self, t):
            raise AssertionError("the main curve was evaluated first")

    grid = TimeGrid(0.0, 10.0, 0.5)
    with pytest.raises(ValidationError, match="rate must be positive and finite"):
        squeezing_curve(
            5, 0.3, ChannelKind.DEPHASING, Refusing(rate=0.01), grid, compare_markovian=0.0
        )
