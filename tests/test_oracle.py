import math

import numpy as np
import pytest

from squeeze_dyn import (
    ChannelKind,
    LindbladParams,
    apply_channel,
    apply_field_rotation,
    build_oat_state,
    collective_moments,
    integrate_single_qubit_generator,
    kraus_operators,
    validate_density_matrix,
    xi2_from_moments,
    xi2_oat,
    xi2_prime_from_moments,
)
from squeeze_dyn.errors import (
    DegenerateDenominator,
    InvalidKappa,
    NTooLarge,
    StepInstability,
    ValidationError,
)
from squeeze_dyn.analytic import Form, channel_xi2
from squeeze_dyn.kappa import ReservoirConfig, kappa_lorentzian
from squeeze_dyn.oracle import (
    N_CAP,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _generator_rhs,
    _superoperator,
    moments_from_reduced,
    reduced_sums,
)
from squeeze_dyn.verify import DEFAULT_ALPHAS, DEFAULT_KAPPAS, run_verification


def random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_single_particle_state_is_plus():
    psi = build_oat_state(1, 0.7)
    np.testing.assert_allclose(psi, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_zero_angle_state_is_uniform():
    psi = build_oat_state(4, 0.0)
    np.testing.assert_allclose(psi, np.full(16, 0.25), atol=1e-15)


def test_state_norm_and_cap():
    assert np.linalg.norm(build_oat_state(6, 0.37)) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(NTooLarge):
        build_oat_state(17, 0.1)


def test_two_particle_squeezing_matches_closed_form():
    psi = build_oat_state(2, math.pi / 6)
    assert xi2_from_moments(collective_moments(psi)) == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("alpha", [0.2, 0.7, 1.1])
def test_mean_spin_magnitude(n, alpha):
    m = collective_moments(build_oat_state(n, alpha))
    expected = (n / 2) * math.cos(alpha) ** (n - 1)
    assert np.linalg.norm(m.mean_spin) == pytest.approx(abs(expected), abs=1e-12)


def test_field_rotation_identity_and_period():
    psi = build_oat_state(3, 0.4)
    np.testing.assert_allclose(apply_field_rotation(psi, 0.7, 0.0), psi)
    rotated = apply_field_rotation(psi, 1.0, 2 * math.pi)
    m0 = collective_moments(psi)
    m1 = collective_moments(rotated)
    np.testing.assert_allclose(m0.mean_spin, m1.mean_spin, atol=1e-12)
    np.testing.assert_allclose(m0.corr, m1.corr, atol=1e-12)


def test_field_rotation_moves_css_to_y():
    psi = build_oat_state(4, 0.0)  # coherent state along +x
    rotated = apply_field_rotation(psi, 1.0, math.pi / 2)
    m = collective_moments(rotated)
    np.testing.assert_allclose(m.mean_spin, [0.0, 2.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("delta_t", [0.7, 2.1])
def test_field_rotation_leaves_squeezing_invariant(delta_t):
    psi = build_oat_state(4, 0.3)
    rotated = apply_field_rotation(psi, 1.0, delta_t)
    assert xi2_from_moments(collective_moments(rotated)) == pytest.approx(
        xi2_from_moments(collective_moments(psi)), abs=1e-12
    )
    assert xi2_prime_from_moments(collective_moments(rotated)) == pytest.approx(
        xi2_prime_from_moments(collective_moments(psi)), abs=1e-12
    )


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_kraus_completeness(kind):
    for kappa in (1.0, 0.6, 0.0, -0.8):
        ops = kraus_operators(kind, kappa)
        total = sum(e.conj().T @ e for e in ops)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_identity_channel_at_kappa_one(kind):
    rng = np.random.default_rng(3)
    rho = np.kron(random_density(rng), random_density(rng))
    out = apply_channel(rho, kind, 1.0)
    assert np.max(np.abs(out - rho)) <= 1e-14


def test_depolarizing_kappa_zero_gives_maximally_mixed():
    psi = build_oat_state(3, 0.5)
    out = apply_channel(np.outer(psi, psi.conj()), ChannelKind.DEPOLARIZING, 0.0)
    np.testing.assert_allclose(out, np.eye(8) / 8, atol=1e-14)


def test_damping_kappa_zero_decays_to_ground():
    psi = build_oat_state(3, 0.5)
    out = apply_channel(np.outer(psi, psi.conj()), ChannelKind.DAMPING, 0.0)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0  # index 0 is |down...down>
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_invalid_kappa_rejected():
    with pytest.raises(InvalidKappa):
        kraus_operators(ChannelKind.DEPHASING, 1.2)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_channel_outputs_completely_positive(kind):
    rng = np.random.default_rng(11)
    for _ in range(200):
        rho = random_density(rng)
        kappa = float(rng.uniform(-1.0, 1.0))
        out = apply_channel(rho, kind, kappa)
        assert np.linalg.eigvalsh(out)[0] >= -1e-10
        validate_density_matrix(out, herm_tol=1e-12, trace_tol=1e-12)


def test_css_moments():
    m = collective_moments(build_oat_state(5, 0.0))
    np.testing.assert_allclose(m.mean_spin, [2.5, 0, 0], atol=1e-13)
    cov = m.cov
    assert cov[1, 1] == pytest.approx(5 / 4, abs=1e-13)
    assert cov[2, 2] == pytest.approx(5 / 4, abs=1e-13)


def test_maximally_mixed_moments():
    n = 3
    rho = np.eye(2**n, dtype=complex) / 2**n
    m = collective_moments(rho)
    np.testing.assert_allclose(m.mean_spin, 0.0, atol=1e-14)
    np.testing.assert_allclose(m.corr, (n / 4) * np.eye(3), atol=1e-14)
    assert math.isinf(xi2_from_moments(m))
    assert xi2_prime_from_moments(m) == pytest.approx(n, rel=1e-12)


def test_moments_reproduce_closed_form():
    m = collective_moments(build_oat_state(3, 0.4))
    assert xi2_from_moments(m) == pytest.approx(xi2_oat(3, 0.4), abs=1e-12)


def test_vector_and_matrix_moment_paths_agree():
    psi = build_oat_state(4, 0.3)
    mv = collective_moments(psi)
    mm = collective_moments(np.outer(psi, psi.conj()))
    np.testing.assert_allclose(mv.mean_spin, mm.mean_spin, atol=1e-13)
    np.testing.assert_allclose(mv.corr, mm.corr, atol=1e-13)


def assert_reduced_route_matches_density_matrix(psi, n, kind, kappas):
    one, pair = reduced_sums(psi, n)
    for kappa in kappas:
        reduced = moments_from_reduced(
            apply_channel(one, kind, kappa), apply_channel(pair, kind, kappa), n
        )
        full = collective_moments(apply_channel(np.outer(psi, psi.conj()), kind, kappa), n)
        np.testing.assert_allclose(reduced.mean_spin, full.mean_spin, rtol=0, atol=1e-12)
        np.testing.assert_allclose(reduced.corr, full.corr, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", list(ChannelKind))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reduced_route_matches_density_matrix(n, kind):
    for alpha in DEFAULT_ALPHAS:
        psi = build_oat_state(n, alpha)
        assert_reduced_route_matches_density_matrix(psi, n, kind, DEFAULT_KAPPAS)


@pytest.mark.parametrize("kind", list(ChannelKind))
def test_reduced_route_matches_density_matrix_without_symmetry(kind):
    n = 5
    rng = np.random.default_rng(29)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    # no exchange symmetry: the first and last qubits' reduced states differ
    v = psi.reshape(2, 2 ** (n - 1))
    w = psi.reshape(2 ** (n - 1), 2)
    assert np.max(np.abs(v @ v.conj().T - w.T @ w.conj())) > 1e-2
    assert_reduced_route_matches_density_matrix(psi, n, kind, DEFAULT_KAPPAS + (0.0, -1.0))


def test_verification_at_the_cap():
    rep = run_verification(
        max_n=N_CAP, ns=(N_CAP,), alphas=(0.2,), include_generator=False
    )
    assert len(rep.cases) == 3 * len(DEFAULT_KAPPAS) * 2
    assert rep.all_passed
    assert rep.worst_exact_delta <= 1e-8


def test_verification_closed_forms_equal_channel_xi2():
    # verify evaluates each closed form on all its kappas in one array;
    # each value must be exactly the one channel_xi2 gives for its kappa
    rep = run_verification(max_n=8, include_generator=False)
    assert len(rep.cases) == 6 * len(DEFAULT_ALPHAS) * 3 * len(DEFAULT_KAPPAS) * 2
    for c in rep.cases:
        for form, value in ((Form.EXACT, c.exact), (Form.REFERENCE, c.reference)):
            assert value == channel_xi2(c.n, c.alpha, c.kappa, c.channel, c.definition, form)
    # the oracle still rejects a bad kappa before any closed form sees it
    with pytest.raises(InvalidKappa):
        run_verification(ns=(3,), kappas=(0.5, 1.5), include_generator=False)


def test_css_prime_parameter_is_one():
    m = collective_moments(build_oat_state(4, 0.0))
    assert xi2_prime_from_moments(m) == pytest.approx(1.0, abs=1e-12)


def test_prime_denominator_degenerate_for_singlet():
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = -1 / math.sqrt(2), 1 / math.sqrt(2)
    with pytest.raises(DegenerateDenominator):
        xi2_prime_from_moments(collective_moments(psi))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_symmetry_of_decohered_state(n):
    psi = build_oat_state(n, 0.4)
    rho = apply_channel(np.outer(psi, psi.conj()), ChannelKind.DAMPING, 0.7)
    dim = 2**n
    for q1 in range(n):
        for q2 in range(q1 + 1, n):
            perm = np.arange(dim)
            b1, b2 = n - 1 - q1, n - 1 - q2
            v1 = (perm >> b1) & 1
            v2 = (perm >> b2) & 1
            swapped = perm & ~(1 << b1) & ~(1 << b2) | (v2 << b1) | (v1 << b2)
            assert np.max(np.abs(rho[np.ix_(swapped, swapped)] - rho)) <= 1e-12


def test_density_matrix_validation_raises():
    with pytest.raises(ValidationError):
        validate_density_matrix(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        validate_density_matrix(np.array([[2.0, 0.0], [0.0, -1.0]]))


# --- single-qubit generator ---

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
UP = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def test_generator_identity_at_zero_time():
    chi = integrate_single_qubit_generator(LindbladParams.dephasing(0.1), PLUS, 0.0)
    np.testing.assert_allclose(chi, PLUS)


def test_generator_dephasing_coherence_decay():
    gamma, t = 0.05, 30.0
    chi = integrate_single_qubit_generator(LindbladParams.dephasing(gamma), PLUS, t)
    assert abs(chi[0, 1]) == pytest.approx(0.5 * math.exp(-gamma * t), abs=1e-9)
    np.testing.assert_allclose(np.diag(chi).real, [0.5, 0.5], atol=1e-10)


def test_generator_damping_population_decay():
    gamma, t = 0.08, 25.0
    chi = integrate_single_qubit_generator(LindbladParams.damping(gamma), UP, t)
    assert chi[1, 1].real == pytest.approx(math.exp(-gamma * t), abs=1e-9)


def test_generator_depolarizing_bloch_decay():
    gamma, t = 0.06, 20.0
    params = LindbladParams.depolarizing(gamma)
    chi = integrate_single_qubit_generator(params, PLUS, t)
    bloch = [float(np.trace(chi @ s).real) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    assert np.linalg.norm(bloch) == pytest.approx(math.exp(-gamma * t), abs=1e-9)


def test_generator_field_rotation_direction():
    # coherent part alone rotates +x toward +y, matching the mean-spin
    # direction convention
    chi = integrate_single_qubit_generator(
        LindbladParams.dephasing(0.0), PLUS, math.pi / 2, delta=1.0
    )
    assert float(np.trace(chi @ SIGMA_Y).real) == pytest.approx(1.0, abs=1e-9)


def test_generator_negative_rate_interval_regrows_coherence():
    # time-local dephasing driven by the strong-coupling decoherence
    # function on a window where |kappa| grows: the rate is negative and
    # the physically evolved coherence tracks kappa(t)^2
    res = ReservoirConfig(gamma=0.01, eta0=10.0)
    d = math.sqrt(res.discriminant)
    t0, t1 = 8.0, 14.0

    def kdot(t):
        return -math.exp(-res.gamma * t / 2) * math.sin(d * t / 2) * (
            res.eta0 * res.gamma / d
        )

    def rate(tau):
        t = t0 + tau
        return -2.0 * kdot(t) / kappa_lorentzian(res, t)

    assert rate(1.0) < 0  # backflow window
    k0 = kappa_lorentzian(res, t0)
    chi0 = np.array([[0.5, 0.5 * k0**2], [0.5 * k0**2, 0.5]], dtype=complex)
    params = LindbladParams.dephasing(1.0)
    chi = integrate_single_qubit_generator(params, chi0, t1 - t0, rate_scale=rate, step=1e-3)
    expected = 0.5 * kappa_lorentzian(res, t1) ** 2
    assert abs(chi[0, 1]) == pytest.approx(expected, abs=1e-8)
    assert abs(chi[0, 1]) > abs(chi0[0, 1])  # coherence grew back


def test_generator_instability_detected():
    # step far beyond the stability boundary: the populations blow up and
    # float cancellation drives the trace off 1
    with pytest.raises(StepInstability):
        integrate_single_qubit_generator(LindbladParams.damping(1.0), UP, 240.0, step=6.0)


def test_generator_rejects_bad_time_and_step():
    params = LindbladParams.dephasing(0.1)
    bad = [
        {"t": math.inf},
        {"t": math.nan},
        {"t": -1.0},
        {"t": 1.0, "step": 0.0},
        {"t": 1.0, "step": -1.0},
        {"t": 1.0, "step": math.nan},
        {"t": 1.0, "step": math.inf},
        {"t": 1.0, "step": 1e-320},
        {"t": 1e12},
    ]
    for kwargs in bad:
        with pytest.raises(ValidationError):
            integrate_single_qubit_generator(params, PLUS, **kwargs)


def test_generator_batch_matches_single_calls():
    # coherent rotation plus a time-local depolarizing rate that goes negative
    rng = np.random.default_rng(5)
    batch = np.stack([PLUS, UP] + [random_density(rng) for _ in range(3)])
    params = LindbladParams.depolarizing(0.2)

    def rate(tau):
        return math.cos(0.8 * tau)

    assert rate(3.0) < 0
    kwargs = dict(delta=0.7, rate_scale=rate, step=1e-2)
    out = integrate_single_qubit_generator(params, batch, 5.0, **kwargs)
    assert out.shape == batch.shape
    for chi0, chi in zip(batch, out):
        single = integrate_single_qubit_generator(params, chi0, 5.0, **kwargs)
        assert single.shape == (2, 2)
        np.testing.assert_allclose(chi, single, rtol=0, atol=1e-15)


def test_generator_batch_instability_detected():
    # the ground state is a fixed point of damping and stays stable on
    # its own; in a batch with an unstable state the whole call raises
    down = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    params = LindbladParams.damping(1.0)
    integrate_single_qubit_generator(params, down, 240.0, step=6.0)
    with pytest.raises(StepInstability):
        integrate_single_qubit_generator(params, UP, 240.0, step=6.0)
    with pytest.raises(StepInstability):
        integrate_single_qubit_generator(params, np.stack([down, UP]), 240.0, step=6.0)


def _three_channels(rate):
    return [
        LindbladParams.dephasing(rate),
        LindbladParams.depolarizing(rate),
        LindbladParams.damping(rate),
    ]


@pytest.mark.parametrize("rate_scale", [None, lambda tau: math.cos(0.8 * tau)])
def test_generator_params_batch_equals_per_params_calls(rate_scale):
    # the three channels at one shared step, each on its own set of states
    rng = np.random.default_rng(11)
    params = _three_channels(0.2)
    chi0 = np.stack(
        [np.stack([PLUS, UP] + [random_density(rng) for _ in range(3)]) for _ in params]
    )
    kwargs = dict(delta=0.3, rate_scale=rate_scale)
    out = integrate_single_qubit_generator(params, chi0, 5.0, **kwargs)
    assert out.shape == chi0.shape
    for p, states, chi in zip(params, chi0, out):
        single = integrate_single_qubit_generator(p, states, 5.0, **kwargs)
        assert np.array_equal(chi, single)
    # one 2x2 state per generator keeps that shape
    one_each = integrate_single_qubit_generator(params, chi0[:, 0], 5.0, **kwargs)
    assert one_each.shape == (3, 2, 2)
    assert np.array_equal(one_each, out[:, 0])


def test_generator_params_batch_shares_the_largest_step():
    # dephasing alone at rate 0.1 would step 1e-2; beside damping at rate 1
    # it steps 1e-3, the step a single call takes when given it
    params = [LindbladParams.dephasing(0.1), LindbladParams.damping(1.0)]
    chi0 = np.stack([PLUS, UP])
    out = integrate_single_qubit_generator(params, chi0, 2.0)
    shared = integrate_single_qubit_generator(params[0], PLUS, 2.0, step=1e-3)
    assert np.array_equal(out[0], shared)


def test_generator_params_batch_length_mismatch_is_rejected():
    params = _three_channels(0.1)
    for chi0 in (np.stack([PLUS, UP]), np.stack([PLUS] * 4), PLUS, np.stack([PLUS] * 3)[:, 0]):
        with pytest.raises(ValidationError):
            integrate_single_qubit_generator(params, chi0, 1.0)
    with pytest.raises(ValidationError):
        integrate_single_qubit_generator([], np.zeros((0, 2, 2)), 1.0)


@pytest.mark.parametrize("unstable", [0, 1, 2])
def test_generator_params_batch_instability_in_any_member(unstable):
    # the ground state is a fixed point of damping; the excited state drifts
    down = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    params = [LindbladParams.damping(1.0)] * 3
    chi0 = np.stack([UP if i == unstable else down for i in range(3)])
    with pytest.raises(StepInstability):
        integrate_single_qubit_generator(params, chi0, 240.0, step=6.0)
    integrate_single_qubit_generator(params, np.stack([down] * 3), 240.0, step=6.0)


def test_generator_superoperators_reproduce_rhs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        chi = random_density(rng)
        s, b, c = rng.uniform(0.0, 1.0, size=3)
        delta, r = rng.uniform(-2.0, 2.0, size=2)
        l_delta = _superoperator(s, 0.0, 0.0, delta)
        l_bc = _superoperator(s, b, c, 0.0)
        got = chi.reshape(4) @ (l_delta + r * l_bc)
        want = _generator_rhs(chi, s, b * r, c * r, delta).reshape(4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_moments_contraction_matches_trace_loop():
    # the Pauli contraction against a per-pair trace loop over
    # sigma_a (x) sigma_b, on Hermitian sums with no special structure
    rng = np.random.default_rng(17)
    n = 4
    one = 3.0 * random_density(rng)
    pair = 6.0 * random_density(rng, 4)
    paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    mean = [0.5 * np.trace(s @ one).real for s in paulis]
    cross = np.array(
        [[np.trace(np.kron(sa, sb) @ pair).real for sb in paulis] for sa in paulis]
    )
    m = moments_from_reduced(one, pair, n)
    np.testing.assert_allclose(m.mean_spin, mean, rtol=0, atol=1e-14)
    np.testing.assert_allclose(m.corr, 0.25 * (n * np.eye(3) + cross + cross.T), rtol=0, atol=1e-14)
