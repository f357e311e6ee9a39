import math

import numpy as np
import pytest

from squeeze_dyn import (
    ChannelKind,
    Definition,
    LindbladParams,
    apply_channel,
    build_oat_state,
    collective_moments,
    integrate_single_qubit_generator,
    kraus_operators,
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
from squeeze_dyn._smalleig import min_eig_sym2, min_eig_sym3
from squeeze_dyn.moments import _xi2_prime_rows, _xi2_rows
from squeeze_dyn.oracle import (
    N_CAP,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _generator_matrices,
    _moment_rows,
    moments_from_reduced,
    reduced_sums,
)
from squeeze_dyn import verify
from squeeze_dyn.verify import (
    DEFAULT_ALPHAS,
    DEFAULT_KAPPAS,
    _case_matrix,
    _delta,
    _worst,
    run_verification,
)


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
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert abs(np.trace(out) - 1.0) <= 1e-12


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
    cases = _case_matrix([(N_CAP, 0.2)], DEFAULT_KAPPAS, 1e-8)
    assert len(cases) == 3 * len(DEFAULT_KAPPAS) * 2
    assert all(c["passed"] for c in cases)
    assert _worst(cases, "delta_exact") <= 1e-8


@pytest.mark.parametrize("kappas", [(0.0, 0.5), (0.5, 0.0)])
def test_verification_scores_agreeing_divergences_in_any_case_order(kappas):
    # at kappa = 0 the dephasing and depolarizing mean spins vanish, so
    # both routes give xi^2 = +inf: they agree, and inf - inf (nan) must
    # neither fail the case nor make the worst delta depend on case order
    cases = _case_matrix([(3, 0.2), (4, 0.2)], kappas, 1e-8)
    both_inf = [c for c in cases if c["oracle"] == c["exact"] == math.inf]
    assert {(c["channel"], c["definition"]) for c in both_inf} >= {
        (ChannelKind.DEPHASING.value, Definition.XI.value),
        (ChannelKind.DEPOLARIZING.value, Definition.XI.value),
    }
    assert all(c["delta_exact"] == 0.0 and c["passed"] for c in both_inf)
    assert all(c["passed"] for c in cases)
    worst = _worst(cases, "delta_exact")
    assert 0.0 < worst <= 1e-8
    assert worst == max(c["delta_exact"] for c in cases if math.isfinite(c["oracle"]))


def test_verification_fails_a_nan_on_either_route():
    inf, nan = math.inf, math.nan
    got = _delta(np.array([inf, 1.0, nan, 1.0, inf]), np.array([inf, 1.0, 1.0, nan, 1.0]))
    assert got[:2].tolist() == [0.0, 0.0]
    assert np.isnan(got[2:4]).all() and got[4] == inf
    assert not (got[2:] <= 1e-8).any()


def test_verification_closed_forms_equal_channel_xi2():
    # verify evaluates each closed form on all its kappas in one array;
    # each value must be exactly the one channel_xi2 gives for its kappa
    rep = run_verification(max_n=8)
    assert len(rep.cases) == 6 * len(DEFAULT_ALPHAS) * 3 * len(DEFAULT_KAPPAS) * 2
    for c in rep.cases:
        kind, definition = ChannelKind(c["channel"]), Definition(c["definition"])
        for form in Form:
            want = channel_xi2(c["n"], c["alpha"], c["kappa"], kind, definition, form)
            assert c[form.value] == want
    # the oracle still rejects a bad kappa before any closed form sees it
    with pytest.raises(InvalidKappa):
        _case_matrix([(3, alpha) for alpha in DEFAULT_ALPHAS], (0.5, 1.5), 1e-8)


def test_verification_evaluates_each_closed_form_once(monkeypatch):
    calls, kappa_map = [], verify._kappa_map

    def counted(*args):
        calls.append(args[2:])
        return kappa_map(*args)

    monkeypatch.setattr("squeeze_dyn.verify._kappa_map", counted)
    rep = run_verification(max_n=8)
    assert rep.all_passed
    # one call per (channel, definition, form), over every (n, alpha)
    assert len(calls) == len(set(calls)) == len(ChannelKind) * len(Definition) * len(Form)


def test_verification_passes_at_alpha_zero():
    # alpha = 0: A = B = 0, so the reference numerator is 1 in its row
    ensembles = [(n, alpha) for n in (2, 3, 4, 5, 6) for alpha in (0.0, 0.2)]
    cases = _case_matrix(ensembles, DEFAULT_KAPPAS, 1e-8)
    assert all(c["passed"] for c in cases)
    zero = [c for c in cases if c["alpha"] == 0.0]
    assert len(zero) == len(cases) // 2
    # and the two-particle reduction 1/(1 + sin a)
    assert abs(xi2_oat(2, 0.0) - 1.0) <= 1e-8


def test_fit_densities_are_the_seeded_normal_draws():
    # written out so that verify does not import numpy.random
    rng = np.random.default_rng(20240917)
    assert len(verify._DENSITY_DRAWS) == 8
    for re, im in verify._DENSITY_DRAWS:
        assert np.array(re).tobytes() == rng.normal(size=(2, 2)).tobytes()
        assert np.array(im).tobytes() == rng.normal(size=(2, 2)).tobytes()


def _refuse_work(*args, **kwargs):
    raise AssertionError("a rejected input reached the case matrix")


@pytest.mark.parametrize("max_n", [2.5, 4.0, "4"])
def test_verification_rejects_a_max_n_that_is_not_an_integer(max_n, monkeypatch):
    monkeypatch.setattr("squeeze_dyn.verify.build_oat_state", _refuse_work)
    monkeypatch.setattr("squeeze_dyn.verify._fit_generators", _refuse_work)
    with pytest.raises(ValidationError, match="max_n must be an integer"):
        run_verification(max_n=max_n)


@pytest.mark.parametrize("max_n", [1, 0, -3, N_CAP + 1])
def test_verification_rejects_a_max_n_outside_two_to_n_cap_before_any_case(max_n, monkeypatch):
    monkeypatch.setattr("squeeze_dyn.verify.build_oat_state", _refuse_work)
    monkeypatch.setattr("squeeze_dyn.verify._fit_generators", _refuse_work)
    with pytest.raises(ValidationError, match=rf"max_n must be an integer in \[2, {N_CAP}\]"):
        run_verification(max_n=max_n)


@pytest.mark.parametrize("tolerance", [0.0, -1e-8, math.nan, math.inf])
def test_verification_rejects_a_bad_tolerance_before_any_case(tolerance, monkeypatch):
    monkeypatch.setattr("squeeze_dyn.verify.build_oat_state", _refuse_work)
    monkeypatch.setattr("squeeze_dyn.verify._fit_generators", _refuse_work)
    with pytest.raises(ValidationError, match="tolerance must be finite and positive"):
        run_verification(max_n=4, tolerance=tolerance)


def test_verification_takes_a_numpy_integer_max_n():
    report = run_verification(max_n=np.int64(3))
    plain = run_verification(max_n=3)
    assert report.all_passed
    assert report.cases == plain.cases


@pytest.mark.parametrize("max_n", [2, 7, 16])
def test_verification_checks_the_default_ns_up_to_max_n(max_n):
    rep = run_verification(max_n=max_n)
    want = [n for n in verify.DEFAULT_NS if n <= max_n]
    assert sorted({c["n"] for c in rep.cases}) == want
    assert len(rep.cases) == len(want) * len(DEFAULT_ALPHAS) * 3 * len(DEFAULT_KAPPAS) * 2
    assert [r["alpha"] for r in rep.two_particle_reductions] == list(DEFAULT_ALPHAS)
    assert len(rep.generator_fits) == len(ChannelKind)
    assert rep.all_passed


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
    rng = np.random.default_rng(5)
    batch = np.stack([PLUS, UP] + [random_density(rng) for _ in range(3)])
    params = LindbladParams.depolarizing(0.2)
    out = integrate_single_qubit_generator(params, batch, 5.0, step=1e-2)
    assert out.shape == batch.shape
    for chi0, chi in zip(batch, out):
        single = integrate_single_qubit_generator(params, chi0, 5.0, step=1e-2)
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


def test_generator_params_batch_equals_per_params_calls():
    # the three channels at one shared step, each on its own set of states
    rng = np.random.default_rng(11)
    params = _three_channels(0.2)
    chi0 = np.stack(
        [np.stack([PLUS, UP] + [random_density(rng) for _ in range(3)]) for _ in params]
    )
    out = integrate_single_qubit_generator(params, chi0, 5.0)
    assert out.shape == chi0.shape
    for p, states, chi in zip(params, chi0, out):
        single = integrate_single_qubit_generator(p, states, 5.0)
        assert np.array_equal(chi, single)
    # one 2x2 state per generator keeps that shape
    one_each = integrate_single_qubit_generator(params, chi0[:, 0], 5.0)
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


@pytest.mark.parametrize(
    "params, chi0",
    [
        (LindbladParams.dephasing(0.1), np.eye(3)),
        (LindbladParams.dephasing(0.1), np.array([0.5, 0.5, 0.5, 0.5])),
        (LindbladParams.dephasing(0.1), np.zeros((2, 3))),
        (LindbladParams.dephasing(0.1), np.array(1.0)),
        (_three_channels(0.1), np.zeros((3, 4))),
        (_three_channels(0.1), np.zeros((3, 5, 3, 2))),
    ],
)
def test_generator_rejects_chi0_not_ending_in_2x2(params, chi0):
    with pytest.raises(ValidationError, match="chi0 must end in two axes of length 2"):
        integrate_single_qubit_generator(params, chi0, 1.0)


def test_generator_keeps_each_matrix_own_trace():
    # the generator is linear and keeps every trace, not only a unit one:
    # a zero matrix comes back zero and a scaled state comes back scaled,
    # bit for bit, since the scales are powers of two
    rng = np.random.default_rng(23)
    rho = np.stack([UP, PLUS, random_density(rng)])
    for params in _three_channels(0.2):
        evolved = integrate_single_qubit_generator(params, rho, 5.0, step=1e-2)
        zero = integrate_single_qubit_generator(params, np.zeros((2, 2)), 5.0, step=1e-2)
        assert np.array_equal(zero, np.zeros((2, 2)))
        for scale in (2.0, 2.0**30):
            scaled = integrate_single_qubit_generator(params, scale * rho, 5.0, step=1e-2)
            assert np.array_equal(scaled, scale * evolved)


@pytest.mark.parametrize("unstable", [0, 1, 2])
def test_generator_params_batch_instability_in_any_member(unstable):
    # the ground state is a fixed point of damping; the excited state drifts
    down = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    params = [LindbladParams.damping(1.0)] * 3
    chi0 = np.stack([UP if i == unstable else down for i in range(3)])
    with pytest.raises(StepInstability):
        integrate_single_qubit_generator(params, chi0, 240.0, step=6.0)
    integrate_single_qubit_generator(params, np.stack([down] * 3), 240.0, step=6.0)


def test_generator_non_finite_state_is_instability():
    # a nan trace is not within the drift bound, so it is not returned
    chi0 = np.stack([PLUS, np.full((2, 2), math.nan, dtype=complex)])
    with pytest.raises(StepInstability):
        integrate_single_qubit_generator(LindbladParams.damping(0.1), chi0, 1.0)


def test_generator_overflowing_step_is_instability():
    # 1,000 steps that each grow the state 31-fold overflow to inf and nan;
    # that is reported as StepInstability, with no RuntimeWarning first
    with pytest.raises(StepInstability):
        integrate_single_qubit_generator(LindbladParams.damping(1.0), UP, 6000.0, step=6.0)


def _rk4_propagator_50_digits(mp, l_const, h, n_steps):
    """The 4x4 map of n RK4 steps of x' = xL in 50 digits: RK4 is linear
    in x, so one step taken on the identity is the step matrix, and the
    n steps are n products with it."""
    lm = np.array([[mp.mpc(v) for v in row] for row in l_const], dtype=object)
    hm = mp.mpf(h)
    eye = np.array([[mp.mpc(int(i == j)) for j in range(4)] for i in range(4)], dtype=object)
    k1 = eye @ lm
    k2 = (eye + hm / 2 * k1) @ lm
    k3 = (eye + hm / 2 * k2) @ lm
    k4 = (eye + hm * k3) @ lm
    step = eye + hm / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    out = eye
    for _ in range(n_steps):
        out = out @ step
    return out


@pytest.mark.parametrize("params", _three_channels(0.01))
def test_generator_constant_rate_matches_50_digit_rk4(params):
    # verify's fit (rate 0.01, t 35, default step): the powered step matrix
    # against the same 350 RK4 steps taken in 50 digits, on verify's states
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    t = 35.0
    n_steps = math.ceil(t / (1e-3 / 0.01))
    rng = np.random.default_rng(20240917)
    chi0 = np.stack([UP if params.s == 1.0 else PLUS] + [random_density(rng) for _ in range(8)])
    l_const = _generator_matrices([params])[0]
    propagator = _rk4_propagator_50_digits(mp, l_const, t / n_steps, n_steps)
    x0 = np.array([[mp.mpc(v) for v in row] for row in chi0.reshape(-1, 4)], dtype=object)
    want = x0 @ propagator

    got = integrate_single_qubit_generator(params, chi0, t)
    err = max(float(abs(g - w)) for g, w in zip(got.reshape(-1), want.reshape(-1)))
    assert err <= 2e-16


SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |up><down|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |down><up|


def _generator_rhs(chi, s, b, c):
    """L(chi) in Lindblad form: the reference that the closed-form
    superoperator is checked against.

    The b-weighted flip terms are split so that s = 1 is pure decay
    toward the ground state (matching the damping channel's direction)
    and s = 0 pure pumping; the (2c - b)/8 term is pure dephasing.
    """
    out = np.zeros_like(chi)
    if b != 0.0:
        p_up = SIGMA_PLUS @ SIGMA_MINUS  # |up><up|
        p_dn = SIGMA_MINUS @ SIGMA_PLUS  # |down><down|
        out += -0.5 * b * s * (p_up @ chi + chi @ p_up - 2.0 * SIGMA_MINUS @ chi @ SIGMA_PLUS)
        out += (
            -0.5 * b * (1.0 - s) * (p_dn @ chi + chi @ p_dn - 2.0 * SIGMA_PLUS @ chi @ SIGMA_MINUS)
        )
    deph = 2.0 * c - b
    if deph != 0.0:
        out += -0.25 * deph * (chi - SIGMA_Z @ chi @ SIGMA_Z)
    return out


def _probed_superoperator(s, b, c):
    """The 4x4 L of ``_generator_rhs`` on row-major vec(chi), one basis
    matrix per row: vec(rhs(chi)) = vec(chi) @ L."""
    basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
    return np.stack([_generator_rhs(e, s, b, c).reshape(4) for e in basis])


def test_generator_matrices_equal_lindblad_form_for_named_generators():
    # the three channels' generators at rates verify and the tests use:
    # the closed form equals the Lindblad form entry for entry
    params = [p for rate in (0.01, 0.06, 0.2, 1.0) for p in _three_channels(rate)]
    l_bc = _generator_matrices(params)
    assert l_bc.shape == (len(params), 4, 4)
    for p, got in zip(params, l_bc):
        assert np.array_equal(got, _probed_superoperator(p.s, p.b, p.c))


def test_generator_superoperators_reproduce_rhs():
    # for any (s, b, c) only the coherence entries -c may differ, by the
    # rounding of the Lindblad form's three-term sum
    rng = np.random.default_rng(8)
    params = [LindbladParams(*rng.uniform(0.0, 1.0, size=3)) for _ in range(200)]
    for p, got in zip(params, _generator_matrices(params)):
        assert np.max(np.abs(got - _probed_superoperator(p.s, p.b, p.c))) <= 2.3e-16
        chi = random_density(rng)
        np.testing.assert_allclose(
            chi.reshape(4) @ got,
            _generator_rhs(chi, p.s, p.b, p.c).reshape(4),
            rtol=0,
            atol=1e-14,
        )


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


# --- the batched oracle against the per-case formulas ---
#
# The oracle decoheres and scores stacks of rows; these are the per-case
# formulas it replaced, kept as the reference. Every row of a stack must
# round exactly as the reference does on that row alone.

BIT_KAPPAS = (1.0, 0.7, 0.3, -0.4, 0.0, -1.0)


def kraus_reference(kind, kappa):
    k2 = kappa * kappa
    if kind is ChannelKind.DEPHASING:
        return [
            math.sqrt((1.0 + k2) / 2.0) * np.eye(2, dtype=complex),
            math.sqrt((1.0 - k2) / 2.0) * SIGMA_Z,
        ]
    if kind is ChannelKind.DEPOLARIZING:
        p = (1.0 - k2) / 4.0
        return [
            math.sqrt((1.0 + 3.0 * k2) / 4.0) * np.eye(2, dtype=complex),
            math.sqrt(p) * SIGMA_X,
            math.sqrt(p) * SIGMA_Y,
            math.sqrt(p) * SIGMA_Z,
        ]
    e0 = np.array([[1.0, 0.0], [0.0, kappa]], dtype=complex)
    e1 = np.array([[0.0, math.sqrt(1.0 - k2)], [0.0, 0.0]], dtype=complex)
    return [e0, e1]


def apply_channel_reference(rho, kind, kappa):
    n = int(round(math.log2(rho.shape[0])))
    ops = kraus_reference(kind, kappa)
    out = rho.astype(complex, copy=True)
    for q in range(n):
        view = out.reshape(2**q, 2, 2 ** (n - 1 - q), 2**q, 2, 2 ** (n - 1 - q))
        acc = np.zeros_like(view)
        for e in ops:
            acc += np.einsum("ab,ubvxcy,dc->uavxdy", e, view, e.conj())
        out = acc.reshape(rho.shape)
    return out


def moments_reference(one, pair, n):
    paulis = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
    pairs = np.einsum("aij,bkl->abikjl", paulis, paulis).reshape(3, 3, 4, 4)
    mean = 0.5 * np.einsum("aij,ji->a", paulis, one).real
    cross = np.einsum("abij,ji->ab", pairs, pair).real
    return mean, 0.25 * (n * np.eye(3) + cross + cross.T)


def xi2_reference(n, mean, corr):
    mag = float(np.linalg.norm(mean))
    if mag <= 1e-12:
        return math.inf
    u = (mean / mag).tolist()
    ref = [1.0, 0.0, 0.0] if abs(u[0]) < 0.9 else [0.0, 1.0, 0.0]

    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]

    e1 = np.array(cross(u, ref))
    e1 /= np.linalg.norm(e1)
    e2 = np.array(cross(u, e1.tolist()))
    p11, p22, p12 = float(e1 @ corr @ e1), float(e2 @ corr @ e2), float(e1 @ corr @ e2)
    return n * float(min_eig_sym2(p11, p12, p22)) / mag**2


def xi2_prime_reference(n, mean, corr):
    den = float(np.trace(corr)) - n / 2.0
    if den <= 1e-12:
        return None
    gamma = (n - 1) * (corr - np.outer(mean, mean)) + corr
    # one 3x3 matrix: its entries are 0-d arrays, squared by a product as
    # a stack's are (numpy scalars would square through libm pow)
    return float(min_eig_sym3(gamma)) / den


def verify_sums():
    for n in range(2, 13):
        for alpha in DEFAULT_ALPHAS:
            yield n, reduced_sums(build_oat_state(n, alpha), n)


def random_sums(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 13))
        one = n * random_density(rng)
        pair = n * (n - 1) / 2 * random_density(rng, 4)
        yield n, (one, pair)


@pytest.mark.parametrize("source", ["verify", "random"])
@pytest.mark.parametrize("kind", list(ChannelKind))
def test_batched_oracle_rounds_as_the_per_case_formulas(source, kind):
    sums = list(verify_sums() if source == "verify" else random_sums(23, 40))
    ks = np.tile(BIT_KAPPAS, len(sums))
    ns = np.repeat([n for n, _ in sums], len(BIT_KAPPAS))
    decohered = []
    for part in (0, 1):
        stacked = np.repeat(np.stack([s[part] for _, s in sums]), len(BIT_KAPPAS), axis=0)
        decohered.append(apply_channel(stacked, kind, ks))
    mean, corr = _moment_rows(*decohered, ns)
    xi = _xi2_rows(ns, mean, corr)
    rows = [(n, s, kappa) for n, s in sums for kappa in BIT_KAPPAS]
    prime_rows, prime_want = [], []
    for r, (n, (one, pair), kappa) in enumerate(rows):
        one_k = apply_channel_reference(one, kind, kappa)
        pair_k = apply_channel_reference(pair, kind, kappa)
        assert np.array_equal(decohered[0][r], one_k)
        assert np.array_equal(decohered[1][r], pair_k)
        # a float kappa and one matrix take the same path as a batch of one
        assert np.array_equal(apply_channel(pair, kind, kappa), pair_k)
        want_mean, want_corr = moments_reference(one_k, pair_k, n)
        assert np.array_equal(mean[r], want_mean) and np.array_equal(corr[r], want_corr)
        assert xi[r] == xi2_reference(n, want_mean, want_corr)
        prime = xi2_prime_reference(n, want_mean, want_corr)
        if prime is not None:
            prime_rows.append(r)
            prime_want.append(prime)
    assert len(prime_rows) >= len(rows) // 2
    got = _xi2_prime_rows(ns[prime_rows], mean[prime_rows], corr[prime_rows])
    assert got.tolist() == prime_want
    if source == "verify" and kind is ChannelKind.DEPOLARIZING:
        # kappa = 0 leaves the maximally mixed state, whose mean spin vanishes
        assert math.isinf(xi[BIT_KAPPAS.index(0.0)])


def test_batched_squeezing_rounds_as_the_per_case_formulas_on_many_rows():
    # about 1 in 1,000 squares taken by libm pow, as the per-case xi took
    # |<J>|^2, differ in the last bit from a product: it takes many rows
    # to see one
    rng = np.random.default_rng(31)
    count = 4000
    ns = rng.integers(2, 200, size=count)
    mean = rng.normal(size=(count, 3)) * rng.choice([1e-3, 1.0, 30.0], size=(count, 1))
    a = rng.normal(size=(count, 3, 3))
    corr = np.matmul(a, a.transpose(0, 2, 1)) + ns[:, None, None] * np.eye(3)
    xi = _xi2_rows(ns, mean, corr)
    prime = _xi2_prime_rows(ns, mean, corr)
    for r in range(count):
        assert xi[r] == xi2_reference(ns[r], mean[r], corr[r])
        assert prime[r] == xi2_prime_reference(ns[r], mean[r], corr[r])


def test_batched_xi2_of_a_zero_mean_row_is_inf():
    ns = np.array([4, 4])
    mean = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    corr = np.stack([np.eye(3), np.eye(3)])
    xi = _xi2_rows(ns, mean, corr)
    assert xi[0] == math.inf
    assert xi[1] == xi2_reference(4, mean[1], corr[1])


def test_batched_xi2_prime_raises_on_the_first_degenerate_row():
    ns = np.array([2, 2, 2])
    # <J^2> - N/2 = tr C - 1 is 2, then 0, then -1.5
    corr = np.stack([np.eye(3), np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, -0.5])])
    with pytest.raises(DegenerateDenominator, match="= 0.0 is not positive"):
        _xi2_prime_rows(ns, np.zeros((3, 3)), corr)


def test_verification_cases_equal_the_per_case_route():
    rep = run_verification(max_n=8)
    cases = iter(rep.cases)
    for n in (2, 3, 4, 5, 6, 8):
        for alpha in DEFAULT_ALPHAS:
            one, pair = reduced_sums(build_oat_state(n, alpha), n)
            for kind in ChannelKind:
                for kappa in DEFAULT_KAPPAS:
                    m = moments_from_reduced(
                        apply_channel(one, kind, kappa), apply_channel(pair, kind, kappa), n
                    )
                    for value in (xi2_from_moments(m), xi2_prime_from_moments(m)):
                        case = next(cases)
                        assert (case["n"], case["alpha"], case["kappa"], case["channel"]) == (
                            n, alpha, kappa, kind.value
                        )
                        assert case["oracle"] == value
    assert next(cases, None) is None


# --- apply_channel input checks ---


@pytest.mark.parametrize(
    "rho, kappa",
    [
        (np.eye(2)[None], 0.5),  # a leading axis with a float kappa
        (np.eye(2), np.array([0.5])),  # a kappa array without one
        (np.eye(3), 0.5),
        (np.ones((2, 4)), 0.5),
        (np.zeros((0, 0)), 0.5),
        (np.ones(4), 0.5),
        (np.stack([np.eye(2)] * 3), np.array([0.5, 0.2])),
        (np.stack([np.eye(3)] * 2), np.array([0.5, 0.2])),
        (np.eye(2)[None, None], np.array([[0.5]])),  # a 2-D kappa array
    ],
)
def test_apply_channel_rejects_mismatched_shapes(rho, kappa):
    with pytest.raises(ValidationError):
        apply_channel(rho, ChannelKind.DEPHASING, kappa)


@pytest.mark.parametrize("bad", [1.5, -1.0000001, math.nan, math.inf])
def test_apply_channel_rejects_bad_kappa_in_an_array(bad):
    rho = np.stack([np.eye(2) / 2] * 3)
    with pytest.raises(InvalidKappa, match=f"got {bad}"):
        apply_channel(rho, ChannelKind.DAMPING, np.array([0.5, bad, 2.0]))
    with pytest.raises(InvalidKappa):
        kraus_operators(ChannelKind.DEPOLARIZING, np.array([bad]))


def test_kraus_stacks_match_per_kappa_operators():
    for kind in ChannelKind:
        stacks = kraus_operators(kind, np.array(BIT_KAPPAS))
        for i, kappa in enumerate(BIT_KAPPAS):
            for stack, single in zip(stacks, kraus_operators(kind, kappa)):
                assert single.shape == (2, 2)
                assert np.array_equal(stack[i], single)
