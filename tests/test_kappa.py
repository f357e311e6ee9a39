import functools
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import squeeze_dyn
from squeeze_dyn import (
    KappaSeries,
    MemoryKernel,
    ReservoirConfig,
    Tabulated,
    TimeGrid,
    kappa_lorentzian,
    kappa_markovian,
    kappa_zeros,
    solve_volterra,
)
from squeeze_dyn._format import parse_header
from squeeze_dyn.errors import (
    KernelEvaluationError,
    NegativeTime,
    NotOscillatory,
    StepTooLarge,
    ValidationError,
)
from squeeze_dyn import kappa as kappa_module
from squeeze_dyn.kappa import _BLOCK, _lorentzian_value, _solve_general
from squeeze_dyn.model import MAX_GRID_NODES

STRONG = ReservoirConfig(gamma=0.01, eta0=10.0)
WEAK = ReservoirConfig(gamma=0.01, eta0=0.001)
CRITICAL = ReservoirConfig(gamma=0.01, eta0=0.005)


def test_markovian_values():
    assert kappa_markovian(0.005, 0.0) == 1.0
    assert kappa_markovian(0.005, 200.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert kappa_markovian(0.005, 259.99) == pytest.approx(math.exp(-1.29995), rel=1e-15)


def test_markovian_rejects_negative_time_and_rate():
    with pytest.raises(NegativeTime):
        kappa_markovian(0.005, -1.0)
    with pytest.raises(ValidationError):
        kappa_markovian(-0.1, 1.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0])
def test_markovian_rejects_a_rate_that_is_not_finite_and_positive(rate):
    for t in (1.0, np.array([0.0, 1.0])):
        with pytest.raises(ValidationError, match="positive and finite"):
            kappa_markovian(rate, t)


# the weak branch's two weights once summed to 0.9999999999999999 at
# (1, 0.005) and (0.01, 0.002)
@pytest.mark.parametrize(
    "res", [STRONG, WEAK, CRITICAL, ReservoirConfig(1.0, 0.005), ReservoirConfig(0.01, 0.002)]
)
def test_lorentzian_starts_at_one(res):
    assert kappa_lorentzian(res, 0.0) == 1.0


@pytest.mark.parametrize("res", [STRONG, WEAK, CRITICAL])
def test_lorentzian_derivative_vanishes_at_zero(res):
    # central difference straddling t=0 on the analytic expression
    h = 1e-6
    deriv = float(
        _lorentzian_value(res, np.array(h)) - _lorentzian_value(res, np.array(-h))
    ) / (2 * h)
    assert abs(deriv) <= 1e-8


def test_lorentzian_first_zero():
    d = math.sqrt(STRONG.discriminant)
    t1 = (2.0 / d) * (math.pi - math.atan2(d, STRONG.gamma))
    assert t1 == pytest.approx(7.1266, abs=2e-4)
    assert abs(kappa_lorentzian(STRONG, t1)) < 1e-12


def test_lorentzian_weak_is_monotone_positive():
    ts = np.linspace(0.0, 5000.0, 4000)
    vals = kappa_lorentzian(WEAK, ts)
    assert np.all(vals > 0)
    assert np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 0)


def test_lorentzian_critical_matches_neighbor_branches():
    # the series limit joins continuously onto the strong/weak formulas
    near = ReservoirConfig(gamma=0.01, eta0=0.005 * (1 + 1e-9))
    ts = np.linspace(0.0, 500.0, 50)
    np.testing.assert_allclose(
        kappa_lorentzian(CRITICAL, ts), kappa_lorentzian(near, ts), atol=1e-7
    )


@pytest.mark.parametrize("res", [STRONG, WEAK])
def test_lorentzian_bounded_by_one(res):
    ts = np.linspace(0.0, 100.0 / res.gamma, 200001)
    assert np.max(np.abs(kappa_lorentzian(res, ts))) <= 1.0 + 1e-12


def test_lorentzian_rejects_negative_time():
    with pytest.raises(NegativeTime):
        kappa_lorentzian(STRONG, -0.5)


def test_kappa_zeros_first_three_and_spacing():
    zeros = kappa_zeros(STRONG, horizon=50.0)
    assert zeros[:3] == pytest.approx([7.1266, 21.180, 35.233], abs=5e-3)
    assert all(z <= 50.0 for z in zeros)
    d = math.sqrt(STRONG.discriminant)
    gaps = np.diff(kappa_zeros(STRONG, horizon=300.0))
    np.testing.assert_allclose(gaps, 2 * math.pi / d, rtol=1e-10)


def test_kappa_zeros_weak_raises():
    with pytest.raises(NotOscillatory):
        kappa_zeros(WEAK, horizon=1000.0)


def test_kappa_zeros_short_horizon_empty():
    zeros = kappa_zeros(STRONG, horizon=7.1266 / 2)
    assert zeros == []



def _zeros_by_loop(res, horizon):
    # reference: step k up until the zero passes the horizon
    d = math.sqrt(res.discriminant)
    base = math.pi - math.atan2(d, res.gamma)
    zeros, k = [], 0
    while (2.0 / d) * (k * math.pi + base) <= horizon:
        zeros.append((2.0 / d) * (k * math.pi + base))
        k += 1
    return zeros


def test_kappa_zeros_match_loop_bit_for_bit():
    d = math.sqrt(STRONG.discriminant)
    base = math.pi - math.atan2(d, STRONG.gamma)
    on_zero = [(2.0 / d) * (k * math.pi + base) for k in (0, 1, 7, 300)]
    horizons = [0.0, 1.0, 50.0, 300.0, 12345.678]
    horizons += on_zero + [math.nextafter(t, -math.inf) for t in on_zero]
    for horizon in horizons:
        assert kappa_zeros(STRONG, horizon) == _zeros_by_loop(STRONG, horizon)
    assert kappa_zeros(STRONG, on_zero[2])[-1] == on_zero[2]


def test_kappa_zeros_rejects_unbounded_horizons():
    for horizon in (math.inf, math.nan, 1e12):
        with pytest.raises(ValidationError):
            kappa_zeros(STRONG, horizon)
    d = math.sqrt(STRONG.discriminant)
    base = math.pi - math.atan2(d, STRONG.gamma)
    with pytest.raises(ValidationError, match="more than"):
        kappa_zeros(STRONG, (2.0 / d) * (MAX_GRID_NODES * math.pi + base))


def test_kappa_zeros_far_negative_horizon_is_empty():
    # horizon * d overflows to -inf for this reservoir
    assert kappa_zeros(ReservoirConfig(gamma=1.0, eta0=100.0), -1.7e308) == []

# --- solver ---


def test_solver_matches_closed_form_strong():
    grid = TimeGrid(0.0, 100.0, 0.005)
    series = solve_volterra(MemoryKernel.exponential(STRONG), grid)
    exact = kappa_lorentzian(STRONG, grid.nodes())
    assert np.max(np.abs(series.values - exact)) <= 1e-5


def test_solver_matches_closed_form_weak():
    grid = TimeGrid(0.0, 2000.0, 0.05)
    series = solve_volterra(MemoryKernel.exponential(WEAK), grid)
    exact = kappa_lorentzian(WEAK, grid.nodes())
    assert np.max(np.abs(series.values - exact)) <= 1e-5


def test_solver_zero_kernel_freezes_kappa():
    kernel = MemoryKernel(evaluator=lambda u: np.zeros_like(np.asarray(u, dtype=float)))
    series = solve_volterra(kernel, TimeGrid(0.0, 10.0, 0.05))
    assert np.all(series.values == 1.0)


def test_solver_constant_kernel_gives_cosine():
    # f(u) = c turns the memory-kernel equation into kappa'' = -c*kappa,
    # so kappa(t) = cos(sqrt(c) t): an oracle outside the exponential family
    c = 0.04
    kernel = MemoryKernel(evaluator=lambda u: np.full_like(np.asarray(u, float), c))
    grid = TimeGrid(0.0, 40.0, 0.01)
    series = solve_volterra(kernel, grid)
    exact = np.cos(math.sqrt(c) * grid.nodes())
    assert np.max(np.abs(series.values - exact)) <= 1e-5


def test_solver_output_bounded():
    grid = TimeGrid(0.0, 100.0 / STRONG.gamma, 0.25)
    series = solve_volterra(MemoryKernel.exponential(STRONG), grid)
    assert np.max(np.abs(series.values)) <= 1.0 + 1e-12
    assert series.values[0] == 1.0


def _damped_cosine(u):
    """A kernel outside the exponential family."""
    u = np.asarray(u, dtype=float)
    return 0.3 * np.exp(-0.05 * u) * np.cos(0.7 * u)


@pytest.mark.parametrize(
    "kernel",
    [MemoryKernel.exponential(STRONG), MemoryKernel(evaluator=_damped_cosine)],
    ids=["recurrence", "general"],
)
def test_solver_deterministic(kernel):
    grid = TimeGrid(0.0, 20.0, 0.01)
    a = solve_volterra(kernel, grid).values
    b = solve_volterra(kernel, grid).values
    assert np.array_equal(a, b)


def _solve_loop(fvals, h):
    """The solver scheme as a plain double loop over the history sum."""
    M = len(fvals)
    out = [0.0] * M
    out[0] = 1.0
    for n in range(M - 1):
        if n == 0:
            g_n = 0.0
        else:
            s = 0.5 * fvals[n] * out[0] + 0.5 * fvals[0] * out[n]
            for j in range(1, n):
                s += fvals[n - j] * out[j]
            g_n = -h * s
        pred = out[n] + h * g_n
        s = 0.5 * fvals[n + 1] * out[0] + 0.5 * fvals[0] * pred
        for j in range(1, n + 1):
            s += fvals[n + 1 - j] * out[j]
        g_p = -h * s
        out[n + 1] = out[n] + 0.5 * h * (g_n + g_p)
    return np.array(out)


def _plain(kernel):
    """The same kernel as a plain callable, which takes the general path."""
    return MemoryKernel(evaluator=kernel.evaluator)


@pytest.mark.parametrize("wrap", [lambda k: k, _plain], ids=["recurrence", "general"])
def test_solver_matches_loop_reference(wrap):
    # both solver paths differ from the loop only in how the history sum is
    # accumulated: blocked dots and FFT products, or the exponential recurrence
    grid = TimeGrid(0.0, 50.0, 0.1)
    kernel = wrap(MemoryKernel.exponential(STRONG))
    series = solve_volterra(kernel, grid)
    reference = _solve_loop(kernel(grid.nodes()).tolist(), grid.step)
    assert np.max(np.abs(series.values - reference)) <= 1e-12


@pytest.mark.parametrize(
    "n_nodes",
    [2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 4 * _BLOCK + 3, 1000],
)
@pytest.mark.parametrize(
    "evaluator",
    [_damped_cosine, lambda u: np.full_like(np.asarray(u, float), 0.04)],
    ids=["damped-cosine", "constant"],
)
def test_general_solver_matches_loop_across_tile_edges(n_nodes, evaluator):
    # node counts on both sides of each base-block and FFT-square edge
    step = 0.125
    grid = TimeGrid(0.0, (n_nodes - 1) * step, step)
    assert grid.n_nodes == n_nodes
    series = solve_volterra(MemoryKernel(evaluator=evaluator), grid)
    reference = _solve_loop(evaluator(grid.nodes()).tolist(), step)
    assert np.max(np.abs(series.values - reference)) <= 1e-12


@pytest.mark.parametrize(
    "res, grid",
    [(STRONG, TimeGrid(0.0, 100.0, 0.005)), (WEAK, TimeGrid(0.0, 1000.0, 0.05))],
    ids=["strong", "weak"],
)
def test_solver_paths_agree(res, grid, monkeypatch):
    general_calls = []

    def counting(*args):
        general_calls.append(args[0].shape)
        return _solve_general(*args)

    monkeypatch.setattr(kappa_module, "_solve_general", counting)
    kernel = MemoryKernel.exponential(res)
    recurrence = solve_volterra(kernel, grid).values
    assert general_calls == []
    general = solve_volterra(_plain(kernel), grid).values
    assert general_calls == [(grid.n_nodes,)]
    assert np.max(np.abs(recurrence - general)) <= 1e-12


def _reference_exponential(fvals, h, c, gamma, out):
    """``_solve_exponential`` as it read before its loop invariants were
    hoisted, kept verbatim: the bit-for-bit reference."""
    M = fvals.shape[0]
    f = memoryview(fvals)
    kap = memoryview(out)
    f0 = f[0]
    r = math.exp(-gamma * h)
    kap[0] = 1.0
    hist = 0.0
    for n in range(M - 1):
        k_n = kap[n]
        if n == 0:
            g_n = 0.0
        else:
            g_n = -h * (0.5 * f[n] + 0.5 * f0 * k_n + c * hist)
            hist = r * (hist + k_n)
        pred = k_n + h * g_n
        g_p = -h * (0.5 * f[n + 1] + 0.5 * f0 * pred + c * hist)
        kap[n + 1] = k_n + 0.5 * h * (g_n + g_p)


def _sign_changing(u):
    """A kernel that turns negative at u = 5."""
    u = np.asarray(u, dtype=float)
    return 0.2 * (1.0 - 0.2 * u) * np.exp(-0.5 * u)


_KERNELS = {
    "exponential": MemoryKernel.exponential(STRONG),
    "damped-cosine": MemoryKernel(evaluator=_damped_cosine),
    "sign-changing": MemoryKernel(evaluator=_sign_changing),
}
# node counts at and beside the first block edges, and two long grids
_NODE_COUNTS = [2, 3, 64, 65, 128, 129, 4097, 20001]


def _solve_loop_longdouble(fvals, h):
    """``_solve_loop``'s scheme with every operation in long double and the
    history sum as one dot per step."""
    f = np.asarray(fvals, dtype=np.longdouble)
    h, half = np.longdouble(h), np.longdouble(0.5)
    M = len(f)
    frev = f[::-1].copy()  # frev[M-1-j] = f[j]
    out = np.zeros(M, dtype=np.longdouble)
    out[0] = 1
    g_n = np.longdouble(0)
    for m in range(1, M):
        # f_m/2 kappa_0 + sum_{j=1}^{m-1} f[m-j] kappa_j
        s = half * f[m] + np.dot(frev[M - m:M - 1], out[1:m])
        pred = out[m - 1] + h * g_n
        out[m] = out[m - 1] + half * h * (g_n - h * (s + half * f[0] * pred))
        g_n = -h * (s + half * f[0] * out[m])
    return out


@functools.cache
def _long_double_reference(name, step):
    """The kernel's samples and the long-double scheme at the largest node
    count; the scheme is causal, so each smaller count reads a prefix."""
    fvals = np.asarray(_KERNELS[name](np.arange(max(_NODE_COUNTS)) * step), dtype=float)
    return fvals, _solve_loop_longdouble(fvals, step)


@pytest.mark.parametrize("n_nodes", _NODE_COUNTS)
@pytest.mark.parametrize("step", [0.005, 0.05, 0.125])
@pytest.mark.parametrize("name", list(_KERNELS))
def test_general_solver_within_1e_14_of_the_long_double_scheme(n_nodes, step, name):
    fvals, reference = _long_double_reference(name, step)
    got = np.empty(n_nodes)
    _solve_general(fvals[:n_nodes].copy(), step, got)
    assert got[0] == 1.0
    assert np.max(np.abs(got - reference[:n_nodes])) <= 1e-14


@pytest.mark.parametrize("n_nodes", _NODE_COUNTS)
@pytest.mark.parametrize("step", [0.005, 0.05, 0.125])
def test_exponential_solver_rounds_as_the_reference_loop(n_nodes, step):
    kernel = _KERNELS["exponential"]
    fvals = np.asarray(kernel(np.arange(n_nodes) * step), dtype=float)
    got, want = np.empty(n_nodes), np.empty(n_nodes)
    kappa_module._solve_exponential(fvals, step, *kernel._exponential, got)
    _reference_exponential(fvals, step, *kernel._exponential, want)
    assert got.tobytes() == want.tobytes()


def test_general_solver_output_does_not_depend_on_the_blas_thread_count():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from squeeze_dyn import MemoryKernel, TimeGrid, solve_volterra\n"
        "kernel = MemoryKernel(evaluator=lambda u: 0.3 * np.exp(-0.05 * u) * np.cos(0.7 * u))\n"
        "series = solve_volterra(kernel, TimeGrid(0.0, 100.0, 0.005))\n"
        "assert series.grid.n_nodes == 20001\n"
        "sys.stdout.write(series.values.tobytes().hex())\n"
    )
    src = os.path.dirname(os.path.dirname(squeeze_dyn.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": src,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
        }
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(done.stdout)
    assert len(outputs[0]) == 20001 * 16
    assert outputs[0] == outputs[1]


def test_solver_stability_guard():
    res = ReservoirConfig(gamma=1.0, eta0=50.0)  # f(0) = 25
    with pytest.raises(StepTooLarge):
        solve_volterra(MemoryKernel.exponential(res), TimeGrid(0.0, 10.0, 0.05))


def test_solver_wraps_kernel_failures():
    def bad(u):
        raise RuntimeError("boom")

    with pytest.raises(KernelEvaluationError):
        solve_volterra(MemoryKernel(evaluator=bad), TimeGrid(0.0, 1.0, 0.01))
    with pytest.raises(KernelEvaluationError):
        solve_volterra(
            MemoryKernel(evaluator=lambda u: np.full_like(np.asarray(u, float), np.nan)),
            TimeGrid(0.0, 1.0, 0.01),
        )


def test_solver_requires_zero_start():
    with pytest.raises(ValidationError):
        solve_volterra(MemoryKernel.exponential(STRONG), TimeGrid(1.0, 2.0, 0.01))


def test_series_csv_round_trip():
    grid = TimeGrid(0.0, 1.0, 0.25)
    series = KappaSeries(grid=grid, values=np.array([1.0, 0.9, 0.7, 0.4, 0.1]))
    buf = io.StringIO()
    series.to_csv(buf, params={"model": "markovian", "rate": 0.005})
    text = buf.getvalue()
    header = parse_header(text)
    assert header["schema"] == "squeeze-dyn/1"
    assert header["model"] == "markovian"
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows[0] == "t,kappa"
    assert float(rows[1].split(",")[1]) == 1.0


def test_series_csv_makes_no_object_per_row(tmp_path):
    series = solve_volterra(MemoryKernel.exponential(STRONG), TimeGrid(0.0, 100.0, 0.005))
    assert series.grid.n_nodes == 20001
    with open(tmp_path / "kappa.csv", "w") as fp:
        tracemalloc.start()
        try:
            series.to_csv(fp, params={"model": "solver"})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # the two columns take 0.3 MiB; a list per row held 2.7 MiB
    assert peak < 1.5 * 2**20


def test_tabulated_interpolates_and_validates():
    grid = TimeGrid(0.0, 2.0, 1.0)
    tab = Tabulated(grid=grid, values=np.array([1.0, 0.5, 0.25]))
    assert tab.evaluate(0.5) == pytest.approx(0.75)
    with pytest.raises(ValidationError):
        Tabulated(grid=grid, values=np.array([0.9, 0.5, 0.25]))  # must start at 1
    with pytest.raises(ValidationError):
        tab.evaluate(3.0)  # beyond range


def test_tabulated_rejects_a_grid_not_starting_at_zero():
    # np.interp would repeat values[0] over [0, t_start), where there is no data
    with pytest.raises(ValidationError, match="must start at t = 0"):
        Tabulated(grid=TimeGrid(5.0, 6.0, 0.5), values=np.array([1.0, 0.5, 0.2]))


@pytest.mark.parametrize("bad", [-3.0, 1.5, math.inf, math.nan])
def test_tabulated_rejects_kappa_outside_the_unit_interval(bad):
    with pytest.raises(ValidationError, match=r"\|kappa\| <= 1"):
        Tabulated(grid=TimeGrid(0.0, 2.0, 1.0), values=np.array([1.0, bad, 0.2]))
    # the bound itself is a valid kappa
    Tabulated(grid=TimeGrid(0.0, 2.0, 1.0), values=np.array([1.0, -1.0, 1.0]))
