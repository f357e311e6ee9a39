import math
import tracemalloc
import warnings

import numpy as np
import pytest

from squeeze_dyn import (
    ChannelKind,
    Definition,
    Form,
    KappaModel,
    LorentzianClosedForm,
    MarkovianExponential,
    MemoryKernel,
    ReservoirConfig,
    Tabulated,
    TimeGrid,
    curve_evaluator,
    death_report,
    default_coarse_step,
    optimal_alpha,
    solve_volterra,
    squeezed_intervals,
)
from squeeze_dyn.deathtimes import REFINE_TOL
from squeeze_dyn.errors import ValidationError

STRONG = ReservoirConfig(gamma=0.01, eta0=10.0)


def linear(t):
    return 0.5 + t / 100.0


def test_first_death_synthetic_linear():
    report = death_report(linear, horizon=200.0, coarse_step=1.0)
    assert report["first_death"] == pytest.approx(50.0, abs=1e-6)


def test_first_death_zero_when_unsqueezed_at_start():
    # unsqueezed at t = 0, squeezed later: the curve dies at once
    revives = death_report(lambda t: 1.0 + 0.5 * np.cos(t), horizon=20.0, coarse_step=0.1)
    assert revives["first_death"] == 0.0
    assert revives["intervals"][0][0] > 0.0
    assert revives["final_death"] == revives["intervals"][-1][1] < 20.0


def test_final_death_zero_when_never_squeezed():
    report = death_report(lambda t: np.full_like(t, 1.5), horizon=10.0, coarse_step=0.5)
    assert report["intervals"] == []
    assert report["first_death"] == 0.0
    assert report["final_death"] == 0.0


def test_first_death_none_when_squeezed_throughout():
    report = death_report(lambda t: np.full_like(t, 0.5), horizon=10.0, coarse_step=0.5)
    assert report["intervals"] == [[0.0, 10.0]]
    assert report["first_death"] is None
    assert report["final_death"] is None


def test_single_interval_for_monotone_curve():
    ivs = squeezed_intervals(linear, horizon=200.0, coarse_step=1.0)
    assert len(ivs) == 1
    assert ivs[0][0] == 0.0
    assert ivs[0][1] == pytest.approx(50.0, abs=1e-6)
    final = death_report(linear, 200.0, 1.0)["final_death"]
    assert final == pytest.approx(50.0, abs=1e-6)


def test_first_death_matches_leftmost_interval_end():
    alpha_star, _ = optimal_alpha(10)
    ev = curve_evaluator(
        10, alpha_star, ChannelKind.DEPHASING, LorentzianClosedForm(STRONG)
    )
    step = default_coarse_step(math.sqrt(STRONG.discriminant))
    report = death_report(ev, horizon=100.0, coarse_step=step)
    ivs = squeezed_intervals(ev, horizon=100.0, coarse_step=step)
    assert report["intervals"] == ivs
    assert report["first_death"] == ivs[0][1]


def test_nonmarkovian_dephasing_revives():
    alpha_star, _ = optimal_alpha(10)
    ev = curve_evaluator(
        10, alpha_star, ChannelKind.DEPHASING, LorentzianClosedForm(STRONG)
    )
    step = default_coarse_step(math.sqrt(STRONG.discriminant))
    ivs = squeezed_intervals(ev, horizon=100.0, coarse_step=step)
    assert len(ivs) >= 3
    for start, end in ivs:
        assert start < end
        assert ev(0.5 * (start + end)) < 1.0


def test_refinement_convergence_interval_count_stable():
    alpha_star, _ = optimal_alpha(10)
    ev = curve_evaluator(
        10, alpha_star, ChannelKind.DEPHASING, LorentzianClosedForm(STRONG)
    )
    d = math.sqrt(STRONG.discriminant)
    step = min(0.05, math.pi / (10 * d))
    n1 = len(squeezed_intervals(ev, horizon=100.0, coarse_step=step))
    n2 = len(squeezed_intervals(ev, horizon=100.0, coarse_step=step / 2))
    assert n1 == n2


def test_markovian_damping_single_interval_to_horizon():
    alpha_star, _ = optimal_alpha(10)
    ev = curve_evaluator(
        10, alpha_star, ChannelKind.DAMPING, MarkovianExponential(rate=0.005)
    )
    ivs = squeezed_intervals(ev, horizon=1000.0, coarse_step=0.5)
    assert ivs == [[0.0, 1000.0]]
    assert death_report(ev, 1000.0, 0.5)["final_death"] is None


def test_divergence_tags_count_as_unsqueezed():
    def diverging(t):
        return np.where((2.0 <= t) & (t <= 3.0), np.inf, 0.5)

    ivs = squeezed_intervals(diverging, horizon=5.0, coarse_step=0.1)
    assert len(ivs) == 2


def test_default_coarse_step():
    assert default_coarse_step(None) == 0.05
    d = math.sqrt(STRONG.discriminant)
    assert default_coarse_step(d) == pytest.approx(min(0.05, math.pi / (10 * d)))


def test_death_report_structure():
    report = death_report(linear, horizon=200.0, coarse_step=1.0, params={"n": 10})
    assert report["schema"] == "squeeze-dyn/1"
    assert report["params"] == {"n": 10}
    assert report["first_death"] == pytest.approx(50.0, abs=1e-6)
    assert report["final_death"] == pytest.approx(50.0, abs=1e-6)
    assert report["intervals"][0][0] == 0.0


class _Counted:
    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.evaluator(t)


@pytest.mark.parametrize(
    "evaluator, horizon, step",
    [
        (linear, 200.0, 1.0),
        (lambda t: 0.6 + 0.7 * np.sin(t), 20.0, 0.1),  # squeezed at t = 0, revives
        (lambda t: 1.0 + 0.5 * np.cos(t), 20.0, 0.1),  # unsqueezed at t = 0
        (lambda t: np.full_like(t, 0.5), 10.0, 0.5),  # squeezed throughout
        (lambda t: np.full_like(t, 1.5), 10.0, 0.5),  # never squeezed
        (  # non-Markovian dephasing: collapses and revivals
            curve_evaluator(
                10, optimal_alpha(10)[0], ChannelKind.DEPHASING, LorentzianClosedForm(STRONG)
            ),
            100.0,
            default_coarse_step(math.sqrt(STRONG.discriminant)),
        ),
    ],
)
def test_death_report_makes_one_pass(evaluator, horizon, step):
    scan = _Counted(evaluator)
    squeezed_intervals(scan, horizon, step)
    report = _Counted(evaluator)
    death_report(report, horizon, step)
    assert report.calls == scan.calls


def _solver_tabulated():
    series = solve_volterra(MemoryKernel.exponential(STRONG), TimeGrid(0.0, 100.0, 0.01))
    return Tabulated(series.grid, series.values)


_MODELS = [
    LorentzianClosedForm(STRONG),
    MarkovianExponential(rate=0.005),
    _solver_tabulated(),
]


def _reference_scan(evaluator, horizon, coarse_step):
    """The per-node scan with scalar bisection that the array scan replaced."""
    n_steps = int(math.ceil(horizon / coarse_step))
    ts = np.minimum(np.arange(n_steps + 1) * coarse_step, horizon)
    flags = np.array([evaluator(t) < 1.0 for t in ts.tolist()], dtype=bool)

    def refine(lo, hi):
        above = evaluator(hi) >= 1.0
        while hi - lo > REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if (evaluator(mid) >= 1.0) == above:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    intervals = []
    for i, j in zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()):
        start = float(ts[i]) if i == 0 else refine(float(ts[i - 1]), float(ts[i]))
        end = float(ts[j]) if j == n_steps else refine(float(ts[j]), float(ts[j + 1]))
        intervals.append([start, end])
    return intervals


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.label())
@pytest.mark.parametrize("form", list(Form), ids=lambda f: f.value)
@pytest.mark.parametrize("definition", list(Definition), ids=lambda d: d.value)
@pytest.mark.parametrize("channel", list(ChannelKind), ids=lambda c: c.value)
def test_array_scan_matches_scalar_scan(channel, definition, form, model):
    ev = curve_evaluator(10, optimal_alpha(10)[0], channel, model, definition, form)
    step = default_coarse_step(math.sqrt(STRONG.discriminant))
    assert squeezed_intervals(ev, 100.0, step) == _reference_scan(ev, 100.0, step)


class _RecordingModel(KappaModel):
    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def evaluate(self, t):
        self.calls.append(t)
        return self.inner.evaluate(t)


def test_array_scan_makes_one_array_call_then_bisects():
    horizon, step = 100.0, default_coarse_step(math.sqrt(STRONG.discriminant))
    n_steps = math.ceil(horizon / step)
    model = _RecordingModel(LorentzianClosedForm(STRONG))
    ev = curve_evaluator(10, optimal_alpha(10)[0], ChannelKind.DEPHASING, model)
    ivs = squeezed_intervals(ev, horizon, step)
    assert all(isinstance(t, np.ndarray) for t in model.calls)
    coarse, *bisections = model.calls
    np.testing.assert_array_equal(coarse, np.minimum(np.arange(n_steps + 1) * step, horizon))
    # every boundary is bisected in the first step, then only the open ones
    boundaries = sum((start > 0.0) + (end < horizon) for start, end in ivs)
    assert boundaries > 0 and bisections[0].shape == (boundaries,)
    assert 1 <= len(bisections) <= math.ceil(math.log2(step / REFINE_TOL))


@pytest.mark.parametrize(
    "horizon, step",
    [
        (200.0, -1.0),
        (200.0, 0.0),
        (200.0, math.inf),
        (200.0, math.nan),
        (0.0, 1.0),
        (-5.0, 1.0),
        (math.nan, 1.0),
    ],
)
def test_scan_rejects_unusable_horizon_or_step(horizon, step):
    def never(t):
        raise AssertionError("evaluator called")

    for scan in (squeezed_intervals, death_report):
        with pytest.raises(ValidationError, match="must be positive"):
            scan(never, horizon, step)


@pytest.mark.parametrize(
    "evaluator",
    [
        lambda t: 1.5,  # a scalar for the coarse grid
        lambda t: np.zeros(3),
        lambda t: linear(t)[:, None],
        lambda t: linear(t) if t.size > 1 else float(linear(t)[0]),  # scalar bisection
    ],
)
def test_scan_rejects_result_of_another_shape(evaluator):
    with pytest.raises(ValidationError, match="shape"):
        squeezed_intervals(evaluator, 200.0, 1.0)


def test_scan_rejects_too_many_nodes_before_allocating():
    def never(t):
        raise AssertionError("evaluator called")

    ev = curve_evaluator(10, 0.2, ChannelKind.DEPHASING, LorentzianClosedForm(STRONG))
    tracemalloc.start()
    try:
        for evaluator in (never, ev):
            with pytest.raises(ValidationError, match="scan nodes"):
                squeezed_intervals(evaluator, 200.0, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "boundary, horizon",
    [(1e300, 1e308), (1.7e308, 1.79e308), (1e10, 2e10)],
    ids=["spacing-above-tol", "sum-overflows", "just-above-2^33"],
)
def test_bisection_ends_at_adjacent_doubles_near_the_largest_times(boundary, horizon):
    # above t = 2^33 adjacent doubles lie more than REFINE_TOL apart, so
    # the width test alone never ended the loop; near the largest doubles
    # 0.5 * (lo + hi) overflowed to inf
    def step(ts):
        return np.where(ts < boundary, 0.5, 2.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (start, end), = squeezed_intervals(step, horizon, horizon)
    assert start == 0.0
    assert abs(end - boundary) <= 2.0 * math.ulp(boundary)
