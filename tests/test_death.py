import math
import tracemalloc

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
    default_coarse_step,
    final_death_time,
    first_death_time,
    optimal_alpha,
    solve_volterra,
    squeezed_intervals,
)
from squeeze_dyn.deathtimes import REFINE_TOL, SqueezedInterval, death_report
from squeeze_dyn.errors import ValidationError

STRONG = ReservoirConfig(gamma=0.01, eta0=10.0)


def linear(t):
    return 0.5 + t / 100.0


def test_first_death_synthetic_linear():
    assert first_death_time(linear, horizon=200.0, coarse_step=1.0) == pytest.approx(
        50.0, abs=1e-6
    )


def test_first_death_zero_when_unsqueezed_at_start():
    assert first_death_time(lambda t: np.full_like(t, 1.5), horizon=10.0, coarse_step=0.5) == 0.0


def test_first_death_none_when_squeezed_throughout():
    assert first_death_time(lambda t: np.full_like(t, 0.5), horizon=10.0, coarse_step=0.5) is None


def test_single_interval_for_monotone_curve():
    ivs = squeezed_intervals(linear, horizon=200.0, coarse_step=1.0)
    assert len(ivs) == 1
    assert ivs[0].t_start == 0.0
    assert ivs[0].t_end == pytest.approx(50.0, abs=1e-6)
    assert final_death_time(linear, 200.0, 1.0) == pytest.approx(50.0, abs=1e-6)


def test_first_death_matches_leftmost_interval_end():
    alpha_star, _ = optimal_alpha(10)
    ev = curve_evaluator(
        10, alpha_star, ChannelKind.DEPHASING, LorentzianClosedForm(STRONG)
    )
    step = default_coarse_step(math.sqrt(STRONG.discriminant))
    first = first_death_time(ev, horizon=100.0, coarse_step=step)
    ivs = squeezed_intervals(ev, horizon=100.0, coarse_step=step)
    assert first == pytest.approx(ivs[0].t_end, abs=1e-6)


def test_nonmarkovian_dephasing_revives():
    alpha_star, _ = optimal_alpha(10)
    ev = curve_evaluator(
        10, alpha_star, ChannelKind.DEPHASING, LorentzianClosedForm(STRONG)
    )
    step = default_coarse_step(math.sqrt(STRONG.discriminant))
    ivs = squeezed_intervals(ev, horizon=100.0, coarse_step=step)
    assert len(ivs) >= 3
    for iv in ivs:
        assert iv.t_start < iv.t_end
        assert ev(0.5 * (iv.t_start + iv.t_end)) < 1.0


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
    assert len(ivs) == 1
    assert ivs[0].t_start == 0.0
    assert ivs[0].t_end == 1000.0
    assert final_death_time(ev, 1000.0, 0.5) is None


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
    return Tabulated.from_series(series)


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
        intervals.append(SqueezedInterval(start, end))
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
    boundaries = sum((iv.t_start > 0.0) + (iv.t_end < horizon) for iv in ivs)
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
