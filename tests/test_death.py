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
from squeeze_dyn.deathtimes import death_report
from squeeze_dyn.errors import ValidationError

STRONG = ReservoirConfig(gamma=0.01, eta0=10.0)


def linear(t):
    return 0.5 + t / 100.0


def test_first_death_synthetic_linear():
    assert first_death_time(linear, horizon=200.0, coarse_step=1.0) == pytest.approx(
        50.0, abs=1e-6
    )


def test_first_death_zero_when_unsqueezed_at_start():
    assert first_death_time(lambda t: 1.5, horizon=10.0, coarse_step=0.5) == 0.0


def test_first_death_none_when_squeezed_throughout():
    assert first_death_time(lambda t: 0.5, horizon=10.0, coarse_step=0.5) is None


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
        return math.inf if 2.0 <= t <= 3.0 else 0.5

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
        (lambda t: 0.6 + 0.7 * math.sin(t), 20.0, 0.1),  # squeezed at t = 0, revives
        (lambda t: 1.0 + 0.5 * math.cos(t), 20.0, 0.1),  # unsqueezed at t = 0
        (lambda t: 0.5, 10.0, 0.5),  # squeezed throughout
        (lambda t: 1.5, 10.0, 0.5),  # never squeezed
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


@pytest.mark.parametrize("model", _MODELS, ids=lambda m: m.label())
@pytest.mark.parametrize("form", list(Form), ids=lambda f: f.value)
@pytest.mark.parametrize("definition", list(Definition), ids=lambda d: d.value)
@pytest.mark.parametrize("channel", list(ChannelKind), ids=lambda c: c.value)
def test_array_scan_matches_scalar_scan(channel, definition, form, model):
    ev = curve_evaluator(10, optimal_alpha(10)[0], channel, model, definition, form)
    step = default_coarse_step(math.sqrt(STRONG.discriminant))
    # the lambda hides the evaluator type, so the scan calls it node by node
    assert squeezed_intervals(ev, 100.0, step) == squeezed_intervals(lambda t: ev(t), 100.0, step)


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
    alpha = optimal_alpha(10)[0]
    model = _RecordingModel(LorentzianClosedForm(STRONG))
    ev = curve_evaluator(10, alpha, ChannelKind.DEPHASING, model)
    squeezed_intervals(ev, horizon, step)
    arrays = [t for t in model.calls if isinstance(t, np.ndarray)]
    scalars = [t for t in model.calls if not isinstance(t, np.ndarray)]
    assert [a.shape for a in arrays] == [(n_steps + 1,)]
    assert model.calls[0] is arrays[0]
    assert all(type(t) is float for t in scalars)
    # the scalar calls are exactly the bisection calls of the per-node scan
    plain = _Counted(
        curve_evaluator(10, alpha, ChannelKind.DEPHASING, LorentzianClosedForm(STRONG))
    )
    squeezed_intervals(plain, horizon, step)
    assert scalars and len(scalars) == plain.calls - (n_steps + 1)


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
