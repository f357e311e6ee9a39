"""Sudden death, revival intervals, and final disappearance of squeezing
along an analytic curve t -> xi^2(t).

Boundaries are bracketed on a coarse uniform scan and refined by
bisection on the predicate xi^2 >= 1; divergence tags (+inf) count as
unsqueezed points, so depolarizing blow-ups terminate intervals cleanly.
A ``CurveEvaluator`` (what ``curve_evaluator`` returns) evaluates the
whole coarse grid as one array; any other evaluator is called once per
grid node. Bisection makes scalar calls either way. Intervals narrower
than two coarse steps can be missed: that is the documented resolution
limit of the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._format import SCHEMA
from .analytic import CurveEvaluator
from .errors import ValidationError
from .model import MAX_GRID_NODES

__all__ = [
    "SqueezedInterval",
    "first_death_time",
    "squeezed_intervals",
    "final_death_time",
    "default_coarse_step",
    "death_report",
]

#: bisection boundary tolerance in time units
REFINE_TOL = 1e-6

Evaluator = Callable[[float], float]


@dataclass(frozen=True)
class SqueezedInterval:
    """Maximal interval with xi^2 < 1 strictly inside."""

    t_start: float
    t_end: float


def _refine(evaluator: Evaluator, lo: float, hi: float, tol: float = REFINE_TOL) -> float:
    """Boundary of {xi^2 >= 1} inside [lo, hi]; evaluator(lo) and
    evaluator(hi) must straddle 1."""
    above = evaluator(hi) >= 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (evaluator(mid) >= 1.0) == above:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def squeezed_intervals(
    evaluator: Evaluator, horizon: float, coarse_step: float
) -> list[SqueezedInterval]:
    """All maximal squeezed intervals within [0, horizon], boundaries
    refined by bisection."""
    # the scan has ceil(horizon/coarse_step) + 1 nodes; checked before any
    # is allocated, and also true when the ratio overflows or is nan
    if not horizon / coarse_step <= MAX_GRID_NODES - 1:
        raise ValidationError(
            f"coarse step {coarse_step!r} over horizon {horizon!r} gives more "
            f"than {MAX_GRID_NODES} scan nodes"
        )
    n_steps = int(math.ceil(horizon / coarse_step))
    ts = np.minimum(np.arange(n_steps + 1) * coarse_step, horizon)
    if isinstance(evaluator, CurveEvaluator):
        flags = evaluator(ts) < 1.0
    else:
        flags = np.array([evaluator(t) < 1.0 for t in ts.tolist()], dtype=bool)

    # squeezed runs [i, j] of grid nodes, from the edges of the flag array
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    intervals: list[SqueezedInterval] = []
    for i, j in zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()):
        start = float(ts[i]) if i == 0 else _refine(evaluator, float(ts[i - 1]), float(ts[i]))
        end = float(ts[j]) if j == n_steps else _refine(evaluator, float(ts[j]), float(ts[j + 1]))
        intervals.append(SqueezedInterval(start, end))
    return intervals


def _first_death(intervals: list[SqueezedInterval], horizon: float) -> float | None:
    if not intervals or intervals[0].t_start > 0.0:
        return 0.0
    first = intervals[0]
    return None if first.t_end >= horizon else first.t_end


def _final_death(intervals: list[SqueezedInterval], horizon: float) -> float | None:
    if not intervals:
        return 0.0
    last = intervals[-1]
    return None if last.t_end >= horizon else last.t_end


def first_death_time(
    evaluator: Evaluator, horizon: float, coarse_step: float
) -> float | None:
    """Smallest t <= horizon with xi^2(t) >= 1; 0 if unsqueezed at t=0,
    None if squeezed throughout."""
    return _first_death(squeezed_intervals(evaluator, horizon, coarse_step), horizon)


def final_death_time(
    evaluator: Evaluator, horizon: float, coarse_step: float
) -> float | None:
    """Supremum of squeezed-interval right endpoints within the horizon;
    None if still squeezed at the horizon, 0 if never squeezed."""
    return _final_death(squeezed_intervals(evaluator, horizon, coarse_step), horizon)


def default_coarse_step(d: float | None = None) -> float:
    """min(0.05, pi/(10 d)) so no revival narrower than a tenth of the
    kappa half-period is missed; d is the oscillation frequency of the
    driving kappa, when there is one."""
    if d is None or d <= 0:
        return 0.05
    return min(0.05, math.pi / (10.0 * d))


def death_report(
    evaluator: Evaluator,
    horizon: float,
    coarse_step: float,
    params: dict[str, object] | None = None,
) -> dict[str, object]:
    """JSON-ready summary: interval list plus first/final death times, all
    from one scan of the curve."""
    intervals = squeezed_intervals(evaluator, horizon, coarse_step)
    return {
        "schema": SCHEMA,
        "kind": "death-times",
        "params": dict(params or {}),
        "horizon": horizon,
        "coarse_step": coarse_step,
        "intervals": [[iv.t_start, iv.t_end] for iv in intervals],
        "first_death": _first_death(intervals, horizon),
        "final_death": _final_death(intervals, horizon),
    }
