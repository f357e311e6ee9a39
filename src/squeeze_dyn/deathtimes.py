"""Sudden death, revival intervals, and final disappearance of squeezing
along an analytic curve t -> xi^2(t).

An evaluator maps an ndarray of times to an ndarray of xi^2 of the same
shape. The scan makes one call on a coarse uniform grid, then refines
every boundary together by bisection on the predicate xi^2 < 1: each
step is one call on the midpoints of the brackets still wider than
``REFINE_TOL``. Divergence tags (+inf) count as unsqueezed points, so
depolarizing blow-ups terminate intervals cleanly. Intervals narrower
than two coarse steps can be missed: that is the documented resolution
limit of the scan.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._format import SCHEMA
from .errors import ValidationError
from .model import MAX_GRID_NODES

__all__ = [
    "squeezed_intervals",
    "default_coarse_step",
    "death_report",
]

#: bisection boundary tolerance in time units
REFINE_TOL = 1e-6

Evaluator = Callable[[np.ndarray], np.ndarray]


def _squeezed(evaluator: Evaluator, ts: np.ndarray) -> np.ndarray:
    """xi^2(ts) < 1, elementwise; NaN counts as unsqueezed, like +inf."""
    values = np.asarray(evaluator(ts))
    if values.shape != ts.shape:
        raise ValidationError(f"evaluator gave shape {values.shape} for times {ts.shape}")
    return values < 1.0


def _bisect(
    evaluator: Evaluator, lo: np.ndarray, hi: np.ndarray, squeezed_hi: np.ndarray
) -> np.ndarray:
    """Boundaries of {xi^2 < 1} inside the brackets [lo, hi] (narrowed in
    place), whose ends differ in the predicate (``squeezed_hi`` at hi), all
    bisected together until each is at most ``REFINE_TOL`` wide."""
    live = np.flatnonzero(hi - lo > REFINE_TOL)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        same = _squeezed(evaluator, mid) == squeezed_hi[live]
        hi[live[same]] = mid[same]
        lo[live[~same]] = mid[~same]
        live = live[hi[live] - lo[live] > REFINE_TOL]
    return 0.5 * (lo + hi)


def squeezed_intervals(
    evaluator: Evaluator, horizon: float, coarse_step: float
) -> list[list[float]]:
    """All maximal squeezed intervals within [0, horizon], as [start, end]
    pairs in time order: xi^2 < 1 strictly inside each, boundaries refined
    by bisection."""
    if not (horizon > 0.0 and 0.0 < coarse_step < math.inf):
        raise ValidationError(
            f"horizon {horizon!r} and coarse step {coarse_step!r} must be positive, "
            "the step finite"
        )
    # the scan has ceil(horizon/coarse_step) + 1 nodes; checked before any
    # is allocated, and also true when the ratio overflows
    if not horizon / coarse_step <= MAX_GRID_NODES - 1:
        raise ValidationError(
            f"coarse step {coarse_step!r} over horizon {horizon!r} gives more "
            f"than {MAX_GRID_NODES} scan nodes"
        )
    n_steps = int(math.ceil(horizon / coarse_step))
    ts = np.minimum(np.arange(n_steps + 1) * coarse_step, horizon)
    flags = _squeezed(evaluator, ts)

    # edge e starts or ends a squeezed run of nodes where flags[e - 1] and
    # flags[e] differ (False beyond both ends); an edge inside the grid
    # brackets its boundary by [ts[e - 1], ts[e]], one at 0 or past n_steps
    # is the grid end itself
    edges = np.flatnonzero(np.diff(flags, prepend=False, append=False))
    bounds = ts[np.minimum(edges, n_steps)]
    inner = (edges > 0) & (edges <= n_steps)
    e = edges[inner]
    bounds[inner] = _bisect(evaluator, ts[e - 1], ts[e], flags[e])
    return bounds.reshape(-1, 2).tolist()


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
    """JSON-ready summary of one scan of the curve: the squeezed intervals
    and two death times.

    ``first_death`` is the smallest t <= horizon with xi^2(t) >= 1: 0 if
    unsqueezed at t = 0, None if squeezed throughout. ``final_death`` is
    the end of the last squeezed interval: None if still squeezed at the
    horizon, 0 if never squeezed.
    """
    intervals = squeezed_intervals(evaluator, horizon, coarse_step)
    first_death = final_death = 0.0  # never squeezed
    if intervals:
        (start, end), last_end = intervals[0], intervals[-1][1]
        if start <= 0.0:  # squeezed at t = 0
            first_death = None if end >= horizon else end
        final_death = None if last_end >= horizon else last_end
    return {
        "schema": SCHEMA,
        "kind": "death-times",
        "params": dict(params or {}),
        "horizon": horizon,
        "coarse_step": coarse_step,
        "intervals": intervals,
        "first_death": first_death,
        "final_death": final_death,
    }
