"""Correctness checks of the benchmark's outputs.

Every check compares a file the program wrote against a computation of
the benchmark's own or a property the method must have, never against a
stored copy of earlier output:

- curve columns against a vectorised evaluation of the closed forms
  (REFERENCE and EXACT) and of kappa(t), the first row against the
  pure-state value, and EXACT values at N = 10 against the explicit-state
  oracle (``build_oat_state`` -> ``apply_channel`` -> ``collective_moments``);
- death-time reports against intervals found from the threshold kappa_c
  (a root in kappa) and the crossings of |kappa(t)| = kappa_c on the
  monotone pieces of kappa(t);
- solver output against the closed-form kappa, and ``verify`` reports
  against their own invariants and the closed forms.

Each ``check_*`` function returns a list of error messages; an empty list
means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: own vectorised closed forms against the program's, relative
REL_TOL = 1e-9
#: EXACT forms at large N lose digits to cancellation in both codes
EXACT_REL_TOL = 1e-7
#: closed-form kappa columns, absolute
KAPPA_TOL = 1e-12
#: time nodes of a curve, absolute
NODE_TOL = 1e-9
#: explicit-state oracle against EXACT values, absolute
ORACLE_TOL = 1e-8
#: memory-kernel solver against the closed form, sup-norm
SOLVER_TOL = 1e-5
#: death-time boundaries; the program refines to 1e-6
BOUNDARY_TOL = 1e-5
#: xi^2 near its minimum carries ~1e-9 relative rounding noise at N ~ 10^5
OPTIMUM_RTOL = 1e-8
SLOPE_RANGE = (-0.36, -0.30)
#: thresholds in kappa below this are rounding noise of xi^2(kappa = 0) = 1
KAPPA_FLOOR = 1e-9
EXPONENT_RATIO = 0.5
EXPONENT_TOL = 1e-6
#: verify's built-in case matrix: N values, angles, kappas, channels, definitions
VERIFY_NS = (2, 3, 4, 5, 6, 8, 10, 12)
VERIFY_CASES_PER_N = 3 * 4 * 3 * 2


# ---------------------------------------------------------------------------
# reading outputs


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_table(path: str) -> tuple[dict, list[str], np.ndarray]:
    """(params, columns, rows) of a CSV or JSON data file."""
    with open(path, encoding="utf-8") as fp:
        text = fp.read()
    if path.endswith(".json"):
        data = json.loads(text)
        return data["params"], data["columns"], np.array(data["rows"], dtype=float)
    lines = text.splitlines()
    params: dict = {}
    i = 1  # line 0 names the kind and schema
    while lines[i].startswith("#"):
        key, _, val = lines[i][1:].partition("=")
        params[key.strip()] = _value(val.strip())
        i += 1
    columns = lines[i].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[i + 1:]])
    return params, columns, rows.reshape(-1, len(columns))


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def options(argv) -> dict[str, str]:
    """``--key value`` pairs of a CLI argument list."""
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--") and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[tok[2:]] = argv[i + 1]
    return out


def check_repeatable(digests: list[dict[str, str]]) -> list[str]:
    """Each operation wrote byte-identical output in every round; the
    argument holds one {operation: sha256} map per round."""
    errs = []
    for name, first in digests[0].items():
        if any(d.get(name, first) != first for d in digests[1:]):
            errs.append(f"{name}: output differs between rounds of the same command")
    return errs


# ---------------------------------------------------------------------------
# kappa(t)


def kappa_lorentzian(gamma: float, eta0: float, t):
    """kappa(t) of a resonant Lorentzian reservoir, strong or weak coupling."""
    t = np.asarray(t, dtype=float)
    disc = 2.0 * eta0 * gamma - gamma * gamma
    if disc > 0:
        d = math.sqrt(disc)
        return np.exp(-gamma * t / 2) * (np.cos(d * t / 2) + gamma / d * np.sin(d * t / 2))
    d = math.sqrt(-disc)
    return np.exp(-gamma * t / 2) * (np.cosh(d * t / 2) + gamma / d * np.sinh(d * t / 2))


def lorentzian_pieces(gamma: float, eta0: float, horizon: float) -> list[float]:
    """Breakpoints of [0, horizon] between which |kappa(t)| is monotone.

    kappa' is proportional to -exp(-gamma t/2) sin(d t/2), so the extrema
    sit at t = 2 pi k / d; |kappa| has its other turning points at the
    zeros of kappa.
    """
    d = math.sqrt(2.0 * eta0 * gamma - gamma * gamma)
    pts = {0.0, horizon}
    k = 1
    while 2 * math.pi * k / d < horizon:
        pts.add(2 * math.pi * k / d)
        k += 1
    k = 0
    base = math.pi - math.atan2(d, gamma)
    while (2 / d) * (k * math.pi + base) < horizon:
        pts.add((2 / d) * (k * math.pi + base))
        k += 1
    return sorted(pts)


def lorentzian_slope(gamma: float, eta0: float, t: float) -> float:
    """|d kappa / dt| of the strong-coupling closed form."""
    d = math.sqrt(2.0 * eta0 * gamma - gamma * gamma)
    return math.exp(-gamma * t / 2) * abs(math.sin(d * t / 2)) * (gamma**2 + d**2) / (2 * d)


# ---------------------------------------------------------------------------
# closed-form squeezing parameters, vectorised over kappa


def _pure_terms(n: int, alpha: float):
    c, c2 = math.cos(alpha), math.cos(2.0 * alpha)
    a_coef = 1.0 - c2 ** (n - 2)
    b_coef = 4.0 * math.sin(alpha) * c ** (n - 2)
    return a_coef, b_coef, math.hypot(a_coef, b_coef), c ** (n - 1), c ** (2 * n - 2)


def pure_xi2(n: int, alpha: float, definition: str) -> float:
    """Squeezing of the undecohered twisted state; the eigenvalue form
    has normalisation 1 because <J^2> = (N/2)(N/2+1) for symmetric states."""
    a_coef, _, hy, _, cp2 = _pure_terms(n, alpha)
    a = 1.0 - (n - 1) * (hy - a_coef) / 4.0
    if definition == "xi":
        return a / cp2 if cp2 else math.inf
    b = 1.0 + (n - 1) * ((2.0 - a_coef) / 2.0 - cp2)
    return min(a, b)


def _reference(n, alpha, k, channel, definition):
    a_coef, b_coef, hy, x1, cp2 = _pure_terms(n, alpha)
    if hy == 0.0:
        zeta = np.ones_like(k)
    else:
        zeta = 1.0 + 0.25 * (n - 1) * (k * k * (a_coef - a_coef**2 / hy) - k * b_coef**2 / hy)
    k2 = k * k
    c2 = 1.0 - a_coef
    if definition == "xi":
        den = {
            "dephasing": cp2 + 0 * k,
            "depolarizing": k2 * cp2,
            "damping": (k * x1 + 1.0 - k) ** 2,
        }[channel]
    else:
        f = 1.0 - 1.0 / n
        den = {
            "dephasing": f * (k2 + (1.0 - k2) * (1.0 + c2) / 2.0) + 1.0 / n,
            "depolarizing": f * k2 + 1.0 / n,
            "damping": 1.0 + f * k * (1.0 - k) * (1.0 - x1 + (1.0 + c2) / 2.0),
        }[channel]
    return np.where(den == 0.0, np.inf, zeta / np.where(den == 0.0, 1.0, den))


def decohered_moments(n, alpha, k, channel):
    """Mean spin (K, 3) and second moments (K, 3, 3) of the decohered
    twisted state: pair correlators of the pure state contracted by the
    channel's Heisenberg factors."""
    a_coef, b_coef, _, x1, _ = _pure_terms(n, alpha)
    k2 = k * k
    one, zero = np.ones_like(k), np.zeros_like(k)
    rp, rz, m = {
        "dephasing": (k2, one, zero),
        "depolarizing": (k2, k2, zero),
        "damping": (k, k2, k2 - 1.0),
    }[channel]
    pair = n * (n - 1) / 4.0
    mean = np.stack([0.5 * n * rp * x1, zero, 0.5 * n * m], axis=-1)
    corr = np.zeros(k.shape + (3, 3))
    corr[:, 0, 0] = n / 4.0 + pair * rp * rp * (2.0 - a_coef) / 2.0
    corr[:, 1, 1] = n / 4.0 + pair * rp * rp * a_coef / 2.0
    corr[:, 2, 2] = n / 4.0 + pair * m * m
    corr[:, 1, 2] = corr[:, 2, 1] = pair * rp * rz * b_coef / 4.0
    corr[:, 0, 2] = corr[:, 2, 0] = pair * rp * m * x1
    return mean, corr


def xi2_from_moments(n: int, mean, corr, definition: str):
    """Both definitions from batched moments: N lambda_min(C restricted to
    the plane orthogonal to <J>) / |<J>|^2, and lambda_min(Gamma) /
    (<J^2> - N/2) with Gamma = (N-1)(C - <J><J>^T) + C."""
    mean, corr = np.atleast_2d(mean), np.asarray(corr).reshape(-1, 3, 3)
    if definition == "xi":
        r2 = np.einsum("ka,ka->k", mean, mean)
        ok = r2 > 1e-24
        u = mean / np.sqrt(np.where(ok, r2, 1.0))[:, None]
        ref = np.where(np.abs(u[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
        e1 = np.cross(u, ref)
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e2 = np.cross(u, e1)
        p11 = np.einsum("ka,kab,kb->k", e1, corr, e1)
        p22 = np.einsum("ka,kab,kb->k", e2, corr, e2)
        p12 = np.einsum("ka,kab,kb->k", e1, corr, e2)
        lam = 0.5 * (p11 + p22) - np.hypot(0.5 * (p11 - p22), p12)
        return np.where(ok, n * lam / np.where(ok, r2, 1.0), np.inf)
    gamma = (n - 1) * (corr - mean[:, :, None] * mean[:, None, :]) + corr
    den = np.trace(corr, axis1=1, axis2=2) - n / 2.0
    return np.linalg.eigvalsh(gamma)[:, 0] / den


def xi2(n: int, alpha: float, kappa, channel: str, definition: str, form: str):
    """Decohered squeezing at |kappa| (clamped to 1), as the curves use it."""
    k = np.minimum(np.abs(np.atleast_1d(np.asarray(kappa, dtype=float))), 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if form == "reference":
            return _reference(n, alpha, k, channel, definition)
        return xi2_from_moments(n, *decohered_moments(n, alpha, k, channel), definition)


# ---------------------------------------------------------------------------
# comparisons


def _compare(label, got, want, rtol, atol) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != expected {want.shape}"]
    both_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    with np.errstate(invalid="ignore"):
        bad = ~both_inf & ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if not bad.any():
        return []
    i = int(np.argmax(bad))
    return [f"{label}: {int(bad.sum())} values off, first at row {i}: {got[i]!r} != {want[i]!r}"]


def alpha_is_optimal(n: int, alpha: float) -> list[str]:
    """The optimizer's angle minimises the pure variance form: no value
    lower by more than ``OPTIMUM_RTOL`` on a 4096-point grid over
    (0, pi/2), nor at alpha (1 +- 1e-3)."""
    best = pure_xi2(n, alpha, "xi")
    grid = np.linspace(0.0, math.pi / 2, 4098)[1:-1] / alpha
    vals = (pure_xi2(n, alpha * f, "xi") for f in [1 - 1e-3, 1 + 1e-3, *grid])
    # at large N, cos^(2N-2) underflows to 0 far from the optimum: xi^2 = inf
    lowest = min(v for v in vals if 0.0 < v < math.inf)
    if best > lowest * (1 + OPTIMUM_RTOL):
        return [f"alpha_star {alpha!r} at N = {n} gives xi^2 {best!r}; {lowest!r} is lower"]
    return []


# ---------------------------------------------------------------------------
# curves


def check_curve(path: str, argv, kappa_truth=None, kappa_tol=KAPPA_TOL) -> list[str]:
    """An ``evolve`` output against the closed forms.

    ``kappa_truth(t)`` gives the kappa the column must match, within
    ``kappa_tol``; by default the Lorentzian closed form of the argv.
    """
    opt = options(argv)
    params, columns, rows = read_table(path)
    errs: list[str] = []
    n, channel = int(opt["n"]), opt["channel"]
    definition, form = opt.get("definition", "xi"), opt.get("form", "reference")
    for key, want in (("n", n), ("channel", channel), ("definition", definition), ("form", form)):
        if params.get(key) != want:
            errs.append(f"{path}: header {key} = {params.get(key)!r}, expected {want!r}")
    alpha = float(opt["alpha"]) if "alpha" in opt else float(params["alpha"])
    if "alpha" not in opt:
        errs += alpha_is_optimal(n, alpha)
    elif params.get("alpha") != alpha:
        errs.append(f"{path}: header alpha {params.get('alpha')!r} != {alpha!r}")
    want_cols = ["t", "kappa", "xi2"] + (["xi2_markovian"] if "compare-markovian" in opt else [])
    if columns != want_cols:
        return errs + [f"{path}: columns {columns} != {want_cols}"]

    t_max, dt = float(opt["t-max"]), float(opt.get("dt", 0.05))
    n_nodes = int(math.floor(t_max / dt + 1e-9)) + 1
    t = rows[:, 0]
    errs += _compare(f"{path} t", t, dt * np.arange(n_nodes), 0.0, NODE_TOL)
    if len(t) != n_nodes:
        return errs
    if kappa_truth is None:
        def kappa_truth(ts):
            return kappa_lorentzian(float(opt["gamma"]), float(opt["eta0"]), ts)
    errs += _compare(f"{path} kappa", rows[:, 1], kappa_truth(t), 0.0, kappa_tol)
    rtol = REL_TOL if form == "reference" else EXACT_REL_TOL
    errs += _compare(f"{path} xi2", rows[:, 2], xi2(n, alpha, rows[:, 1], channel, definition, form),
                     rtol, 1e-12)
    if "compare-markovian" in opt:
        mk = np.exp(-float(opt["compare-markovian"]) * t)
        errs += _compare(f"{path} xi2_markovian", rows[:, 3],
                         xi2(n, alpha, mk, channel, definition, form), rtol, 1e-12)
    # kappa(0) = 1: both forms give the pure-state value
    errs += _compare(f"{path} xi2 at kappa = 1", rows[0, 2:], np.full(len(columns) - 2,
                     pure_xi2(n, alpha, definition)), rtol, 1e-12)
    return errs


class Oracle:
    """Explicit-state values of the program's oracle, cached per state."""

    def __init__(self, sd):
        self.sd = sd
        self._cache: dict = {}

    def moments(self, n: int, alpha: float, channel: str, kappa: float):
        key = (n, alpha, channel, kappa)
        if key not in self._cache:
            sd = self.sd
            psi = sd.build_oat_state(n, alpha)
            rho = sd.apply_channel(np.outer(psi, psi.conj()), sd.ChannelKind(channel), kappa)
            m = sd.collective_moments(rho, n)
            self._cache[key] = (np.asarray(m.mean_spin), np.asarray(m.corr))
        return self._cache[key]


def check_curve_oracle(path: str, argv, oracle: Oracle) -> list[str]:
    """EXACT values of an N = 10 curve at its most negative kappa against
    the explicit state decohered with that (signed) kappa."""
    opt = options(argv)
    params, columns, rows = read_table(path)
    n, alpha = int(opt["n"]), float(params["alpha"])
    i = int(np.argmin(rows[:, 1]))
    if not rows[i, 1] < 0:
        return [f"{path}: no node with kappa < 0 to check against the oracle"]
    mean, corr = oracle.moments(n, alpha, opt["channel"], float(rows[i, 1]))
    want = xi2_from_moments(n, mean, corr, opt.get("definition", "xi"))[0]
    if not abs(rows[i, 2] - want) <= ORACLE_TOL:
        return [f"{path}: row {i} xi2 {rows[i, 2]!r} differs from the oracle {want!r}"]
    return []


def alpha_scan_faults(path: str) -> list[str]:
    """Rows whose alpha_star is not the minimiser of the pure variance form."""
    rows = read_json(path)["rows"]
    return [e for n, a, _ in rows for e in alpha_is_optimal(int(n), float(a))]


def check_alpha_scan(path: str, argv) -> list[str]:
    opt = options(argv)
    data = read_json(path)
    n_min, n_max, points = int(opt["n-min"]), int(opt["n-max"]), int(opt.get("points", 25))
    ns = np.unique(np.round(np.geomspace(n_min, n_max, points)).astype(int))
    rows = np.array(data["rows"], dtype=float).reshape(-1, 3)
    if data["columns"] != ["n", "alpha_star", "xi_min"] or not np.array_equal(rows[:, 0], ns):
        return [f"{path}: rows do not cover N = {ns.tolist()}"]
    errs: list[str] = []
    pure = [pure_xi2(int(n), a, "xi") for n, a in rows[:, :2]]
    errs += _compare(f"{path} xi_min^2", rows[:, 2] ** 2, pure, REL_TOL, 0.0)
    slope = float(np.polyfit(np.log(ns.astype(float)), np.log(rows[:, 2]), 1)[0])
    reported = data["params"]["slope_log_xi_vs_log_n"]
    if not abs(reported - slope) <= 1e-9:
        errs.append(f"{path}: slope {reported!r} != fit of its rows {slope!r}")
    if not SLOPE_RANGE[0] <= reported <= SLOPE_RANGE[1]:
        errs.append(f"{path}: slope {reported!r} outside {SLOPE_RANGE}")
    return errs


# ---------------------------------------------------------------------------
# death times


def threshold_kappas(f) -> list[float]:
    """The kappa in [0, 1] where f(kappa) < 1 switches, by a scan and
    bisection in kappa."""
    ks = np.linspace(0.0, 1.0, 4001)
    below = f(ks) < 1.0
    roots = []
    for i in np.flatnonzero(below[1:] != below[:-1]):
        lo, hi = ks[i], ks[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (f(np.array([mid]))[0] < 1.0) == below[i]:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    # damping has xi^2(0) = 1 up to rounding: a "threshold" at kappa ~ 1e-16
    # makes gaps of width ~1e-15 around the zeros of kappa(t), below any scan
    return [r for r in roots if r > KAPPA_FLOOR]


def true_intervals(f, kappa_abs, breaks, roots) -> list[tuple[float, float]]:
    """Squeezed intervals of t -> f(|kappa(t)|): every crossing of
    |kappa(t)| = root on each monotone piece [breaks[i], breaks[i+1]]."""
    cuts = {breaks[0], breaks[-1]}
    for a, b in zip(breaks[:-1], breaks[1:]):
        ka, kb = kappa_abs(a), kappa_abs(b)
        for r in roots:
            if (ka - r) * (kb - r) < 0:
                lo, hi = a, b
                for _ in range(100):
                    mid = 0.5 * (lo + hi)
                    if (kappa_abs(mid) > r) == (ka > r):
                        lo = mid
                    else:
                        hi = mid
                cuts.add(0.5 * (lo + hi))
    cuts = sorted(cuts)
    out: list[list[float]] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if f(np.array([kappa_abs(0.5 * (a + b))]))[0] < 1.0:
            if out and out[-1][1] == a:
                out[-1][1] = b
            else:
                out.append([a, b])
    return [tuple(iv) for iv in out]


def _has_node(start: float, end: float, step: float, horizon: float) -> bool:
    """Whether the program's scan has a node strictly inside (start, end)."""
    t = math.floor(start / step + 1.0) * step
    return t < end and t <= horizon


def check_intervals(label, report, truth, tol_at) -> list[str]:
    """Reported intervals match the true ones, boundary by boundary.

    The scan finds a squeezed interval or a gap between two only if one
    of its nodes lies inside it; a true interval or gap without a node is
    below the documented resolution and may be absent.
    """
    horizon, step = report["horizon"], report["coarse_step"]
    got = [tuple(iv) for iv in report["intervals"]]
    i = j = 0
    while i < len(truth):
        start, end = truth[i]
        if j < len(got) and abs(got[j][0] - start) <= tol_at(start):
            k = i
            while abs(got[j][1] - truth[k][1]) > tol_at(truth[k][1]) and k + 1 < len(truth) \
                    and not _has_node(truth[k][1], truth[k + 1][0], step, horizon):
                k += 1
            if abs(got[j][1] - truth[k][1]) <= tol_at(truth[k][1]):
                i, j = k + 1, j + 1
                continue
        if start == 0.0 or _has_node(start, end, step, horizon):
            near = got[j] if j < len(got) else None
            return [f"{label}: expected interval [{start:.7f}, {end:.7f}], got {near}"]
        i += 1
    if j != len(got):
        return [f"{label}: {len(got) - j} reported intervals match no true interval"]
    # first death: the first exit from squeezing; final: the last
    errs = []
    if not got or got[0][0] > 0.0:
        first = 0.0
    else:
        first = None if got[0][1] >= horizon else got[0][1]
    final = 0.0 if not got else (None if got[-1][1] >= horizon else got[-1][1])
    for key, want in (("first_death", first), ("final_death", final)):
        have = report[key]
        if (have is None) != (want is None) or (want is not None and abs(have - want) > 1e-9):
            errs.append(f"{label}: {key} {have!r} inconsistent with the intervals ({want!r})")
    return errs


def check_death(path: str, argv, gamma: float, eta0: float,
                kappa_err: float | None = None, alpha: float | None = None) -> list[str]:
    """A ``death-times`` report against intervals from the threshold kappa.

    ``kappa_err`` bounds |kappa_model - kappa_closed| for a tabulated
    kappa; each boundary then moves by at most kappa_err / |kappa'|.
    """
    opt = options(argv)
    report = read_json(path)
    n = int(opt["n"])
    alpha = float(opt["alpha"]) if "alpha" in opt else float(report["params"]["alpha"])
    channel, definition = opt["channel"], opt.get("definition", "xi")
    form = opt.get("form", "reference")

    def f(k):
        return xi2(n, alpha, k, channel, definition, form)

    errs = [] if "alpha" in opt else alpha_is_optimal(n, alpha)
    horizon = float(opt["t-max"])
    if report["horizon"] != horizon:
        errs.append(f"{path}: horizon {report['horizon']!r} != {horizon!r}")
    roots = threshold_kappas(f)
    truth = true_intervals(
        f, lambda t: abs(float(kappa_lorentzian(gamma, eta0, t))),
        lorentzian_pieces(gamma, eta0, horizon), roots)

    def tol_at(t):
        if t in (0.0, horizon) or kappa_err is None:
            return BOUNDARY_TOL
        return BOUNDARY_TOL + 2.0 * kappa_err / max(lorentzian_slope(gamma, eta0, t), 1e-300)

    errs += check_intervals(path, report, truth, tol_at)

    if "compare-markovian" in opt:
        rate = float(opt["compare-markovian"])
        comp = report["markovian_comparison"]
        mk_truth = true_intervals(f, lambda t: math.exp(-rate * t), [0.0, horizon], roots)
        errs += check_intervals(f"{path} markovian", dict(comp, horizon=horizon),
                                mk_truth, lambda t: BOUNDARY_TOL)
        # one threshold: squeezed exactly while exp(-rate t) > kappa_c
        if len(roots) == 1 and f(np.array([1.0]))[0] < 1.0:
            death = -math.log(roots[0]) / rate
            want = [[0.0, min(death, horizon)]]
            got = comp["intervals"]
            if len(got) != 1 or got[0][0] != 0.0 or abs(got[0][1] - want[0][1]) > BOUNDARY_TOL:
                errs.append(f"{path}: Markovian death {got} != -ln(kappa_c)/rate = {death!r}")
    return errs


# ---------------------------------------------------------------------------
# solver and verify


def check_solver(path: str, spec: dict) -> tuple[list[str], float]:
    """Solver CSV against the closed form; returns (errors, sup error)."""
    params, columns, rows = read_table(path)
    n_nodes = int(math.floor(spec["t_end"] / spec["step"] + 1e-9)) + 1
    if columns != ["t", "kappa"] or len(rows) != n_nodes:
        return [f"{path}: expected {n_nodes} rows of t,kappa"], math.inf
    errs = _compare(f"{path} t", rows[:, 0], spec["step"] * np.arange(n_nodes), 0.0, NODE_TOL)
    sup = float(np.max(np.abs(rows[:, 1] - kappa_lorentzian(spec["gamma"], spec["eta0"], rows[:, 0]))))
    if rows[0, 1] != 1.0:
        errs.append(f"{path}: kappa(0) = {rows[0, 1]!r}, not 1")
    if not sup <= SOLVER_TOL:
        errs.append(f"{path}: sup |kappa - closed form| = {sup:.3e} > {SOLVER_TOL:g}")
    return errs, sup


def tabulated_error(solver_sup: float, spec: dict) -> float:
    """Bound on |kappa_interp - kappa_closed|: solver error plus the
    linear-interpolation error h^2/8 max|kappa''|."""
    g, e = spec["gamma"], spec["eta0"]
    d2 = 2.0 * e * g - g * g
    curvature = math.sqrt(1.0 + g * g / d2) * (g * g + d2) / 4.0
    return solver_sup + spec["step"] ** 2 / 8.0 * curvature


def check_verify(path: str, argv) -> list[str]:
    opt = options(argv)
    report = read_json(path)
    max_n, tolerance = int(opt["max-n"]), float(opt["tolerance"])
    errs: list[str] = []
    cases = report["cases"]
    want_cases = VERIFY_CASES_PER_N * sum(1 for n in VERIFY_NS if n <= max_n)
    if len(cases) != want_cases:
        errs.append(f"{path}: {len(cases)} cases, expected {want_cases}")
    if report["all_passed"] is not True or report["tolerance"] != tolerance:
        errs.append(f"{path}: all_passed {report['all_passed']!r}, tolerance {report['tolerance']!r}")
    deltas = [abs(c["oracle"] - c["exact"]) for c in cases]
    worst = max(deltas, default=0.0)
    if not worst <= min(tolerance, ORACLE_TOL) or report["worst_exact_delta"] != worst:
        errs.append(f"{path}: worst |oracle - exact| {report['worst_exact_delta']!r} "
                    f"(recomputed {worst!r})")
    got = np.array([c["exact"] for c in cases])
    want = np.array([
        xi2(c["n"], c["alpha"], c["kappa"], c["channel"], c["definition"], "exact")[0]
        for c in cases
    ])
    errs += _compare(f"{path} exact", got, want, EXACT_REL_TOL, 1e-12)
    fits = report["generator_fits"]
    if len(fits) != 3 or {g["channel"] for g in fits} != {"dephasing", "depolarizing", "damping"}:
        errs.append(f"{path}: generator fits for {[g['channel'] for g in fits]}")
    for g in fits:
        if not abs(g["exponent_ratio"] - EXPONENT_RATIO) <= EXPONENT_TOL or g["passed"] is not True:
            errs.append(f"{path}: {g['channel']} exponent ratio {g['exponent_ratio']!r}")
    return errs
