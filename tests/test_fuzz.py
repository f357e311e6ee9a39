"""Seeded fuzz of the command line: ``evolve``, ``death-times`` and
``alpha-scan`` on argument vectors drawn from edge values (0, -1, 1e-300,
nan, +-inf, 1e308) and typical ones, run in process through ``cli.main``.

Every vector must exit 0 or 2 with no exception and no warning escaping
``main``. An exit-0 curve must parse, hold no nan and keep every kappa in
[-1, 1]; where its grid starts at t = 0, kappa there must be exactly 1 and
each squeezing column must equal ``channel_xi2`` at kappa = 1 for the
header's N and alpha. An exit-0 death report's intervals must be sorted,
disjoint and inside [0, horizon], with the first death no later than the
final one. An exit-0 alpha scan must parse, hold no nan, list N strictly
increasing inside [n-min, n-max], every alpha_star in (0, pi/2) and every
xi_min in (0, 1]. Typical grids stay at a few thousand nodes, and scans
at a few dozen points.
"""

import contextlib
import io
import json
import math
import random
import warnings

import pytest

from squeeze_dyn import ChannelKind, Definition, Form, channel_xi2
from squeeze_dyn._format import parse_header
from squeeze_dyn.cli import main

SEED = 20121
RUNS = 2000
SCAN_RUNS = 1000

FLOAT_EDGES = ("0", "-1", "1e-300", "nan", "inf", "-inf", "1e308")
N_VALUES = ("-1", "0", "1", "2", "3", "10", "100", "1000", "100000", "100001")
TYPICAL = {
    "--alpha": ("0.05", "0.2", "0.7", "1.5707963267948966", "2", "3.141592653589793"),
    "--rate": ("0.005", "0.1", "3"),
    "--gamma": ("0.01", "1", "10"),
    "--eta0": ("0.001", "0.005", "10"),
    "--t-max": ("1", "40", "400"),
    "--compare-markovian": ("0.005", "0.1"),
    "--t-start": ("0", "0.5", "20"),
    "--dt": ("0.05", "0.5", "3"),
    "--delta": ("0.7", "-3"),
    "--coarse-step": ("0.05", "1", "10"),
}
SCAN_POINTS = ("-1", "0", "1", "2", "3", "25", "10000001")
MODEL_FLAGS = {"markovian": ("--rate",), "lorentzian": ("--gamma", "--eta0"), "tabulated": ()}
CURVE_ONLY = ("--t-start", "--dt", "--delta")


def _float(rng, flag):
    return rng.choice(FLOAT_EDGES) if rng.random() < 0.3 else rng.choice(TYPICAL[flag])


def draw_argv(rng, kappa_file):
    command = rng.choice(("evolve", "death-times"))
    kappa = rng.choice(tuple(MODEL_FLAGS))
    argv = [
        command, "--n", rng.choice(N_VALUES),
        "--channel", rng.choice(("dephasing", "depolarizing", "damping")),
        "--definition", rng.choice(("xi", "xi-prime")),
        "--form", rng.choice(("reference", "exact")),
        "--kappa", kappa, "--t-max", _float(rng, "--t-max"), "--reproducible",
    ]
    if kappa == "tabulated":
        argv += ["--kappa-file", kappa_file]
    optional = ["--alpha", "--compare-markovian", *MODEL_FLAGS[kappa]]
    optional += list(CURVE_ONLY) if command == "evolve" else ["--coarse-step"]
    for flag in optional:
        if rng.random() < 0.6:
            argv += [flag, _float(rng, flag)]
    if command == "evolve":
        argv += ["--format", rng.choice(("csv", "json"))]
    return argv


def draw_scan_argv(rng):
    argv = [
        "alpha-scan", "--n-min", rng.choice(N_VALUES), "--n-max", rng.choice(N_VALUES),
        "--format", rng.choice(("csv", "json")), "--reproducible",
    ]
    if rng.random() < 0.8:
        argv += ["--points", rng.choice(SCAN_POINTS)]
    return argv


def run_main(argv):
    """Exit code, stdout, and the exceptions and warnings that escaped."""
    out, err = io.StringIO(), io.StringIO()
    escaped = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported, not raised: the test lists all
                code = None
                escaped.append(f"{type(exc).__name__}: {exc}")
    escaped += [f"{w.category.__name__}: {w.message}" for w in caught]
    return code, out.getvalue(), escaped


def _flag(argv, flag):
    return argv[argv.index(flag) + 1]


def _table(text, fmt):
    """The params, columns and float rows of a CSV or JSON table."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["params"], doc["columns"], [[float(c) for c in row] for row in doc["rows"]]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return parse_header(text), lines[0].split(","), rows


def _t0_faults(argv, params, columns, rows):
    """kappa(0) = 1, and the pure-state value in each squeezing column."""
    if rows[0][columns.index("t")] != 0.0:
        return []
    row = dict(zip(columns, rows[0]))
    faults = [] if row["kappa"] == 1.0 else [f"kappa(0) = {row['kappa']!r}"]
    pure = channel_xi2(
        int(params["n"]), float(params["alpha"]), 1.0, ChannelKind(_flag(argv, "--channel")),
        Definition(_flag(argv, "--definition")), Form(_flag(argv, "--form")),
    )
    for column in ("xi2", "xi2_markovian"):
        if column in row and row[column] != pure:
            faults.append(f"{column}(0) = {row[column]!r}, not the pure-state {pure!r}")
    return faults


def _scan_faults(argv, columns, rows):
    n_min, n_max = int(_flag(argv, "--n-min")), int(_flag(argv, "--n-max"))
    ns, alphas, xi_mins = zip(*rows)
    faults = []
    if not (n_min <= ns[0] and ns[-1] <= n_max and all(a < b for a, b in zip(ns, ns[1:]))):
        faults.append("N not strictly increasing inside [n-min, n-max]")
    if not all(0.0 < a < math.pi / 2 for a in alphas):
        faults.append("alpha_star outside (0, pi/2)")
    if not all(0.0 < x <= 1.0 for x in xi_mins):
        faults.append("xi_min outside (0, 1]")
    return faults


def output_faults(argv, text):
    """What is wrong with an exit-0 output, or an empty list."""
    if argv[0] in ("evolve", "alpha-scan"):
        params, columns, rows = _table(text, _flag(argv, "--format"))
        if not rows or any(len(row) != len(columns) for row in rows):
            return ["ragged or empty table"]
        if any(math.isnan(c) for row in rows for c in row):
            return ["nan cell"]
        if argv[0] == "alpha-scan":
            return _scan_faults(argv, columns, rows)
        kappa = columns.index("kappa")
        faults = _t0_faults(argv, params, columns, rows)
        if not all(-1.0 <= row[kappa] <= 1.0 for row in rows):
            faults.append("kappa outside [-1, 1]")
        return faults
    faults = []
    report = json.loads(text)
    if report["horizon"] != float(_flag(argv, "--t-max")):
        faults.append("horizon is not --t-max")
    for rep in (report, report.get("markovian_comparison")):
        if rep is None:
            continue
        intervals = rep["intervals"]
        if not all(0.0 <= a <= b <= rep["horizon"] for a, b in intervals):
            faults.append("interval reversed or outside [0, horizon]")
        if not all(end < start for (_, end), (start, _) in zip(intervals, intervals[1:])):
            faults.append("intervals not sorted and disjoint")
        first, final = rep["first_death"], rep["final_death"]
        if first is not None and final is not None and not first <= final:
            faults.append("first death after final death")
    return faults


@pytest.fixture(scope="module")
def kappa_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "kappa.csv"
    rows = [f"{0.5 * k!r},{math.exp(-0.005 * k) * math.cos(0.2 * k)!r}" for k in range(801)]
    path.write_text("# step = 0.5\nt,kappa\n" + "\n".join(rows) + "\n")
    return str(path)


def check(argv):
    code, text, escaped = run_main(argv)
    if escaped or code not in (0, 2):
        return [f"exit {code}", *escaped]
    return output_faults(argv, text) if code == 0 else []


def test_seeded_cli_fuzz(kappa_file):
    rng = random.Random(SEED)
    found = []
    for _ in range(RUNS):
        argv = draw_argv(rng, kappa_file)
        faults = check(argv)
        if faults:
            found.append((" ".join(argv), faults))
    assert found == []


def test_seeded_alpha_scan_fuzz():
    rng = random.Random(SEED)
    found = []
    for _ in range(SCAN_RUNS):
        argv = draw_scan_argv(rng)
        faults = check(argv)
        if faults:
            found.append((" ".join(argv), faults))
    assert found == []
