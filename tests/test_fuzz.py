"""Seeded fuzz of the command line: ``evolve`` and ``death-times`` on
argument vectors drawn from edge values (0, -1, 1e-300, nan, +-inf,
1e308) and typical ones, run in process through ``cli.main``.

Every vector must exit 0 or 2 with no exception and no warning escaping
``main``. An exit-0 curve must parse, hold no nan and keep every kappa in
[-1, 1]; an exit-0 death report's intervals must be sorted, disjoint and
inside [0, horizon], with the first death no later than the final one.
Typical grids stay at a few thousand nodes.
"""

import contextlib
import io
import json
import math
import random
import warnings

import pytest

from squeeze_dyn.cli import main

SEED = 20121
RUNS = 2000

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


def _curve_rows(text, fmt):
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], [[float(c) for c in row] for row in doc["rows"]]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


def output_faults(argv, text):
    """What is wrong with an exit-0 output, or an empty list."""
    faults = []
    if argv[0] == "evolve":
        columns, rows = _curve_rows(text, argv[argv.index("--format") + 1])
        kappa = columns.index("kappa")
        if not rows or any(len(row) != len(columns) for row in rows):
            faults.append("ragged or empty table")
        if any(math.isnan(c) for row in rows for c in row):
            faults.append("nan cell")
        if not all(-1.0 <= row[kappa] <= 1.0 for row in rows):
            faults.append("kappa outside [-1, 1]")
        return faults
    report = json.loads(text)
    if report["horizon"] != float(argv[argv.index("--t-max") + 1]):
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
