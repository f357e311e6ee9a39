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

Two more seeded fuzzes run through ``main`` the same way. Kappa files
drawn from a list of malformations (a BOM, CR and CRLF line ends, bad
cells, numerals and grids, bytes that are not UTF-8, ...) must each exit
2 with exactly one stderr line, or be read as the README documents, by
``evolve`` and ``death-times`` alike. ``verify`` argument vectors drawn
from edge values of ``--max-n`` and ``--tolerance`` must give the exit
that the two ranges imply: 2 for a value outside them, 1 where the
tolerance is below every closed form's distance from the oracle, else 0.
"""

import contextlib
import io
import json
import math
import random
import warnings

import pytest

from squeeze_dyn import ChannelKind, Definition, Form, TimeGrid, channel_xi2
from squeeze_dyn._format import parse_header
from squeeze_dyn.cli import _load_tabulated, main
from squeeze_dyn.oracle import N_CAP

SEED = 20121
RUNS = 2000
SCAN_RUNS = 1000
KAPPA_FILE_RUNS = 150
VERIFY_RUNS = 150

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
    """Exit code, stdout, stderr, and the exceptions and warnings that
    escaped."""
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
    return code, out.getvalue(), err.getvalue(), escaped


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
    code, text, _, escaped = run_main(argv)
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


# --- kappa files ---


def _kappa_file(step, cells):
    """A kappa file as the solver writes it: header ``step``, then the rows."""
    head = f"# kappa schema=squeeze-dyn/1\n# step = {step!r}\nt,kappa\n"
    return (head + "".join(",".join(row) + "\n" for row in cells)).encode()


def _set_cell(cells, row, column, text):
    cells = [list(r) for r in cells]
    cells[row][column] = text
    return cells


def _malformed(rng, kind, step, cells):
    """The bytes of one ``kind`` of kappa file, and whether the README
    reads them (as the rows ``cells``) rather than rejecting them."""
    plain = _kappa_file(step, cells)
    n = len(cells)
    if kind == "bom":
        # the BOM makes the schema line the names line, and 't,kappa' a row
        return b"\xef\xbb\xbf" + plain, False
    if kind == "cr":
        return plain.replace(b"\n", b"\r"), True
    if kind == "crlf":
        return plain.replace(b"\n", b"\r\n"), True
    if kind == "empty-body":
        return _kappa_file(step, []), False
    if kind == "one-column":
        return _kappa_file(step, [row[:1] for row in cells]), False
    if kind == "three-columns":
        return _kappa_file(step, [[*row, "0.5"] for row in cells]), True
    if kind == "nan":
        cells = _set_cell(cells, rng.randrange(n), rng.randrange(2), "nan")
    elif kind == "inf-t":
        cells = _set_cell(cells, rng.randrange(n), 0, rng.choice(("inf", "-inf")))
    elif kind == "kappa-above-one":
        above = rng.choice(("1.5", "-3", "1.0000000000000002"))
        cells = _set_cell(cells, rng.randrange(1, n), 1, above)
    elif kind == "decreasing-t":
        cells = cells[::-1]
    elif kind == "non-uniform-t":
        j = rng.randrange(1, n - 1)
        cells = _set_cell(cells, j, 0, repr((j + 0.3) * step))
    elif kind == "repeated-t":
        j = rng.randrange(n)
        cells = cells[:j + 1] + cells[j:]
    elif kind == "empty-cell":
        cells = _set_cell(cells, rng.randrange(n), rng.randrange(2), "")
    elif kind == "step-disagrees":
        return _kappa_file(step * rng.choice((0.5, 0.7, 2.0)), cells), False
    elif kind == "not-utf8":
        return plain.replace(b"t,kappa\n", b"t,kappa\n# \xff\n"), False
    else:  # each numeral reads, by float() or float.fromhex, as the cell it replaces
        j = rng.randrange(2)
        numeral = {"hex": ("0x0", "0x1p0"), "underscore": ("0_0", "1_0e-1")}[kind][j]
        cells = _set_cell(cells, 0, j, numeral)
    return _kappa_file(step, cells), False


KAPPA_FILE_KINDS = (
    "bom", "cr", "crlf", "empty-body", "one-column", "three-columns", "nan", "inf-t",
    "kappa-above-one", "decreasing-t", "non-uniform-t", "repeated-t", "empty-cell",
    "step-disagrees", "not-utf8", "hex", "underscore",
)
# the two files without a column-names line whose first row was skipped as
# the names: one was read with a row lost, the other as starting at t = 0.5
NO_NAMES_LINE = {
    "duplicated-t0": b"0,1\n0,1\n0.5,0.9\n1.0,0.8\n",
    "starts-at-zero": b"0,1\n0.5,0.9\n1.0,0.8\n",
}


def _kappa_file_faults(path, t_max, step, want):
    """What is wrong with how ``evolve`` and ``death-times`` take the file:
    ``want`` is the rows' kappa column if it must be read, else None."""
    faults = []
    for command in ("evolve", "death-times"):
        argv = [
            command, "--n", "10", "--channel", "dephasing", "--kappa", "tabulated",
            "--kappa-file", str(path), "--t-max", repr(t_max), "--reproducible",
        ]
        if command == "evolve":
            argv += ["--dt", repr(step)]
        code, _, err, escaped = run_main(argv)
        if want is None:
            ok = code == 2 and err.count("\n") == 1 and err.endswith("\n")
        else:
            ok = code == 0 and not err
        if escaped or not ok:
            faults += escaped or [f"{command}: exit {code}, stderr {err!r}"]
    if want is not None and not faults:
        model, _ = _load_tabulated(str(path))
        if model.grid != TimeGrid(0.0, t_max, step) or model.values.tolist() != want:
            faults.append("read, but not as the rows")
    return faults


def test_seeded_kappa_file_fuzz(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "kappa.csv"
    found = []
    for name, body in NO_NAMES_LINE.items():
        path.write_bytes(b"# kappa schema=squeeze-dyn/1\n" + body)
        faults = _kappa_file_faults(path, 1.0, 0.5, None)
        if faults:
            found.append((name, body, faults))
    for _ in range(KAPPA_FILE_RUNS):
        step = rng.choice((0.1, 0.25, 0.5))
        ts = [k * step for k in range(rng.randint(3, 8))]
        ks = [1.0] + [rng.uniform(-1.0, 1.0) for _ in ts[1:]]
        kind = rng.choice(KAPPA_FILE_KINDS)
        data, read = _malformed(rng, kind, step, [[repr(t), repr(k)] for t, k in zip(ts, ks)])
        path.write_bytes(data)
        faults = _kappa_file_faults(path, ts[-1], step, ks if read else None)
        if faults:
            found.append((kind, data, faults))
    assert found == []


# --- verify arguments ---

MAX_N_DRAWS = ("1", "2", "8", "16", "17", "-1", "2.5")
TOLERANCE_DRAWS = ("0", "-1", "nan", "inf", "1e-300", "1e300")
# a vector that runs the case matrix keeps --max-n at or below this: the
# matrix at N = 16 takes over a second
RUN_MAX_N = 6


def verify_exit(max_n, tolerance):
    """The exit a ``verify`` vector must give."""
    if not (max_n.lstrip("-").isdigit() and 2 <= int(max_n) <= N_CAP):
        return 2
    tol = float(tolerance)
    if not (math.isfinite(tol) and tol > 0.0):
        return 2
    # the closed forms and the oracle differ by 3e-13 or more at every max_n
    return 1 if tol < 1e-13 else 0


def draw_verify_argv(rng):
    max_n, tolerance = rng.choice(MAX_N_DRAWS), rng.choice(TOLERANCE_DRAWS)
    if verify_exit(max_n, tolerance) != 2 and int(max_n) > RUN_MAX_N:
        max_n = str(rng.randint(2, RUN_MAX_N))
    return ["verify", "--max-n", max_n, "--tolerance", tolerance]


def test_seeded_verify_argument_fuzz():
    rng = random.Random(SEED)
    found = []
    for _ in range(VERIFY_RUNS):
        argv = draw_verify_argv(rng)
        code, _, _, escaped = run_main(argv)
        want = verify_exit(argv[2], argv[4])
        if escaped or code != want:
            found.append((" ".join(argv), f"exit {code}, want {want}", escaped))
    assert found == []
