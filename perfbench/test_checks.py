"""Each output check of the benchmark accepts the program's real output
and rejects a deliberately perturbed copy of it.

    python -m pytest -q perfbench/test_checks.py

The outputs come from small runs of the CLI and the solver, written to a
temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import squeeze_dyn  # noqa: E402
import squeeze_dyn.cli  # noqa: E402

GAMMA, ETA0, RATE = 0.0105, 9.5, 0.0048


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert squeeze_dyn.cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("outputs")


def _curve_argv(out, form):
    return ("evolve", "--n", "10", "--channel", "dephasing", "--definition", "xi",
            "--form", form, "--kappa", "lorentzian", "--gamma", str(GAMMA),
            "--eta0", str(ETA0), "--t-max", "30.0", "--dt", "0.1",
            "--compare-markovian", str(RATE), "--reproducible", "-o", f"{out}/{form}.csv")


def _rewrite(src: Path, dst: Path, edit) -> str:
    dst.write_text(edit(src.read_text()))
    return str(dst)


def _edit_row(text: str, row: int, col: int, new: str) -> str:
    """Replace one field of a CSV data row (row 0 is the first data row)."""
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    fields = lines[first + row].rstrip("\n").split(",")
    fields[col] = new
    lines[first + row] = ",".join(fields) + "\n"
    return "".join(lines)


def _edit_json(src: Path, dst: Path, edit) -> str:
    data = json.loads(src.read_text())
    edit(data)
    dst.write_text(json.dumps(data))
    return str(dst)


def _digit(x: float, position: int = 6) -> str:
    """x with its significant digit at ``position`` changed."""
    s = "%.17e" % x
    i = s.index(".") + position - 1
    return s[:i] + str((int(s[i]) + 1) % 10) + s[i + 1:]


def test_curve_check(out):
    argv = _curve_argv(out, "reference")
    _cli(argv)
    path = Path(argv[-1])
    assert checks.check_curve(str(path), argv) == []
    _, _, rows = checks.read_table(str(path))
    for col, name in ((2, "xi2"), (3, "xi2_markovian"), (1, "kappa")):
        bad = _rewrite(path, out / f"bad-{name}.csv",
                       lambda t: _edit_row(t, 57, col, _digit(rows[57, col])))
        assert checks.check_curve(bad, argv), name
    dropped = _rewrite(path, out / "bad-dropped.csv", lambda t: t.rstrip("\n").rsplit("\n", 1)[0] + "\n")
    assert checks.check_curve(dropped, argv)


def test_curve_oracle_check(out):
    argv = _curve_argv(out, "exact")
    _cli(argv)
    path = Path(argv[-1])
    oracle = checks.Oracle(squeeze_dyn)
    assert checks.check_curve(str(path), argv) == []
    assert checks.check_curve_oracle(str(path), argv, oracle) == []
    _, _, rows = checks.read_table(str(path))
    i = int(rows[:, 1].argmin())
    bad = _rewrite(path, out / "bad-exact.csv", lambda t: _edit_row(t, i, 2, repr(float(rows[i, 2]) + 1e-7)))
    assert checks.check_curve_oracle(bad, argv, oracle)


def test_alpha_scan_check(out):
    argv = ("alpha-scan", "--n-min", "100", "--n-max", "3000", "--points", "6",
            "--format", "json", "--reproducible", "-o", f"{out}/scan.json")
    _cli(argv)
    path = Path(argv[-1])
    assert checks.check_alpha_scan(str(path), argv) == []
    assert checks.alpha_scan_faults(str(path)) == []

    def xi(d):
        d["rows"][2][2] = float(_digit(d["rows"][2][2]))

    def slope(d):
        d["params"]["slope_log_xi_vs_log_n"] += 1e-6

    def alpha(d):
        d["rows"][1][1] *= 1.01

    assert checks.check_alpha_scan(_edit_json(path, out / "bad-xi.json", xi), argv)
    assert checks.check_alpha_scan(_edit_json(path, out / "bad-slope.json", slope), argv)
    assert checks.alpha_scan_faults(_edit_json(path, out / "bad-alpha.json", alpha))


def test_death_check(out):
    argv = ("death-times", "--n", "10", "--alpha", "0.21", "--channel", "depolarizing",
            "--definition", "xi", "--kappa", "lorentzian", "--gamma", str(GAMMA),
            "--eta0", str(ETA0), "--t-max", "80.0", "--compare-markovian", str(RATE),
            "--reproducible", "-o", f"{out}/death.json")
    _cli(argv)
    path = Path(argv[-1])
    assert checks.check_death(str(path), argv, GAMMA, ETA0) == []
    assert len(checks.read_json(str(path))["intervals"]) >= 3

    def shift(d):
        d["intervals"][1][0] += 1e-4

    def drop(d):
        del d["intervals"][1]

    def first(d):
        d["first_death"] += 1e-3

    def final(d):
        d["final_death"] = None

    def markovian(d):
        d["markovian_comparison"]["intervals"][0][1] -= 1e-3

    for edit in (shift, drop, first, final, markovian):
        bad = _edit_json(path, out / f"bad-{edit.__name__}.json", edit)
        assert checks.check_death(bad, argv, GAMMA, ETA0), edit.__name__


def test_solver_and_tabulated_checks(out):
    spec = {"gamma": GAMMA, "eta0": ETA0, "t_end": 30.0, "step": 0.005}
    kernel = squeeze_dyn.MemoryKernel.exponential(squeeze_dyn.ReservoirConfig(GAMMA, ETA0))
    series = squeeze_dyn.solve_volterra(kernel, squeeze_dyn.TimeGrid(0.0, 30.0, 0.005))
    path = out / "kappa.csv"
    with open(path, "w", encoding="utf-8") as fp:
        series.to_csv(fp)
    errs, sup = checks.check_solver(str(path), spec)
    assert errs == [] and sup < checks.SOLVER_TOL
    bad = _rewrite(path, out / "bad-kappa.csv",
                   lambda t: _edit_row(t, 3000, 1, repr(float(series.values[3000]) + 2e-5)))
    assert checks.check_solver(bad, spec)[0]

    argv = ("death-times", "--n", "10", "--channel", "dephasing", "--definition", "xi",
            "--kappa", "tabulated", "--kappa-file", str(path), "--t-max", "30.0",
            "--reproducible", "-o", f"{out}/death-tab.json")
    _cli(argv)
    err = checks.tabulated_error(sup, spec)
    assert checks.check_death(argv[-1], argv, GAMMA, ETA0, kappa_err=err) == []

    def shift(d):
        d["intervals"][0][1] += 1e-3

    bad = _edit_json(Path(argv[-1]), out / "bad-death-tab.json", shift)
    assert checks.check_death(bad, argv, GAMMA, ETA0, kappa_err=err)


def test_verify_check(out):
    argv = ("verify", "--max-n", "3", "--tolerance", "5e-9", "-o", f"{out}/verify.json")
    _cli(argv)
    path = Path(argv[-1])
    assert checks.check_verify(str(path), argv) == []

    def drop(d):
        del d["cases"][-1]

    def exact(d):
        d["cases"][7]["exact"] = float(_digit(d["cases"][7]["exact"]))

    def ratio(d):
        d["generator_fits"][1]["exponent_ratio"] += 1e-5

    def passed(d):
        d["all_passed"] = False

    for edit in (drop, exact, ratio, passed):
        bad = _edit_json(path, out / f"bad-verify-{edit.__name__}.json", edit)
        assert checks.check_verify(bad, argv), edit.__name__


def test_repeatable_check():
    assert checks.check_repeatable([{"a": "1", "b": "2"}, {"a": "1", "b": "2"}]) == []
    assert checks.check_repeatable([{"a": "1", "b": "2"}, {"a": "1", "b": "3"}])
