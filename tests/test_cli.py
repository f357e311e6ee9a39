import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import squeeze_dyn
from squeeze_dyn import ChannelKind, channel_xi2, cli
from squeeze_dyn._format import parse_header
from squeeze_dyn.analytic import xi2_oat_curve
from squeeze_dyn.cli import main
from squeeze_dyn.kappa import MemoryKernel, Tabulated, solve_volterra
from squeeze_dyn.model import ReservoirConfig, TimeGrid


def run(args):
    return main(args)


def test_evolve_writes_reference_curve(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(
        [
            "evolve", "--n", "10", "--channel", "dephasing", "--definition", "xi",
            "--kappa", "lorentzian", "--gamma", "0.01", "--eta0", "10",
            "--t-max", "40", "--dt", "0.5", "--compare-markovian", "0.005",
            "--reproducible", "--output", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    header = parse_header(text)
    assert header["schema"] == "squeeze-dyn/1"
    assert header["model"] == "lorentzian"
    assert header["alpha_auto"] == "true"
    assert float(header["alpha"]) == pytest.approx(0.20048, abs=2e-4)
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "t,kappa,xi2,xi2_markovian"
    assert len(lines) == 1 + 81


def test_evolve_round_trips_from_header(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "evolve", "--n", "6", "--alpha", "0.25", "--delta", "0.7", "--channel", "damping",
        "--kappa", "markovian", "--rate", "0.004", "--t-max", "20", "--dt", "1",
        "--reproducible",
    ]
    assert run(args + ["--output", str(out1)]) == 0
    header = parse_header(out1.read_text())
    rebuilt = [
        "evolve",
        "--n", header["n"],
        "--alpha", header["alpha"],
        "--delta", header["delta"],
        "--channel", header["channel"],
        "--definition", header["definition"],
        "--form", header["form"],
        "--kappa", header["model"],
        "--rate", header["rate"],
        "--t-max", header["t_end"],
        "--dt", header["step"],
        "--reproducible",
        "--output", str(out2),
    ]
    assert run(rebuilt) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_evolve_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = [
        "evolve", "--n", "4", "--alpha", "0.3", "--channel", "depolarizing",
        "--t-max", "10", "--dt", "0.5", "--reproducible",
    ]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_evolve_json_format(tmp_path):
    out = tmp_path / "curve.json"
    code = run(
        [
            "evolve", "--n", "4", "--alpha", "0.3", "--channel", "dephasing",
            "--t-max", "5", "--dt", "1", "--format", "json", "--reproducible",
            "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "squeeze-dyn/1"
    assert payload["columns"] == ["t", "kappa", "xi2"]
    assert len(payload["rows"]) == 6


def test_evolve_single_particle_is_usage_error(capsys):
    code = run(["evolve", "--n", "1", "--channel", "dephasing", "--t-max", "10"])
    assert code == 2


def test_evolve_exact_form_flag(tmp_path):
    out = tmp_path / "exact.csv"
    code = run(
        [
            "evolve", "--n", "4", "--alpha", "0.3", "--channel", "damping",
            "--form", "exact", "--t-max", "4", "--dt", "1",
            "--reproducible", "--output", str(out),
        ]
    )
    assert code == 0
    assert parse_header(out.read_text())["form"] == "exact"


def test_evolve_tabulated_kappa(tmp_path):
    series = solve_volterra(
        MemoryKernel.exponential(ReservoirConfig(0.01, 10.0)), TimeGrid(0.0, 50.0, 0.05)
    )
    kfile = tmp_path / "kappa.csv"
    with open(kfile, "w") as fp:
        series.to_csv(fp)
    out = tmp_path / "curve.csv"
    code = run(
        [
            "evolve", "--n", "10", "--channel", "dephasing",
            "--kappa", "tabulated", "--kappa-file", str(kfile),
            "--t-max", "50", "--dt", "0.5", "--reproducible", "--output", str(out),
        ]
    )
    assert code == 0
    assert parse_header(out.read_text())["model"] == "tabulated"


def test_death_times_markovian_dephasing(tmp_path):
    out = tmp_path / "death.json"
    code = run(
        [
            "death-times", "--n", "10", "--channel", "dephasing",
            "--definition", "xi", "--kappa", "markovian", "--rate", "0.005",
            "--t-max", "400", "--reproducible", "--output", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["first_death"] == pytest.approx(259.99, rel=0.05)
    assert report["final_death"] == pytest.approx(report["first_death"], abs=1e-6)


def test_death_times_depolarizing(tmp_path):
    out = tmp_path / "death.json"
    code = run(
        [
            "death-times", "--n", "10", "--channel", "depolarizing",
            "--definition", "xi", "--kappa", "markovian", "--rate", "0.005",
            "--t-max", "200", "--reproducible", "--output", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["first_death"] == pytest.approx(68.76, rel=0.05)


def test_alpha_scan_rows_match_brute_force(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(
        ["alpha-scan", "--n-min", "3", "--n-max", "4", "--points", "2",
         "--reproducible", "--output", str(out)]
    )
    assert code == 0
    text = out.read_text()
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 2
    for row in rows:
        n = int(float(row[0]))
        grid = np.linspace(1e-6, math.pi / 2 - 1e-6, 500000)
        brute = math.sqrt(float(np.min(xi2_oat_curve(n, grid))))
        assert float(row[2]) == pytest.approx(brute, abs=1e-6)


def test_alpha_scan_inverted_range_is_usage_error():
    assert run(["alpha-scan", "--n-min", "10", "--n-max", "5"]) == 2


def test_alpha_scan_json_contains_slope(tmp_path):
    out = tmp_path / "scan.json"
    code = run(
        ["alpha-scan", "--n-min", "10", "--n-max", "1000", "--points", "4",
         "--format", "json", "--reproducible", "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert "slope_log_xi_vs_log_n" in payload["params"]


def test_verify_small_matrix_passes(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", "--max-n", "3", "--tolerance", "1e-8", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    ratios = [g["exponent_ratio"] for g in payload["generator_fits"]]
    assert ratios == pytest.approx([0.5, 0.5, 0.5], abs=1e-6)


def test_verify_report_on_stdout_is_json(tmp_path, capsys):
    assert run(["verify", "--max-n", "3", "-o", "-"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["all_passed"] is True
    # the summary goes to stderr, and a file report writes the same bytes
    assert captured.err.splitlines()[-1] == "PASS"
    out = tmp_path / "verify.json"
    assert run(["verify", "--max-n", "3", "-o", str(out)]) == 0
    assert out.read_text() == captured.out
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_verify_summary_lines_read_the_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "--max-n", "4", "-o", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(out.read_text())
    cases = report["cases"]
    assert len(cases) == 3 * 3 * 3 * 4 * 2  # n, alpha, channel, kappa, definition
    worst_ref = max(c["delta_reference"] for c in cases)
    assert report["worst_exact_delta"] == max(c["delta_exact"] for c in cases)
    fits = report["generator_fits"]
    assert [g["channel"] for g in fits] == ["dephasing", "depolarizing", "damping"]
    assert lines == [
        f"cases: {len(cases)}, worst |oracle - exact| = "
        f"{report['worst_exact_delta']:.3e} (tolerance {report['tolerance']:g})",
        f"reference-form deviation from oracle up to {worst_ref:.3e} "
        "(informational; reference forms freeze the squeezing angle)",
        *(
            f"generator fit {g['channel']}: kappa(t) = exp(-{g['exponent_ratio']:.6f} "
            f"* rate * t), state match {g['max_state_delta']:.2e}"
            for g in fits
        ),
        "PASS",
    ]
    assert report["all_passed"] is True


def test_verify_empty_output_path_is_io_error(capsys):
    assert run(["verify", "--max-n", "2", "-o", ""]) == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["directory", "missing/verify.json"])
def test_verify_unwritable_output_prints_no_verdict(tmp_path, capsys, target):
    (tmp_path / "directory").mkdir()
    assert run(["verify", "--max-n", "2", "-o", str(tmp_path / target)]) == 3
    captured = capsys.readouterr()
    assert "i/o error" in captured.err
    assert "PASS" not in captured.out + captured.err


def test_verify_does_not_import_numpy_random(tmp_path):
    # numpy 1.x imports numpy.random with numpy itself; verify adds nothing
    out = tmp_path / "verify.json"
    script = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "from squeeze_dyn.cli import main\n"
        f"assert main(['verify', '--max-n', '3', '-o', {str(out)!r}]) == 0\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(squeeze_dyn.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    before, after = done.stdout.splitlines()[-1].split()
    assert after == before
    assert out.exists()


def test_verify_rejects_oversized_n():
    assert run(["verify", "--max-n", "17"]) == 2


@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf"])
def test_verify_rejects_bad_tolerance(tolerance, capsys):
    assert run(["verify", "--max-n", "2", "--tolerance", tolerance]) == 2
    assert "tolerance must be finite and positive" in capsys.readouterr().err


def assert_usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_has_no_threads_flag(capsys):
    assert_usage_error(["verify", "--max-n", "2", "--threads", "2"], capsys)


@pytest.mark.parametrize(
    "unread",
    [["--t-start", "150"], ["--dt", "7"], ["--format", "csv"], ["--delta", "7"]],
)
def test_death_times_rejects_curve_only_flags(unread, capsys):
    args = [
        "death-times", "--n", "10", "--channel", "dephasing", "--kappa", "lorentzian",
        "--t-max", "200",
    ]
    assert_usage_error(args + unread, capsys)


def test_missing_output_directory_is_io_error(tmp_path):
    code = run(
        ["evolve", "--n", "4", "--alpha", "0.3", "--channel", "dephasing",
         "--t-max", "5", "--dt", "1", "--output", str(tmp_path / "nope" / "x.csv")]
    )
    assert code == 3


def test_death_times_includes_markovian_comparison(tmp_path):
    out = tmp_path / "death.json"
    code = run(
        [
            "death-times", "--n", "10", "--channel", "dephasing",
            "--kappa", "lorentzian", "--gamma", "0.01", "--eta0", "10",
            "--t-max", "100", "--compare-markovian", "0.005",
            "--reproducible", "--output", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert len(report["intervals"]) >= 3
    comp = report["markovian_comparison"]
    assert comp["first_death"] is None  # no crossing before t = 100
    assert comp["params"]["rate"] == 0.005


def test_death_times_damping_survives_long_horizon(tmp_path):
    out = tmp_path / "death.json"
    code = run(
        [
            "death-times", "--n", "10", "--channel", "damping",
            "--definition", "xi", "--kappa", "markovian", "--rate", "0.005",
            "--t-max", "1000", "--reproducible", "--output", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["first_death"] is None
    assert report["final_death"] is None
    assert report["intervals"] == [[0.0, 1000.0]]


def test_evolve_damping_prime_stays_squeezed(tmp_path):
    out = tmp_path / "damping.csv"
    code = run(
        [
            "evolve", "--n", "10", "--channel", "damping", "--definition", "xi-prime",
            "--kappa", "markovian", "--rate", "0.005", "--t-max", "1000", "--dt", "1",
            "--reproducible", "--output", str(out),
        ]
    )
    assert code == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 1001
    assert all(float(r[2]) < 1.0 for r in rows)


@pytest.mark.parametrize(
    "bad",
    [
        ["--coarse-step", "0"],
        ["--coarse-step", "-0.05"],
        ["--t-max", "-5"],
        ["--coarse-step", "nan"],
        ["--t-max", "nan"],
    ],
)
def test_death_times_rejects_nonpositive_step_and_horizon(bad, capsys):
    args = [
        "death-times", "--n", "10", "--channel", "depolarizing", "--definition", "xi",
        "--kappa", "markovian", "--rate", "0.005", "--t-max", "200",
    ]
    assert run(args + bad) == 2
    assert "must be positive" in capsys.readouterr().err


def test_death_times_rejects_an_infinite_coarse_step(capsys):
    # one scan node at 0 * inf = nan used to report no squeezing at all,
    # although this curve is squeezed on all of [0, 200]
    args = [
        "death-times", "--n", "10", "--channel", "dephasing", "--kappa", "markovian",
        "--t-max", "200", "--coarse-step", "inf", "--reproducible",
    ]
    assert run(args) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf", "0", "-0.1"])
def test_evolve_rejects_an_unusable_markovian_comparison_rate(rate, tmp_path, capsys):
    out = tmp_path / "c.csv"
    args = [
        "evolve", "--n", "10", "--channel", "dephasing", "--t-max", "1", "--dt", "0.5",
        "--compare-markovian", rate, "--reproducible", "--output", str(out),
    ]
    assert run(args) == 2
    assert "rate must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["death-times", "--t-max", "200", "--coarse-step", "1e-12"],
        ["evolve", "--t-max", "200", "--dt", "1e-12"],
    ],
)
def test_grids_beyond_the_node_cap_are_usage_errors(args, capsys):
    common = ["--n", "10", "--channel", "dephasing", "--kappa", "lorentzian"]
    assert run(args[:1] + common + args[1:]) == 2
    assert "nodes" in capsys.readouterr().err


def test_tabulated_kappa_round_trips_through_csv(tmp_path):
    from squeeze_dyn.cli import _load_tabulated

    grid = TimeGrid(0.0, 2.0, 0.5)
    # a negative kappa row and one written as an exponent
    values = np.array([1.0, 0.25, -0.5, -1e-20, 0.0])
    kfile = tmp_path / "kappa.csv"
    with open(kfile, "w") as fp:
        Tabulated(grid, values).to_csv(fp)
    header = parse_header(kfile.read_text())
    assert header["kind"] == "kappa" and header["schema"] == "squeeze-dyn/1"
    assert (header["t_start"], header["t_end"], header["step"]) == ("0", "2", "0.5")
    model, digest = _load_tabulated(str(kfile))
    assert digest == hashlib.sha256(kfile.read_bytes()).hexdigest()
    assert model.grid == grid
    np.testing.assert_array_equal(model.values, values)


@pytest.mark.parametrize(
    "body, reason",
    [
        ("t,kappa\n", "need at least two"),  # no data rows
        ("t,kappa\n0,1\n", "need at least two"),  # one data row: no grid step
        ("t,kappa\n0,1\n0.5,abc\n1,0.5\n", "malformed kappa file"),  # non-numeric cell
        ("t,kappa\n0,1\n0.5\n1,0.5\n", "malformed kappa file"),  # missing cell
        # float() reads nan and inf; neither is a sample of kappa or a time
        ("t,kappa\n0,1\n0.5,nan\n1,0.5\n", "malformed kappa file: data row 2, column 2 reads nan"),
        ("t,kappa\n0,1\ninf,0.5\n1,0.5\n", "malformed kappa file: data row 2, column 1 reads inf"),
        # no column-names line: the first row was skipped as the names, so
        # the first file lost a row and the second read as starting at 0.5
        ("0,1\n0,1\n0.5,0.9\n1.0,0.8\n", "malformed kappa file: no column-names line"),
        ("0,1\n0.5,0.9\n1.0,0.8\n", "malformed kappa file: no column-names line"),
        # rows (0, 1), (0.9, 0.2), (1, 0.1) are not samples on the 0.5 grid
        ("# step = 0.5\nt,kappa\n0,1\n0.9,0.2\n1.0,0.1\n", "t column is not the grid"),
        ("t,kappa\n0,1\n0.5,0.5\n0.75,0.2\n1,0.1\n", "t column is not the grid"),
    ],
)
def test_malformed_kappa_file_is_a_usage_error(tmp_path, body, reason, capsys):
    kfile = tmp_path / "k.csv"
    kfile.write_text("# kappa schema=squeeze-dyn/1\n" + body)
    code = run(
        [
            "evolve", "--n", "10", "--channel", "dephasing",
            "--kappa", "tabulated", "--kappa-file", str(kfile),
            "--t-max", "1", "--dt", "0.5", "--reproducible",
        ]
    )
    assert code == 2
    assert reason in capsys.readouterr().err


def test_kappa_file_with_a_byte_order_mark_reads_as_without_one(tmp_path):
    from squeeze_dyn.cli import _load_tabulated

    grid = TimeGrid(0.0, 10.0, 0.05)
    series = solve_volterra(MemoryKernel.exponential(ReservoirConfig(0.01, 10.0)), grid)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    with open(plain, "w") as fp:
        series.to_csv(fp)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    (want, _), (model, digest) = _load_tabulated(str(plain)), _load_tabulated(str(marked))
    assert model.grid == want.grid == grid
    assert np.array_equal(model.values, want.values)
    # the digest is taken over the file's bytes, the mark included
    assert digest == hashlib.sha256(marked.read_bytes()).hexdigest()


def test_kappa_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    kfile = tmp_path / "k.csv"
    kfile.write_bytes(b"# kappa schema=squeeze-dyn/1\nt,kappa\n0,1\n0.5,0.5\xff\n")
    code = run(
        [
            "evolve", "--n", "10", "--channel", "dephasing",
            "--kappa", "tabulated", "--kappa-file", str(kfile),
            "--t-max", "0.5", "--dt", "0.5", "--reproducible",
        ]
    )
    assert code == 2
    assert "not UTF-8" in capsys.readouterr().err


_HEAD = b"# kappa schema=squeeze-dyn/1\n# step = 0.5\n"
_ROWS = [(b"0", b"1"), (b"0.5", b"0.30000000000000004"), (b"1", b"-2.5e-3")]


def _body(end=b"\n", between=b"", tail=b""):
    rows = [t + b"," + k + tail for t, k in _ROWS]
    return (b"t,kappa\n" + (b"\n" + between).join(rows) + b"\n").replace(b"\n", end)


@pytest.mark.parametrize(
    "data, reason",
    [
        (_HEAD.replace(b"\n", b"\r\n") + _body(end=b"\r\n"), None),
        (_HEAD.replace(b"\n", b"\r") + _body(end=b"\r"), None),
        (_HEAD + b"\n" + _body(between=b"\n# a comment line\n\n"), None),
        # '#' starts a comment anywhere on a line
        (_HEAD + _body(tail=b" # an inline comment"), None),
        (_HEAD + _body(tail=b",7,extra"), None),
        (_HEAD + _body(between=b" \t\n"), "malformed kappa file"),
        # float() reads '0.2_5' as 0.25; the reader takes plain numerals only
        (_HEAD + b"t,kappa\n0,1\n0.5,0.2_5\n1,0.1\n", "malformed kappa file"),
        (_HEAD, "need at least two"),
        (_HEAD + b"t,kappa\n", "need at least two"),
    ],
    ids=[
        "crlf", "cr", "blank-and-comment-lines", "inline-comment", "third-column",
        "whitespace-line", "underscore-numeral", "header-only", "names-only",
    ],
)
def test_kappa_file_body_is_read_cell_by_cell_or_rejected(tmp_path, data, reason, capsys):
    from squeeze_dyn.cli import _load_tabulated

    kfile = tmp_path / "k.csv"
    kfile.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(
            [
                "evolve", "--n", "10", "--channel", "dephasing",
                "--kappa", "tabulated", "--kappa-file", str(kfile),
                "--t-max", "1", "--dt", "0.5", "--reproducible",
                "--output", str(tmp_path / "out.csv"),
            ]
        )
    err = capsys.readouterr().err
    if reason is not None:
        assert code == 2
        assert reason in err
        return
    assert code == 0 and err == ""
    model, _ = _load_tabulated(str(kfile))
    assert model.grid == TimeGrid(0.0, 1.0, 0.5)
    assert model.values.tolist() == [float(k) for _, k in _ROWS]


def test_reading_a_solver_kappa_file_makes_no_object_per_row(tmp_path):
    from squeeze_dyn.cli import _load_tabulated

    grid = TimeGrid(0.0, 100.0, 0.005)
    series = solve_volterra(MemoryKernel.exponential(ReservoirConfig(0.01, 10.0)), grid)
    kfile = tmp_path / "kappa.csv"
    with open(kfile, "w") as fp:
        series.to_csv(fp)
    tracemalloc.start()
    try:
        model, _ = _load_tabulated(str(kfile))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.grid == grid and np.array_equal(model.values, series.values)
    # the file is 0.9 MiB; a list per row held 9 MiB
    assert peak < 3 << 20


@pytest.mark.parametrize(
    "command",
    [
        ["evolve", "--t-max", "6", "--dt", "1"],
        ["death-times", "--t-max", "6"],
    ],
)
@pytest.mark.parametrize(
    "body, reason",
    [
        # nothing is known before t = 5, yet kappa read 1 there
        ("t,kappa\n5,1\n5.5,0.5\n6,0.2\n", "must start at t = 0"),
        # clipped to |kappa| = 1, this row gave the unsqueezed kappa = 1 value
        ("t,kappa\n0,1\n3,-3\n6,0.2\n", "|kappa| <= 1"),
    ],
)
def test_kappa_file_outside_the_tabulated_domain_is_a_usage_error(
    tmp_path, command, body, reason, capsys
):
    kfile = tmp_path / "k.csv"
    kfile.write_text("# kappa schema=squeeze-dyn/1\n" + body)
    out = tmp_path / "out"
    args = command[:1] + [
        "--n", "10", "--channel", "dephasing", "--kappa", "tabulated",
        "--kappa-file", str(kfile), "--reproducible", "--output", str(out),
    ] + command[1:]
    assert run(args) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("points", [10**12, 10**7 + 1])
def test_alpha_scan_rejects_too_many_points_before_allocating(points, capsys):
    tracemalloc.start()
    try:
        code = run(["alpha-scan", "--n-min", "3", "--n-max", "1000", "--points", str(points)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "points" in capsys.readouterr().err
    assert peak < 1 << 20


def test_alpha_scan_more_points_than_sizes_gives_one_row_per_size(tmp_path):
    out = tmp_path / "scan.csv"
    code = run(
        ["alpha-scan", "--n-min", "3", "--n-max", "4", "--points", "5",
         "--reproducible", "--output", str(out)]
    )
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert [float(r.split(",")[0]) for r in rows] == [3.0, 4.0]


def test_evolve_csv_and_json_rows_agree(tmp_path):
    common = [
        "evolve", "--n", "10", "--channel", "damping", "--kappa", "lorentzian",
        "--t-max", "20", "--dt", "0.5", "--compare-markovian", "0.01", "--reproducible",
    ]
    assert run(common + ["--output", str(tmp_path / "c.csv")]) == 0
    assert run(common + ["--format", "json", "--output", str(tmp_path / "c.json")]) == 0
    lines = [l for l in (tmp_path / "c.csv").read_text().splitlines() if not l.startswith("#")]
    payload = json.loads((tmp_path / "c.json").read_text())
    assert payload["columns"] == lines[0].split(",")
    assert payload["rows"] == [[float(x) for x in l.split(",")] for l in lines[1:]]


def test_alpha_scan_csv_and_json_rows_agree(tmp_path):
    common = ["alpha-scan", "--n-min", "10", "--n-max", "1000", "--points", "4", "--reproducible"]
    assert run(common + ["--output", str(tmp_path / "s.csv")]) == 0
    assert run(common + ["--format", "json", "--output", str(tmp_path / "s.json")]) == 0
    text = (tmp_path / "s.csv").read_text()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["kind"] == "alpha-scan" == parse_header(text)["kind"]
    assert payload["columns"] == lines[0].split(",") == ["n", "alpha_star", "xi_min"]
    assert payload["rows"] == [[float(x) for x in l.split(",")] for l in lines[1:]]


def _refuse_optimizer(n, *args, **kwargs):
    raise AssertionError(f"optimal_alpha({n}) ran before the N cap")


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", "--n", "1000000000", "--channel", "dephasing", "--t-max", "1", "--dt", "0.5"],
        ["death-times", "--n", "100001", "--channel", "dephasing", "--t-max", "10"],
        ["alpha-scan", "--n-min", "3", "--n-max", "1000000000000", "--points", "3"],
    ],
)
def test_particle_numbers_above_the_cap_are_usage_errors(args, monkeypatch, capsys):
    # the closed forms lose digits as N grows (1.5e-3 relative at 10^7),
    # so the CLI refuses N above 10^5 before it optimizes or scans
    monkeypatch.setattr("squeeze_dyn.cli.optimal_alpha", _refuse_optimizer)
    assert run(args + ["--reproducible"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "100000" in err


def test_particle_number_at_the_cap_is_accepted(tmp_path):
    out = tmp_path / "c.csv"
    args = [
        "evolve", "--n", "100000", "--channel", "dephasing", "--t-max", "1", "--dt", "0.5",
        "--reproducible", "--output", str(out),
    ]
    assert run(args) == 0
    assert parse_header(out.read_text())["n"] == "100000"


@pytest.mark.parametrize(
    "command,gamma,eta0",
    [
        ("death-times", "1e-300", "1e-300"),
        ("death-times", "1e200", "1e200"),
        ("evolve", "1e200", "1e200"),
    ],
)
def test_reservoirs_outside_the_normal_float_range_are_usage_errors(
    command, gamma, eta0, capsys
):
    args = [
        command, "--n", "10", "--channel", "dephasing", "--kappa", "lorentzian",
        "--gamma", gamma, "--eta0", eta0, "--t-max", "10", "--reproducible",
    ]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "normal float" in err


def test_ensemble_warnings_reach_stderr(capsys):
    args = [
        "evolve", "--n", "10", "--channel", "dephasing", "--t-max", "1", "--dt", "0.5",
        "--reproducible",
    ]
    assert run(args + ["--alpha", "2.0"]) == 0
    out, err = capsys.readouterr()
    assert err.splitlines() == ["warning: outside-squeezed-regime (alpha = 2.0)"]
    assert out.startswith("#") and "warning" not in out
    assert run(args + ["--alpha", "0.2"]) == 0
    assert capsys.readouterr().err == ""


def _header_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


def test_evolve_header_bytes_markovian_with_comparison(capsys):
    args = [
        "evolve", "--n", "6", "--alpha", "0.25", "--delta", "0.7", "--channel", "damping",
        "--kappa", "markovian", "--rate", "0.004", "--t-max", "2", "--dt", "1",
        "--compare-markovian", "0.01", "--reproducible",
    ]
    assert run(args) == 0
    assert _header_lines(capsys.readouterr().out) == [
        "# curve schema=squeeze-dyn/1",
        "# n = 6",
        "# alpha = 0.25",
        "# delta = 0.69999999999999996",
        "# channel = damping",
        "# definition = xi",
        "# form = reference",
        "# model = markovian",
        "# rate = 0.0040000000000000001",
        "# t_start = 0",
        "# t_end = 2",
        "# step = 1",
        "# compare_markovian = 0.01",
        "# alpha_auto = false",
    ]


def test_evolve_header_bytes_lorentzian(capsys):
    args = [
        "evolve", "--n", "10", "--channel", "dephasing", "--definition", "xi-prime",
        "--form", "exact", "--kappa", "lorentzian", "--gamma", "0.02", "--eta0", "5",
        "--t-max", "1", "--dt", "0.5",
    ]
    assert run(args + ["--reproducible"]) == 0
    want = [
        "# curve schema=squeeze-dyn/1",
        "# n = 10",
        "# alpha = 0.20048010685386963",
        "# delta = 0",
        "# channel = dephasing",
        "# definition = xi-prime",
        "# form = exact",
        "# model = lorentzian",
        "# gamma = 0.02",
        "# eta0 = 5",
        "# t_start = 0",
        "# t_end = 1",
        "# step = 0.5",
        "# alpha_auto = true",
    ]
    assert _header_lines(capsys.readouterr().out) == want
    # without --reproducible the timestamp comes just before alpha_auto
    assert run(args) == 0
    got = _header_lines(capsys.readouterr().out)
    assert got[-2].startswith("# generated = ")
    assert got[:-2] + got[-1:] == want


def test_evolve_header_bytes_tabulated_grid_keys(tmp_path, capsys):
    # the header names the kappa file by the digest of its bytes and keeps
    # its own grid (t_end 2, step 0.5) under kappa_ keys, beside the curve
    # grid's t_start/t_end/step
    kfile = tmp_path / "kappa.csv"
    with open(kfile, "w") as fp:
        values = np.array([1.0, 0.9, 0.7, 0.4, 0.1])
        Tabulated(TimeGrid(0.0, 2.0, 0.5), values).to_csv(fp)
    args = [
        "evolve", "--n", "4", "--alpha", "0.3", "--channel", "depolarizing",
        "--kappa", "tabulated", "--kappa-file", str(kfile), "--t-max", "1", "--dt", "0.25",
        "--reproducible",
    ]
    assert run(args) == 0
    assert _header_lines(capsys.readouterr().out) == [
        "# curve schema=squeeze-dyn/1",
        "# n = 4",
        "# alpha = 0.29999999999999999",
        "# delta = 0",
        "# channel = depolarizing",
        "# definition = xi",
        "# form = reference",
        "# model = tabulated",
        f"# kappa_sha256 = {hashlib.sha256(kfile.read_bytes()).hexdigest()}",
        "# kappa_t_start = 0",
        "# kappa_t_end = 2",
        "# kappa_step = 0.5",
        "# t_start = 0",
        "# t_end = 1",
        "# step = 0.25",
        "# alpha_auto = false",
    ]


def test_death_times_tabulated_params_name_the_kappa_file(tmp_path):
    kfile = tmp_path / "kappa.csv"
    with open(kfile, "w") as fp:
        values = np.array([1.0, 0.9, 0.7, 0.4, 0.1])
        Tabulated(TimeGrid(0.0, 2.0, 0.5), values).to_csv(fp)
    out = tmp_path / "death.json"
    args = [
        "death-times", "--n", "4", "--alpha", "0.3", "--channel", "depolarizing",
        "--kappa", "tabulated", "--kappa-file", str(kfile), "--t-max", "2",
        "--reproducible", "-o", str(out),
    ]
    assert run(args) == 0
    params = json.loads(out.read_text())["params"]
    assert list(params)[5:10] == ["model", "kappa_sha256", "t_start", "t_end", "step"]
    assert params["kappa_sha256"] == hashlib.sha256(kfile.read_bytes()).hexdigest()
    assert (params["t_start"], params["t_end"], params["step"]) == (0.0, 2.0, 0.5)
    # the digest follows the bytes: one changed value gives another
    with open(kfile, "w") as fp:
        values = np.array([1.0, 0.9, 0.7, 0.4, 0.2])
        Tabulated(TimeGrid(0.0, 2.0, 0.5), values).to_csv(fp)
    assert run(args) == 0
    assert json.loads(out.read_text())["params"]["kappa_sha256"] != params["kappa_sha256"]


@pytest.mark.parametrize("command", ["evolve", "death-times"])
@pytest.mark.parametrize(
    "kappa, flag, reader",
    [
        ("lorentzian", "--rate", "markovian"),
        ("tabulated", "--rate", "markovian"),
        ("markovian", "--gamma", "lorentzian"),
        ("markovian", "--eta0", "lorentzian"),
        ("tabulated", "--gamma", "lorentzian"),
        ("tabulated", "--eta0", "lorentzian"),
        ("markovian", "--kappa-file", "tabulated"),
        ("lorentzian", "--kappa-file", "tabulated"),
    ],
)
def test_model_flag_of_another_model_is_a_usage_error(
    command, kappa, flag, reader, tmp_path, capsys
):
    # each flag is checked before anything reads it, the kappa file included
    out = tmp_path / "out"
    value = str(tmp_path / "missing.csv") if flag == "--kappa-file" else "0.5"
    args = [
        command, "--n", "10", "--channel", "dephasing", "--t-max", "0.1",
        "--kappa", kappa, flag, value, "--output", str(out),
    ]
    if kappa == "tabulated":
        args += ["--kappa-file", str(tmp_path / "missing.csv")]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert f"{flag} is read only with --kappa {reader}, not {kappa}" in err
    assert not out.exists()


@pytest.fixture
def fresh_parser():
    """Drop the parser ``main`` caches, before the test and after it."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _outcome(argv, capsys):
    """The exit status, stdout and stderr of one ``main`` call; a
    ``SystemExit`` gives the status."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _reuse_sequence(out_dir):
    curve = ["evolve", "--n", "10", "--channel", "dephasing", "--t-max", "5", "--dt", "0.5"]
    death = ["death-times", "--n", "10", "--channel", "depolarizing", "--t-max", "60"]
    return [
        [
            *curve, "--alpha", "0.3", "--format", "json", "--compare-markovian", "0.01",
            "--reproducible", "--output", str(out_dir / "flags.json"),
        ],
        # none of the flags above: alpha_auto, csv, no comparison, stdout
        [*curve, "--reproducible"],
        ["evolve", "--n", "10", "--channel", "bogus", "--t-max", "5"],
        ["--version"],
        [
            *death, "--alpha", "0.3", "--coarse-step", "0.5", "--reproducible",
            "--output", str(out_dir / "coarse.json"),
        ],
        [*death, "--reproducible"],
    ]


@pytest.mark.usefixtures("fresh_parser")
def test_a_reused_parser_answers_each_command_as_a_fresh_one(tmp_path, capsys):
    fresh_dir, reused_dir = tmp_path / "fresh", tmp_path / "reused"
    fresh_dir.mkdir()
    reused_dir.mkdir()
    fresh = []
    for argv in _reuse_sequence(fresh_dir):
        cli._parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    cli._parser.cache_clear()
    reused = [_outcome(argv, capsys) for argv in _reuse_sequence(reused_dir)]
    assert reused == fresh
    for name in ("flags.json", "coarse.json"):
        assert (reused_dir / name).read_bytes() == (fresh_dir / name).read_bytes()

    # the sequence does exercise what a leaked value would change
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0]
    flags = json.loads((reused_dir / "flags.json").read_text())
    assert flags["params"]["alpha_auto"] is False
    assert flags["columns"] == ["t", "kappa", "xi2", "xi2_markovian"]
    plain = reused[1][1]
    assert parse_header(plain)["alpha_auto"] == "true"
    assert "t,kappa,xi2\n" in plain
    assert "invalid choice: 'bogus'" in reused[2][2]
    assert reused[3][1] == f"squeeze-dyn {cli.__version__}\n"
    coarse = json.loads((reused_dir / "coarse.json").read_text())
    default = json.loads(reused[5][1])
    assert (coarse["params"]["alpha_auto"], coarse["coarse_step"]) == (False, 0.5)
    assert (default["params"]["alpha_auto"], default["coarse_step"]) == (True, 0.05)


@pytest.mark.usefixtures("fresh_parser")
def test_main_builds_one_parser_per_process(tmp_path, monkeypatch, capsys):
    build_parser = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for argv in _reuse_sequence(tmp_path) * 2:
        _outcome(argv, capsys)
    assert len(built) == 1
    # build_parser itself still makes a parser of the caller's own
    assert build_parser() is not build_parser()


def _csv_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])


def test_evolve_writes_no_nan_where_the_3x3_spread_rounds_to_zero(tmp_path):
    # near t = 9671 the Markovian kappa is about 9e-43, where the 3x3
    # eigenvalue's spread p rounded to 0 and 46 rows read nan
    out = tmp_path / "curve.csv"
    args = [
        "evolve", "--n", "1000", "--channel", "depolarizing", "--definition", "xi-prime",
        "--form", "exact", "--kappa", "lorentzian", "--t-max", "1e4",
        "--compare-markovian", "0.01", "--dt", "0.3", "--reproducible", "--output", str(out),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args) == 0
    assert "nan" not in out.read_text()
    rows = _csv_rows(out)
    assert rows.shape == (33334, 4)
    # kappa this small leaves the maximally mixed state's value, N
    assert np.all(rows[(rows[:, 0] >= 9670) & (rows[:, 0] <= 9685), 3] == 1000.0)


def test_evolve_rejects_an_alpha_whose_double_overflows(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    args = [
        "evolve", "--n", "2", "--channel", "dephasing", "--alpha", "1e308",
        "--kappa", "markovian", "--t-max", "1", "--output", str(out),
    ]
    assert run(args) == 2
    assert "2*alpha overflows for alpha = 1e+308" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, intervals, comparison",
    [
        (
            ["--n", "5", "--channel", "depolarizing", "--kappa", "lorentzian",
             "--gamma", "10", "--t-max", "1e4"],
            [[0.0, 0.11442681750333322]],
            None,
        ),
        (
            ["--n", "1000", "--channel", "damping", "--kappa", "markovian",
             "--rate", "1e4", "--t-max", "400", "--compare-markovian", "1e308"],
            [[0.0, 0.0038105010986328124]],
            [[0.0, 3.814697265625e-07]],
        ),
    ],
    ids=["overflowing-quotient", "overflowing-comparison-rate"],
)
def test_death_times_warns_nothing_where_a_value_overflows(tmp_path, args, intervals, comparison):
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["death-times", *args, "--reproducible", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["intervals"] == intervals
    if comparison is not None:
        assert report["markovian_comparison"]["intervals"] == comparison


def _refuse_evaluation(self, t):
    raise AssertionError("the main curve was evaluated before the comparison rate was checked")


@pytest.mark.parametrize("command", ["evolve", "death-times"])
@pytest.mark.parametrize("rate", ["0", "-1", "inf", "nan"])
def test_a_bad_comparison_rate_is_rejected_before_the_main_curve(
    command, rate, monkeypatch, capsys
):
    monkeypatch.setattr(cli.LorentzianClosedForm, "evaluate", _refuse_evaluation)
    args = [
        command, "--n", "5", "--channel", "depolarizing", "--kappa", "lorentzian",
        "--gamma", "10", "--t-max", "1e4", "--compare-markovian", rate,
    ]
    assert run(args) == 2
    assert "rate must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, err",
    [
        (["--delta=nan"], "error: delta must be finite, got nan\n"),
        (["--delta=inf"], "error: delta must be finite, got inf\n"),
        (["--delta=-inf"], "error: delta must be finite, got -inf\n"),
        # alpha is checked first, and a bad delta prints no angle warning
        (["--alpha", "nan", "--delta=nan"], "error: alpha must be finite, got nan\n"),
        (["--alpha", "3", "--delta=nan"], "error: delta must be finite, got nan\n"),
    ],
)
def test_evolve_rejects_a_non_finite_delta(extra, err, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    args = [
        "evolve", "--n", "6", "--channel", "damping", "--t-max", "2", "--dt", "1",
        "--output", str(out), *extra,
    ]
    if "--alpha" not in extra:
        args += ["--alpha", "0.25"]
    assert run(args) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_delta_reaches_only_the_header(fmt, tmp_path):
    # the field rotates the state about z, which moves no squeezing value
    args = [
        "evolve", "--n", "6", "--alpha", "0.25", "--channel", "damping", "--kappa", "markovian",
        "--rate", "0.004", "--t-max", "20", "--dt", "1", "--format", fmt, "--reproducible",
    ]
    with_field, without = tmp_path / "field", tmp_path / "none"
    assert run(args + ["--delta", "0.7", "--output", str(with_field)]) == 0
    assert run(args + ["--output", str(without)]) == 0
    if fmt == "csv":
        old, new = "# delta = 0\n", "# delta = 0.69999999999999996\n"
    else:
        old, new = '"delta": 0.0,', '"delta": 0.7,'
    assert without.read_text().count(old) == 1
    assert with_field.read_text() == without.read_text().replace(old, new)


def test_a_huge_alpha_is_outside_the_regime_not_a_product_state(tmp_path, capsys):
    # cos(2e17) = 0.568, so xi2 = 4.417 at t = 0 is not a product state's 1
    out = tmp_path / "curve.csv"
    args = [
        "evolve", "--n", "10", "--alpha", "1e17", "--channel", "dephasing",
        "--kappa", "markovian", "--t-max", "1", "--dt", "0.5", "--output", str(out),
    ]
    assert run(args) == 0
    assert capsys.readouterr().err == "warning: outside-squeezed-regime (alpha = 1e+17)\n"
    assert _csv_rows(out)[0, 2] == pytest.approx(4.4168347832284027, rel=1e-12)


@pytest.mark.parametrize(
    "gamma, eta0", [("10", "10"), ("10", "5"), ("1", "0.005")], ids=["strong", "critical", "weak"]
)
def test_evolve_at_the_largest_times_writes_no_nan(gamma, eta0, tmp_path):
    # gamma*t and d*t overflow at t = 1e308; kappa's envelope is 0 there,
    # and 0 * inf or cos(inf) used to write nan
    out = tmp_path / "curve.csv"
    args = [
        "evolve", "--n", "10", "--channel", "damping", "--kappa", "lorentzian",
        "--gamma", gamma, "--eta0", eta0, "--t-max", "1e308", "--dt", "1e308",
        "--output", str(out),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args) == 0
    # at t = 0 kappa is exactly 1 (the weak branch once summed its two
    # weights to 0.9999999999999999) and xi2 is the pure-state value
    alpha = float(parse_header(out.read_text())["alpha"])
    pure = channel_xi2(10, alpha, 1.0, ChannelKind.DAMPING)
    assert _csv_rows(out)[0].tolist() == [0.0, 1.0, pure]
    assert _csv_rows(out)[1].tolist() == [1e308, 0.0, 1.0]
