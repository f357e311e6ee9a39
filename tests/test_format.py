import functools
import io
import json
import math

import numpy as np
import pytest

from squeeze_dyn import (
    ChannelKind,
    LorentzianClosedForm,
    MarkovianExponential,
    ReservoirConfig,
    curve_evaluator,
    death_report,
)
from squeeze_dyn._format import (
    CHUNK_ROWS,
    SCHEMA,
    fmt,
    parse_header,
    write_csv,
    write_header,
    write_json,
    write_report,
)
from squeeze_dyn.verify import run_verification


def _per_cell_csv(kind, params, columns, rows):
    """The CSV writer as a per-cell ``fmt`` join, the reference for its bytes."""
    fp = io.StringIO()
    write_header(fp, kind, params)
    fp.write(",".join(columns) + "\n")
    for row in rows:
        fp.write(",".join(fmt(x) for x in row) + "\n")
    return fp.getvalue()


def test_write_csv_bytes_match_per_cell_join():
    rows = [
        (0.0, -0.0, 1.0),
        (math.inf, -math.inf, math.nan),
        (3, -7, 2**60),
        (np.float64(1 / 3), np.float64(-2.5e-300), np.float64(1e300)),
        (5e-324, 0.1, 123456789.123456789),
        [True, np.int64(4), np.float32(0.1)],
    ]
    params = {"n": 10, "alpha": 0.2, "auto": True}
    fp = io.StringIO()
    write_csv(fp, "curve", params, ["a", "b", "c"], rows)
    assert fp.getvalue() == _per_cell_csv("curve", params, ["a", "b", "c"], rows)
    rng = np.random.default_rng(7)
    table = (rng.standard_normal((500, 4)) * 10.0 ** rng.integers(-300, 300, (500, 4)))
    assert len(table) > 2 * CHUNK_ROWS
    fp = io.StringIO()
    # a generator, as perfbench's tracer passes, spanning several chunks
    write_csv(fp, "kappa", {}, list("wxyz"), (row for row in table.tolist()))
    assert fp.getvalue() == _per_cell_csv("kappa", {}, list("wxyz"), table.tolist())


def _json_dump(kind, params, columns, rows):
    """The table as ``json.dump`` writes it, the reference for ``write_json``."""
    fp = io.StringIO()
    payload = {"schema": SCHEMA, "kind": kind, "params": params, "columns": columns, "rows": rows}
    json.dump(payload, fp, indent=1)
    return fp.getvalue()


def _tables():
    rng = np.random.default_rng(5)
    mags = (rng.standard_normal((300, 4)) * 10.0 ** rng.integers(-300, 301, (300, 4))).tolist()
    return {
        "magnitudes": [[1e-300, 1e300, -1e-300, -1e300]] + mags,
        "specials": [
            [0.0, -0.0, 5e-324, -5e-324],
            [math.inf, -math.inf, math.nan, 1.0],
            [0.1, 1 / 3, 123456789.123456789, 2.0**60],
        ],
        "numpy": [[np.float64(0.1), np.float64(-math.inf), np.float64(1e-7), 0.5]] * 3,
        "empty": [],
        "beyond-one-chunk": np.linspace(-1.0, 1.0, 4 * (2 * CHUNK_ROWS + 1)).reshape(-1, 4).tolist(),
    }


@pytest.mark.parametrize("name", list(_tables()))
def test_write_json_bytes_match_json_dump(name):
    rows = _tables()[name]
    params = {"n": 10, "alpha": 0.2, "auto": True, "model": "lorentzian", "edge": math.inf}
    fp = io.StringIO()
    write_json(fp, "curve", params, list("wxyz"), rows)
    assert fp.getvalue() == _json_dump("curve", params, list("wxyz"), rows)


@pytest.mark.parametrize("rows", [[], [[0.25]], [[x] for x in np.linspace(0.0, 1.0, CHUNK_ROWS + 1)]])
def test_write_json_one_column_matches_json_dump(rows):
    fp = io.StringIO()
    write_json(fp, "kappa", {}, ["t"], rows)
    assert fp.getvalue() == _json_dump("kappa", {}, ["t"], rows)


@pytest.mark.parametrize("name", list(_tables()))
@pytest.mark.parametrize("writer", [write_csv, write_json])
def test_tables_from_an_array_match_tables_from_rows(name, writer):
    rows = _tables()[name]
    array = np.array(rows, dtype=float).reshape(-1, 4)
    want = io.StringIO()
    writer(want, "curve", {"n": 10}, list("wxyz"), array.tolist())
    # the array itself, and its rows one at a time as perfbench's tracer
    # passes them
    for table in (array, (row for row in array)):
        fp = io.StringIO()
        writer(fp, "curve", {"n": 10}, list("wxyz"), table)
        assert fp.getvalue() == want.getvalue()


def _parse_header_reference(text):
    """``parse_header`` as a loop over every line of the text."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "schema=" in body:
            head, _, schema = body.partition("schema=")
            out["schema"] = schema.strip()
            out["kind"] = head.strip()
            continue
        key, sep, val = body.partition("=")
        if sep:
            out[key.strip()] = val.strip()
    return out


@functools.cache
def _header_texts():
    body = "t,kappa\n" + "".join(f"{k * 0.005!r},{0.999**k!r}\n" for k in range(20001))
    head = "# kappa schema=squeeze-dyn/1\n# step = 0.005\n"
    texts = {
        "large-body": head + "# model = solver\n" + body,
        # a blank line ends the header: the keys after it are not read
        "blank-lines": head + "\n# model = solver\n\n" + body,
        "crlf": (head + body).replace("\n", "\r\n"),
        "cr": (head + body).replace("\n", "\r"),
        "header-only": head * 200,
        "empty": "",
    }
    # a header line ends at each offset around the cuts of the growing
    # prefix (1024 and 4096 characters), with CRLF ends that the cut may
    # split between the '\r' and the '\n'
    for width in range(964, 974):
        line = "# pad = " + "x" * width + "\n"
        texts[f"crlf-{width}"] = (head + line + head).replace("\n", "\r\n") + body
    for width in range(4040, 4048):
        texts[f"lf-{width}"] = head + "# pad = " + "x" * width + "\n" + head + body
    return texts


@pytest.mark.parametrize("name", list(_header_texts()))
def test_parse_header_reads_what_a_scan_of_every_line_reads(name):
    text = _header_texts()[name]
    assert parse_header(text) == _parse_header_reference(text)


def test_parse_header_stops_at_a_blank_line():
    header = parse_header(_header_texts()["blank-lines"])
    assert header == {"schema": "squeeze-dyn/1", "kind": "kappa", "step": "0.005"}


def _death_report():
    model = LorentzianClosedForm(res=ReservoirConfig(gamma=0.01, eta0=10.0))
    report = death_report(
        curve_evaluator(10, 0.2, ChannelKind.DEPHASING, model),
        400.0,
        0.05,
        params={"n": 10, "alpha": 0.2, "model": "lorentzian", "alpha_auto": False},
    )
    markov = curve_evaluator(10, 0.2, ChannelKind.DEPHASING, MarkovianExponential(rate=0.005))
    report["markovian_comparison"] = death_report(markov, 400.0, 0.05, params={"rate": 0.005})
    return report


def _reports():
    return {
        "verify": run_verification(max_n=5, tolerance=1e-8).to_json(),
        "death-times": _death_report(),
        "non-finite": {"values": [math.inf, -math.inf, math.nan, -0.0], "edge": -math.inf},
        "empty": {"d": {}, "l": [], "nested": [[], [[]], [{}], [[1.5, {}], []]], "rows": [{}, {}]},
        "same-keys-other-order": {"rows": [{"a": 1.0, "b": 2}, {"b": 3, "a": 4.0}]},
        "other-keys": [{"a": 1}, {"b": 2}, {"a": 1, "b": 2}, {"a": 1}],
        "scalars": {
            "text": "\u00e9t\u00e9 \u2603 \"quoted\" \\ 100% %s\n",
            "none": None,
            "flags": [True, False],
            "big": 3**200,
            "keys": {1: "int", 2.5: "float", None: "null", False: "bool"},
        },
        "beyond-one-chunk": [
            {"n": i, "x%s": i / 7, "definition": "inf", "odd": i % 2 == 1,
             "v": (math.nan, -0.0)[i % 2]}
            for i in range(2 * CHUNK_ROWS + 3)
        ],
        "mixed-column": [{"v": 1.0}, {"v": None}, {"v": 2}, {"v": "inf"}, {"v": math.inf}],
        "scalar": 0.1,
    }


@pytest.mark.parametrize("name", list(_reports()))
def test_write_report_bytes_match_json_dump(name):
    report = _reports()[name]
    fp = io.StringIO()
    write_report(fp, report)
    want = io.StringIO()
    json.dump(report, want, indent=1)
    assert fp.getvalue() == want.getvalue()


def test_write_report_rejects_what_json_rejects():
    for bad in ({"x": np.int64(3)}, [{"a": {1, 2}}], {(1, 2): 0.0}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=1)
        with pytest.raises(TypeError):
            write_report(io.StringIO(), bad)
