import io
import json
import math

import numpy as np
import pytest

from squeeze_dyn._format import (
    CHUNK_ROWS,
    SCHEMA,
    fmt,
    write_csv,
    write_header,
    write_json,
)


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
