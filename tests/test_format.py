import io
import math

import numpy as np

from squeeze_dyn._format import fmt, write_csv, write_header


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
    fp = io.StringIO()
    write_csv(fp, "kappa", {}, list("wxyz"), table.tolist())
    assert fp.getvalue() == _per_cell_csv("kappa", {}, list("wxyz"), table.tolist())
