"""Deterministic text emission for data files.

CSV floats are written with 17 significant digits ('%.17g'), enough to
round-trip IEEE doubles; CSV headers are '#'-prefixed ``key = value``
lines and machine parseable. JSON tables and reports carry the bytes
``json.dump(obj, fp, indent=1)`` would write: each float is its shortest
round-trip ``repr``, and inf and nan are written ``Infinity``,
``-Infinity`` and ``NaN``. Identical inputs produce byte-identical files
in either format.
"""

from __future__ import annotations

import io
import json
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence

SCHEMA = "squeeze-dyn/1"

#: rows formatted by one '%' and written by one ``fp.write``: a chunk's
#: cell strings take about 20 kB, so emission adds no peak memory, while
#: the cost per chunk is already negligible against its cells
CHUNK_ROWS = 64


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt(v)
    return str(v)


def write_header(fp: io.TextIOBase, kind: str, params: Mapping[str, object]) -> None:
    fp.write(f"# {kind} schema={SCHEMA}\n")
    for key, val in params.items():
        fp.write(f"# {key} = {fmt_value(val)}\n")


def _chunks(rows: Iterable[Sequence[float]]) -> Iterator[tuple[int, Iterator[float]]]:
    """Yield (row count, cells in row order) for blocks of ``CHUNK_ROWS`` rows."""
    it = iter(rows)
    while chunk := list(islice(it, CHUNK_ROWS)):
        yield len(chunk), chain.from_iterable(chunk)


def write_csv(
    fp: io.TextIOBase,
    kind: str,
    params: Mapping[str, object],
    columns: Sequence[str],
    rows: Iterable[Sequence[float]],
) -> None:
    """Write a '#'-headed CSV table; every row holds ``len(columns)`` numbers."""
    write_header(fp, kind, params)
    fp.write(",".join(columns) + "\n")
    # one format per chunk writes the same bytes as ``fmt`` per cell: '%g'
    # converts each number with float() itself
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    for k, cells in _chunks(rows):
        fp.write((line * k) % tuple(cells))


def write_json(
    fp: io.TextIOBase,
    kind: str,
    params: Mapping[str, object],
    columns: Sequence[str],
    rows: Iterable[Sequence[float]],
) -> None:
    """Write a table as one JSON document, byte for byte what
    ``json.dump(payload, fp, indent=1)`` writes for the same payload.

    Every cell must be a float (numpy float64 included) and every row hold
    ``len(columns)`` of them. The head comes from ``json.dumps``; the rows
    are formatted a chunk at a time with ``float.__repr__``, which is what
    json prints for a float, then inf and nan are renamed as json names them.
    """
    payload = {"schema": SCHEMA, "kind": kind, "params": params, "columns": columns, "rows": []}
    # the head ends '"rows": []\n}'; the row block replaces the '[]'
    fp.write(json.dumps(payload, indent=1)[: -len("[]\n}")])
    row = "  [\n   " + ",\n   ".join(["%s"] * len(columns)) + "\n  ]"
    sep = "[\n"
    for k, cells in _chunks(rows):
        text = ",\n".join([row] * k) % tuple(map(float.__repr__, cells))
        fp.write(sep)
        # float repr spells only inf, -inf and nan with letters
        fp.write(text.replace("inf", "Infinity").replace("nan", "NaN"))
        sep = ",\n"
    fp.write("[]\n}" if sep == "[\n" else "\n ]\n}")


def write_report(fp: io.TextIOBase, report: Mapping[str, object]) -> None:
    """Write a JSON report (``death-times``, ``verify``) as indented JSON.

    It streams: one ``fp.write`` of the whole text would first hold every
    token of the encoder, which for a ``verify`` report raises peak memory
    by about 0.6 MiB to save about 2 ms.
    """
    json.dump(report, fp, indent=1)


def parse_header(text: str) -> dict[str, str]:
    """Read the ``key = value`` header lines back into a dict.

    The schema line is stored under the key ``"schema"``.
    """
    out: dict[str, str] = {}
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
