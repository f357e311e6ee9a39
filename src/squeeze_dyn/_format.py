"""Deterministic text emission for data files.

CSV floats are written with 17 significant digits ('%.17g'), enough to
round-trip IEEE doubles; CSV headers are '#'-prefixed ``key = value``
lines and machine parseable. JSON tables and reports carry the bytes
``json.dump(obj, fp, indent=1)`` would write: each float is its shortest
round-trip ``repr``, and inf and nan are written ``Infinity``,
``-Infinity`` and ``NaN``. Both go through one encoder, not json's
pure-Python one: the rows of a table given as a 2-D float array, and
the rows of a report's lists of flat dicts, are formatted from one '%'
template ``CHUNK_ROWS`` rows at a time, and an array is read a block of
rows at a time, so no Python object is made per row. Identical inputs
produce byte-identical files in either format.
"""

from __future__ import annotations

import io
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

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


def _chunks(rows: Iterable[Sequence[float]]) -> Iterator[tuple[int, Iterable[float]]]:
    """Yield (row count, cells in row order) for blocks of ``CHUNK_ROWS`` rows.

    An ndarray's block is one ``tolist`` of its rows; any other iterable
    is read row by row.
    """
    if isinstance(rows, np.ndarray):
        for start in range(0, len(rows), CHUNK_ROWS):
            block = rows[start:start + CHUNK_ROWS]
            yield len(block), block.ravel().tolist()
        return
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
    """Write a '#'-headed CSV table; every row holds ``len(columns)`` numbers.

    ``rows`` is a 2-D array or any iterable of rows.
    """
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
    rows: np.ndarray | Sequence[Sequence[float]],
) -> None:
    """Write a table as one JSON document, byte for byte what
    ``json.dump(payload, fp, indent=1)`` writes for the same payload.

    ``rows`` is a 2-D float array, or a list of rows of floats; every row
    holds ``len(columns)`` cells.
    """
    payload = {"schema": SCHEMA, "kind": kind, "params": params, "columns": columns, "rows": rows}
    write_report(fp, payload)


#: json's names for the float reprs that are not numbers
_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
#: the converter json applies to a value of exactly one of these types
_PLAIN = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii}


def _scalar(v) -> str:
    """``v`` as ``json.dumps`` writes it; the type tests run in json's order."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        r = float.__repr__(v)
        return _NONFINITE.get(r, r)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _column_texts(col: list) -> list[str]:
    """``_scalar`` of each value of one table column; a column of plain
    floats, ints or strings takes one ``map`` of the converter json uses."""
    types = set(map(type, col))
    kind = types.pop() if len(types) == 1 else None
    texts = list(map(_PLAIN.get(kind, _scalar), col))
    if kind is float and any(map(_NONFINITE.__contains__, texts)):
        texts = [_NONFINITE.get(r, r) for r in texts]
    return texts


def _flat_keys(items: Sequence) -> tuple | None:
    """The keys of every item, when all items are dicts of scalars with
    the same string keys in the same order; otherwise None."""
    if not all(issubclass(t, dict) for t in set(map(type, items))):
        return None
    # a tuple of a dict's keys keeps their order; ``d.keys() == first.keys()``
    # compares them as sets
    shapes = set(map(tuple, items))
    if len(shapes) != 1:
        return None
    keys = shapes.pop()
    if not (keys and all(isinstance(k, str) for k in keys)):
        return None
    values = set(map(type, chain.from_iterable(map(dict.values, items))))
    if any(issubclass(t, (dict, list, tuple)) for t in values):
        return None
    return keys


def _encode(obj, level: int) -> Iterator[str]:
    """The text of ``json.dump(obj, fp, indent=1)`` for ``obj`` nested
    ``level`` deep, in pieces.

    A 2-D float array, and a list of flat dicts with the same keys in the
    same order, are one '%' template per row, formatted ``CHUNK_ROWS`` rows
    at a time.
    """
    if isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            yield "[]"
            return
        inner = "\n" + " " * (level + 1)
        field = "\n" + " " * (level + 2)
        sep = "[" + inner
        if isinstance(obj, np.ndarray):
            # a 2-D float table: each cell is its float repr, which is what
            # json prints for a float
            row = "[" + field + ("," + field).join(["%s"] * obj.shape[1]) + inner + "]"
            for k, cells in _chunks(obj):
                text = ("," + inner).join([row] * k) % tuple(map(float.__repr__, cells))
                # float repr spells only inf, -inf and nan with letters
                yield sep + text.replace("inf", "Infinity").replace("nan", "NaN")
                sep = "," + inner
        elif (keys := _flat_keys(obj)) is None:
            for item in obj:
                yield sep
                yield from _encode(item, level + 1)
                sep = "," + inner
        else:
            fields = (field + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
            row = "{" + ",".join(fields) + inner + "}"
            width = len(keys)
            for k, cells in _chunks(map(dict.values, obj)):
                texts = list(cells)
                for j in range(width):
                    texts[j::width] = _column_texts(texts[j::width])
                yield sep + ("," + inner).join([row] * k) % tuple(texts)
                sep = "," + inner
        yield "\n" + " " * level + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = "\n" + " " * (level + 1)
        sep = "{" + inner
        for key, value in obj.items():
            # json writes a non-string key as the quoted text of the scalar
            name = key if isinstance(key, str) else _scalar(key)
            yield sep + encode_basestring_ascii(name) + ": "
            yield from _encode(value, level + 1)
            sep = "," + inner
        yield "\n" + " " * level + "}"
    else:
        yield _scalar(obj)


def write_report(fp: io.TextIOBase, report: Mapping[str, object]) -> None:
    """Write a JSON report (``death-times``, ``verify``), byte for byte
    what ``json.dump(report, fp, indent=1)`` writes.

    Rows of flat dicts are written a chunk at a time from one template
    (see ``_encode``), so no more than a chunk's text is held at once.
    """
    fp.writelines(_encode(report, 0))


def parse_header(text: str) -> dict[str, str]:
    """Read the ``key = value`` header lines back into a dict.

    The schema line is stored under the key ``"schema"``. Only the leading
    '#' lines are read; the header ends at the first line without one.
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
