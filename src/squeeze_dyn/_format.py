"""Deterministic text emission for data files.

CSV floats are written with 17 significant digits ('%.17g'), enough to
round-trip IEEE doubles; CSV headers are '#'-prefixed ``key = value``
lines and machine parseable. A CSV table's cells are converted by one
numpy kernel, ``_g17``, ``CSV_BLOCK_ROWS`` rows at a time, into exactly
the bytes of '%.17g': by integer arithmetic, with the 17th digit rounded
half to even, for 2e-11 <= |v| < 1e15, and by '%' one cell at a time
outside that window. JSON tables and reports carry the bytes
``json.dump(obj, fp, indent=1)`` would write: each float is its shortest
round-trip ``repr``, and inf and nan are written ``Infinity``,
``-Infinity`` and ``NaN``. They go through one encoder, not json's
pure-Python one: the rows of a table given as a 2-D float array, and the
rows of a report's lists of flat dicts, are formatted from one '%'
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

#: rows of a JSON table, or of a report's list of flat dicts, formatted
#: by one '%' and written by one ``fp.write``: a chunk's cell strings take
#: about 20 kB, so emission adds no peak memory, while the cost per chunk
#: is already negligible against its cells
CHUNK_ROWS = 64

#: rows of a CSV table converted by one ``_g17`` call and written by one
#: ``fp.write``: a two-column block's temporaries peak near 0.8 MiB; at
#: 1,024 rows the cost per block is small against its cells
CSV_BLOCK_ROWS = 1024


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


#: '%.17g' is at most 24 characters: '-2.2250738585072014e-308'
_G17_WIDTH = 24
_U64 = np.uint64
#: 5**k for the decimal exponents of the fast path: k = 16 - X <= 27
_POW5 = np.array([5**k for k in range(28)], dtype=_U64)
_LIMB_DIGITS = np.stack(np.indices((10,) * 4, dtype=np.uint8), -1).reshape(-1, 4) + 48
#: the ASCII of each 4-digit limb as one uint32: entries 0-9999 with
#: every digit, 10000-19999 with the trailing zeros as pad bytes (0)
_LIMBS = np.concatenate([
    _LIMB_DIGITS,
    _LIMB_DIGITS * (np.maximum.accumulate(_LIMB_DIGITS[:, ::-1], 1)[:, ::-1] > 48),
]).view(np.uint32).ravel()


def _scaled(m, e, x10):
    """floor(m * 2**e / 10**(x10 - 16)), its remainder and the shift s.

    m * 5**(16 - x10) is at most 2**116, kept as a (hi, lo) pair of
    uint64 from four 32-bit partial products, then shifted right by
    s = -(e + 16 - x10), which is 1..62 in the fast path's window. Every
    uint64 operation takes uint64 operands: numpy < 2 turns uint64
    combined with int64 into float64.
    """
    f = _POW5[16 - x10]
    s = (x10 - e - 16).astype(_U64)
    low32 = _U64(0xFFFFFFFF)
    m0, m1, f0, f1 = m & low32, m >> _U64(32), f & low32, f >> _U64(32)
    p00 = m0 * f0
    mid = m0 * f1 + m1 * f0  # < 2**63 + 2**53
    lo = p00 + (mid << _U64(32))
    hi = m1 * f1 + (mid >> _U64(32)) + (lo < p00)
    return (hi << (_U64(64) - s)) | (lo >> s), lo & ((_U64(1) << s) - _U64(1)), s


def _g17(x: np.ndarray) -> np.ndarray:
    """The bytes of ``'%.17g' % v`` for each v of a 1-D float64 array, as
    the rows of a (len(x), 24) uint8 matrix, padded anywhere with 0 bytes.

    A cell with 2e-11 <= |v| < 1e15 is converted exactly, as Ryu does
    (Adams, PLDI 2018), into Gay's correctly rounded digits: the 17-digit
    integer is round-half-to-even of m * 2**e / 10**(X - 16) for the
    double's mantissa m and exponent e and its decimal exponent X, which
    ``np.log10`` estimates and the truncated quotient fixes. Inside the
    window X is -11..14. Fixed notation is used for -4 <= X <= 14 and
    ``d.ddde-XX`` below that, each decimal-exponent group laid out with
    slices of the digit matrix. Trailing zeros after the point, and a
    point with no digit after it, become pad bytes. Every other cell (±0,
    subnormal, tiny, >= 1e15, inf, nan) is '%.17g' of that cell alone.
    """
    out = np.zeros((len(x), _G17_WIDTH), dtype=np.uint8)
    ax = np.abs(x)
    inside = (ax >= 2e-11) & (ax < 1e15)
    fast = np.flatnonzero(inside)
    bits = x[fast].view(_U64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    e = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64) - 1075
    x10 = np.floor(np.log10(ax[fast])).astype(np.int64)
    q, r, s = _scaled(m, e, x10)
    high = q >= _U64(10**17)
    off = np.flatnonzero(high | (q < _U64(10**16)))
    if len(off):  # log10 is a few ulps off next to powers of ten
        x10[off] += np.where(high[off], 1, -1)
        q[off], r[off], s[off] = _scaled(m[off], e[off], x10[off])
    half = _U64(1) << (s - _U64(1))
    # no double in the window rounds up to 10**17: the nearest one below
    # each power of ten is more than half a unit of the 17th digit below
    q += (r > half) | ((r == half) & (q & _U64(1)).astype(bool))
    # one decimal-exponent group after another, each a run of rows
    group = (x10 + 11).astype(np.int8)
    order = np.argsort(group, kind="stable")
    head, tail8 = np.divmod(q[order], _U64(10**8))
    head = head.astype(np.uint32)
    limbs = np.empty((len(order), 4), dtype=np.intp)
    np.divmod(head % 100000000, 10000, out=(limbs[:, 0], limbs[:, 1]))
    np.divmod(tail8.astype(np.uint32), 10000, out=(limbs[:, 2], limbs[:, 3]))
    # a limb with only zero limbs after it takes its pad-byte spelling
    trailing = np.ones(limbs.shape, dtype=bool)
    trailing[:, 2] = limbs[:, 3] == 0
    trailing[:, 1] = trailing[:, 2] & (limbs[:, 2] == 0)
    trailing[:, 0] = trailing[:, 1] & (limbs[:, 1] == 0)
    digits = np.empty((len(order), 17), dtype=np.uint8)
    digits[:, 0] = head // 100000000 + 48
    digits[:, 1:] = _LIMBS[limbs + trailing * 10000].view(np.uint8)
    cells = np.zeros((len(order), _G17_WIDTH), dtype=np.uint8)
    cells[:, 0] = (x[fast[order]] < 0) * np.uint8(45)  # '-'
    stop = 0
    for g, count in enumerate(np.bincount(group, minlength=26).tolist()):
        if not count:
            continue
        start, stop = stop, stop + count
        d, c, k = digits[start:stop], cells[start:stop], g - 11
        if k >= 0:  # ddd.ddd: the integer digits keep their zeros
            c[:, 1:k + 2] = d[:, :k + 1] | 48
            c[:, k + 2] = (d[:, k + 1] != 0) * np.uint8(46)  # '.'
            c[:, k + 3:19] = d[:, k + 1:]
        elif k >= -4:  # 0.000ddd
            c[:, 1:2 - k] = np.frombuffer(b"0.000"[:1 - k], np.uint8)
            c[:, 2 - k:19 - k] = d
        else:  # d.ddde-XX
            c[:, 1] = d[:, 0]
            c[:, 2] = (d[:, 1] != 0) * np.uint8(46)
            c[:, 3:19] = d[:, 1:]
            c[:, 19:23] = np.frombuffer(b"e-%02d" % -k, np.uint8)
    # one 24-byte item per row: far cheaper to scatter than 24 bytes
    out.view(f"V{_G17_WIDTH}")[fast[order]] = cells.view(f"V{_G17_WIDTH}")
    for i in np.flatnonzero(~inside).tolist():
        text = b"%.17g" % x[i]
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


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

    ``rows`` is a 2-D array or any iterable of rows; it is read into one
    float64 array, so each cell is written as ``fmt`` writes it. The cells
    are converted by ``_g17`` ``CSV_BLOCK_ROWS`` rows at a time (exactly
    for 2e-11 <= |v| < 1e15 with 17 digits rounded half to even, by '%'
    one cell at a time outside that window); each block is one uint8
    matrix with its ',' and newline bytes, written with its pad bytes
    dropped by one ``fp.write``.
    """
    write_header(fp, kind, params)
    fp.write(",".join(columns) + "\n")
    width = len(columns)
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=np.float64)
    table = table.reshape(len(table), width)  # a row of another length raises
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[start:start + CSV_BLOCK_ROWS]
        text = np.empty((len(block), width, _G17_WIDTH + 1), dtype=np.uint8)
        text[:, :, :-1] = _g17(block.ravel()).reshape(len(block), width, _G17_WIDTH)
        text[:, :, -1] = 44  # ','
        text[:, -1, -1] = 10  # '\n'
        fp.write(text.tobytes().translate(None, b"\0").decode("ascii"))


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
            row = "[" + field + ("," + field).join(["%r"] * obj.shape[1]) + inner + "]"
            for k, cells in _chunks(obj):
                text = ("," + inner).join([row] * k) % tuple(cells)
                # float repr spells only inf, -inf and nan with letters, and
                # each of them with an 'n'
                if "n" in text:
                    text = text.replace("inf", "Infinity").replace("nan", "NaN")
                yield sep + text
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
