"""Deterministic text emission for data files.

All floats are written with 17 significant digits ('%.17g'), enough to
round-trip IEEE doubles, so identical inputs produce byte-identical
files. Headers are '#'-prefixed ``key = value`` lines and machine
parseable.
"""

from __future__ import annotations

import io
from typing import Iterable, Mapping, Sequence

SCHEMA = "squeeze-dyn/1"


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


def write_csv(
    fp: io.TextIOBase,
    kind: str,
    params: Mapping[str, object],
    columns: Sequence[str],
    rows: Iterable[Sequence[float]],
) -> None:
    write_header(fp, kind, params)
    fp.write(",".join(columns) + "\n")
    # one format per row writes the same bytes as ``fmt`` per cell: '%g'
    # converts each number with float() itself
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    for row in rows:
        fp.write(line % tuple(row))


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
