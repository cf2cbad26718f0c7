"""The toolkit's one table format and its one parse error.

A table is optional '# key=value' metadata lines, a header of column
names, then one row per line, all comma-separated; blank rows are skipped.
Numbers are written with %.17g, so every float reads back bit for bit,
and each one read must be finite unless the caller allows infinity.
"""

from __future__ import annotations

import math

import numpy as np


class ParseError(ValueError):
    """Malformed input file; the message starts with path:lineno."""


def parse_float(text: str, path, lineno: int, allow_inf: bool = False) -> float:
    """One numeric field of line lineno; NaN, and inf unless allowed, are errors."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: not a number: '{text}'") from None
    if not math.isfinite(value) and (math.isnan(value) or not allow_inf):
        raise ParseError(f"{path}:{lineno}: non-finite value '{text}'")
    return value


def read_rows(path, headers: tuple[str, ...] | None = None):
    """Read a table as (meta, columns, rows): float metadata, the column
    names, and one (lineno, string fields) pair per row. headers, when
    given, lists the accepted header lines."""
    meta: dict[str, float] = {}
    rows: list[tuple[int, list[str]]] = []
    lineno = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.startswith("#"):
                break
            key, sep, value = line[1:].partition("=")
            key = key.strip()
            if not sep or not key or key in meta:
                raise ParseError(f"{path}:{lineno}: bad metadata line '{line.strip()}'")
            meta[key] = parse_float(value, path, lineno)
        else:
            raise ParseError(f"{path}:{lineno + 1}: missing header")
        header = line.strip()
        columns = header.split(",")
        if headers is not None and header not in headers:
            expected = " or ".join(f"'{h}'" for h in headers)
            raise ParseError(f"{path}:{lineno}: expected header {expected}, got '{header}'")
        if "" in columns or len(set(columns)) < len(columns):
            raise ParseError(f"{path}:{lineno}: missing, empty or duplicate column "
                             f"in '{header}'")
        for lineno, line in enumerate(f, start=lineno + 1):
            if line.strip():
                fields = line.strip().split(",")
                if len(fields) != len(columns):
                    raise ParseError(f"{path}:{lineno}: expected {len(columns)} fields, "
                                     f"got {len(fields)}")
                rows.append((lineno, fields))
    return meta, columns, rows


def read_table(path, headers: tuple[str, ...] | None = None) -> tuple[dict, dict]:
    """Read a table of finite floats; returns (meta, {column: array})."""
    meta, columns, rows = read_rows(path, headers)
    data = np.array([[parse_float(v, path, n) for v in fields] for n, fields in rows])
    data = data.reshape(len(rows), len(columns))
    return meta, {k: data[:, i] for i, k in enumerate(columns)}


def write_rows(path, columns, rows, meta: dict | None = None) -> None:
    """Write metadata, the header, then rows of str or numeric fields."""
    lines = [f"# {k}={float(v):.17g}\n" for k, v in (meta or {}).items()]
    lines.append(",".join(columns) + "\n")
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n")
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(lines))


def write_table(path, columns: dict, meta: dict | None = None) -> None:
    """Write named float columns, metadata first; lossless for read_table."""
    arrays = [np.asarray(v, dtype=float).tolist() for v in columns.values()]
    write_rows(path, list(columns), zip(*arrays), meta)
