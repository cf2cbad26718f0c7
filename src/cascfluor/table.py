"""The toolkit's one table format and its one parse error.

A table is optional '# key=value' metadata lines, a header of column
names, then comma-separated rows; a fully empty line is skipped, a
whitespace-only one is an error. All-integer columns (the time tags) are
written with %d and read as int64, other tables with %.17g, so every float
reads back bit for bit. Every number read obeys np.loadtxt's field rule:
ASCII digits with optional padding and sign, and for a float also a point,
an exponent, or nan or inf spelled out. A float must be finite unless the
caller allows infinity; an integer must fit int64. Every file the
package reads or writes is opened here, the run configuration too; every
write formats bytes and goes through one binary write, so lines end in LF
alone on every platform.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import warnings

import numpy as np

# Rows formatted per write, so the text held at once stays under 1 MB.
_WRITE_BLOCK_ROWS = 8192


class ParseError(ValueError):
    """Malformed input file; the message starts with path:lineno."""


def parse_field(text: str, path, lineno: int, dtype=float, allow_inf: bool = False):
    """One field of line lineno as dtype (float or np.int64) by the field
    rule; NaN, and inf unless allowed, are errors."""
    field = text.strip()
    try:
        # int() and float() also take digit separators and non-ASCII digits
        if not field.isascii() or "_" in field:
            raise ValueError
        value = dtype(field)
    except (ValueError, OverflowError):
        kind = "an int64" if dtype is np.int64 else "a number"
        raise ParseError(f"{path}:{lineno}: not {kind}: '{text}'") from None
    if not math.isfinite(value) and (math.isnan(value) or not allow_inf):
        raise ParseError(f"{path}:{lineno}: non-finite value '{text}'")
    return value


@contextlib.contextmanager
def _open_utf8(path):
    """Open path as UTF-8 text; bytes that are not raise ParseError at their line."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError as exc:
        # text is decoded in blocks, so the line is found in the raw bytes
        with open(path, "rb") as f:
            for lineno, line in enumerate(f, start=1):
                if line.decode("utf-8", "ignore").encode("utf-8") != line:
                    raise ParseError(
                        f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
        raise


def _read_head(f, path, headers):
    """(meta, columns, header lineno) from the first lines of open file f."""
    meta: dict[str, float] = {}
    lineno = 0
    for lineno, line in enumerate(f, start=1):
        if not line.startswith("#"):
            break
        key, sep, value = line[1:].partition("=")
        key = key.strip()
        if not sep or not key or key in meta:
            raise ParseError(f"{path}:{lineno}: bad metadata line '{line.strip()}'")
        meta[key] = parse_field(value, path, lineno)
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
    return meta, columns, lineno


def read_rows(path, headers: tuple[str, ...] | None = None):
    """Read a table as (meta, columns, rows): float metadata, the column names
    and an iterator of (lineno, stripped fields) pairs; headers lists valid
    headers. The iterator checks each row's field count only when it gets
    there, so a caller that parses each row before taking the next names
    the first bad line."""
    with _open_utf8(path) as f:
        meta, columns, head_lineno = _read_head(f, path, headers)
        lines = f.readlines()

    def rows():
        for lineno, line in enumerate(lines, start=head_lineno + 1):
            if line != "\n":
                fields = line.rstrip("\n").split(",")
                if len(fields) != len(columns):
                    raise ParseError(f"{path}:{lineno}: expected {len(columns)} fields, "
                                     f"got {len(fields)}")
                yield lineno, [v.strip() for v in fields]
    return meta, columns, rows()


def read_records(path, headers: tuple[str, ...] | None = None, dtype=float):
    """Read a table of dtype (float or np.int64) as (meta, rows): float
    metadata and a structured array with one field per column."""
    with _open_utf8(path) as f:
        meta, columns, lineno = _read_head(f, path, headers)
    with open(path, "rb") as f:
        # numpy's integer parser misreads, and can crash on, non-ASCII text
        ascii_only = all(block.isascii() for block in iter(lambda: f.read(1 << 20), b""))
    data = None
    if ascii_only:
        # a warning is a failure too: loadtxt warns on a table without rows,
        # and older numpy on an integer column holding a float. Given the
        # path, not an open file, loadtxt reads in blocks instead of lines.
        with contextlib.suppress(ValueError, Warning), warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(path, dtype, delimiter=",", comments=None, ndmin=2,
                              skiprows=lineno, encoding="utf-8")
    if data is None or data.shape[1] != len(columns) or not np.isfinite(data).all():
        # parse field by field, to name the first bad line
        meta, columns, rows = read_rows(path, headers)
        data = np.array([[parse_field(v, path, n, dtype) for v in fields]
                         for n, fields in rows], dtype).reshape(-1, len(columns))
    return meta, data.view([(c, dtype) for c in columns])[:, 0]


def read_table(path, headers: tuple[str, ...] | None = None) -> tuple[dict, dict]:
    """Read a table of finite floats; returns (meta, {column: array})."""
    meta, rows = read_records(path, headers)
    return meta, {k: rows[k] for k in rows.dtype.names}


def _write_bytes(path, chunks) -> None:
    """Write byte strings to path, one after another: the one file write."""
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)


def write_lines(path, lines) -> None:
    """Write lines of text as UTF-8, each ended by a newline."""
    _write_bytes(path, ["".join(line + "\n" for line in lines).encode("utf-8")])


def write_rows(path, columns, rows) -> None:
    """Write the header, then rows of str or numeric fields."""
    write_lines(path, (",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row)
                       for row in [columns, *rows]))


def write_table(path, columns: dict, meta: dict | None = None) -> None:
    """Write named numeric columns, metadata first; lossless for read_records.
    An all-integer table has each stretch of equal first-column values
    written into the row format as literal text."""
    arrays = [np.asarray(v) for v in columns.values()]
    ints = all(np.issubdtype(a.dtype, np.integer) for a in arrays)
    arrays = arrays if ints else [a.astype(float) for a in arrays]
    head = ("".join(f"# {k}={float(v):.17g}\n" for k, v in (meta or {}).items())
            + ",".join(columns) + "\n")
    _write_bytes(path, itertools.chain([head.encode("utf-8")], _row_blocks(arrays, ints)))


def _row_blocks(arrays, ints: bool):
    """The rows of the columns in arrays as bytes, _WRITE_BLOCK_ROWS at a time;
    bytes % tuple gives the digits of str % tuple."""
    for start in range(0, len(arrays[0]), _WRITE_BLOCK_ROWS):
        block = [a[start:start + _WRITE_BLOCK_ROWS] for a in arrays]
        if ints:
            lead = block.pop(0)
            cuts = [0, *(np.flatnonzero(lead[1:] != lead[:-1]) + 1).tolist(), len(lead)]
            tail = b",%d" * len(block) + b"\n"
            row = b"".join((b"%d" % int(lead[lo]) + tail) * (hi - lo)
                           for lo, hi in zip(cuts, cuts[1:]))
        else:
            row = (b",".join([b"%.17g"] * len(block)) + b"\n") * len(block[0])
        values = np.column_stack(block).ravel().tolist() if block else []
        yield row % tuple(values)
