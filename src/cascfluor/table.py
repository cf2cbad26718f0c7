"""The toolkit's one table format and its one parse error.

A table is optional '# key=value' metadata lines, a header of column
names, then comma-separated rows; a fully empty line is skipped, a
whitespace-only one is an error. All-integer columns (the time tags) are
written as str writes an int, their digits formatted in numpy, and read as
int64; other tables are written with %.17g, so every float reads back bit
for bit. Every number read obeys np.loadtxt's field rule:
ASCII digits with optional padding and sign, and for a float also a point,
an exponent, or nan or inf spelled out. A float must be finite unless the
caller allows infinity; an integer must fit int64. Every file the
package reads or writes is opened here, the run configuration too. A file
read may end its lines in LF, CRLF or CR, and every reader names the first
bad line, whatever is wrong with it, bytes that are not UTF-8 included.
read_records checks a reader's own rules in the field rule's pass: no
metadata and no negative value in time tags, no yerr <= 0 in a series.
Every write formats bytes and goes through one binary write, so lines end
in LF alone on every platform. Numeric tables have one writer,
write_blocks: it takes the rows as an iterable of column blocks, which may
be drawn as they are written, and formats them _WRITE_BLOCK_ROWS at a
time; write_table is its one-block case.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import warnings

import numpy as np

# Rows formatted at a time: a write gathers the rows of consecutive column
# blocks, such as the 1500-row runs of an acquisition, and slices a larger
# block, to this many. Writing the default acquisition's 120 runs took
# 13 ms and peaked at 0.8 MB (tracemalloc) in blocks of 8192 rows, 24 ms
# and 0.15 MB run by run, and 12-14 ms but 1.6-3.1 MB in blocks of 16,384
# and 32,768 rows (2-vCPU host, numpy 2.4); formatting all 180,000 rows in
# one pass was slower still, as every large array is faulted in afresh. A
# block of three int64 columns of 20 digits and a sign peaks at about 2.4 MB.
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


def read_lines(path):
    """(lineno, line) pairs of the UTF-8 text file at path, each line ended
    by LF whichever of LF, CRLF or CR the file uses; a line holding bytes
    that are not UTF-8 is a ParseError when it is reached, not before."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            # a byte that is not UTF-8 is held as a lone surrogate
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(
                        f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
            yield lineno, line


def _read_head(lines, path, headers, meta_error):
    """(meta, columns) from the first of read_lines' lines; a metadata line
    is a ParseError with message meta_error if one is given."""
    meta: dict[str, float] = {}
    lineno = 0
    for lineno, line in lines:
        if not line.startswith("#"):
            break
        if meta_error:
            raise ParseError(f"{path}:{lineno}: {meta_error}")
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
    return meta, columns


def read_rows(path, headers: tuple[str, ...] | None = None, meta_error=None):
    """Read a table as (meta, columns, rows): float metadata, the column names
    and an iterator of (lineno, stripped fields) pairs; headers lists valid
    headers, meta_error is as in read_records. The iterator reads each row,
    and checks its bytes and field count, only when it gets there, so a
    caller that parses each row before taking the next names the first bad
    line."""
    lines = read_lines(path)
    meta, columns = _read_head(lines, path, headers, meta_error)

    def rows():
        for lineno, line in lines:
            if line != "\n":
                fields = line.rstrip("\n").split(",")
                if len(fields) != len(columns):
                    raise ParseError(f"{path}:{lineno}: expected {len(columns)} fields, "
                                     f"got {len(fields)}")
                yield lineno, [v.strip() for v in fields]
    return meta, columns, rows()


def read_records(path, headers: tuple[str, ...] | None = None, dtype=float,
                 meta_error: str | None = None, row_rule: tuple | None = None):
    """Read a table of dtype (float or np.int64) as (meta, rows): float
    metadata and a structured array with one field per column. A reader's
    own rules are checked in the same pass as the field rule, so the error
    names the first line that breaks any rule. meta_error, if given, refuses
    metadata lines and is the message of the first; row_rule, if given, is
    a pair (bad, message): bad tells whether any row of a parsed (rows,
    columns) array breaks the rule, and message, a str.format template over
    a row's stripped fields, is the error at the first row that does."""
    meta, columns, rows = read_rows(path, headers, meta_error)
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
                              skiprows=len(meta) + 1, encoding="utf-8")
    # each check is one reduction over the values; an int64 is always finite
    if (data is None or data.shape[1] != len(columns) or (row_rule and row_rule[0](data))
            or (dtype is float and not np.isfinite(data).all())):
        # parse field by field, to name the first bad line
        records = []
        for n, fields in rows:
            records.append([parse_field(v, path, n, dtype) for v in fields])
            if row_rule and row_rule[0](np.array(records[-1:], dtype)):
                raise ParseError(f"{path}:{n}: {row_rule[1].format(*fields)}")
        data = np.array(records, dtype).reshape(-1, len(columns))
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
    The one-block case of write_blocks."""
    write_blocks(path, list(columns), [list(columns.values())], meta)


def write_blocks(path, names, blocks, meta: dict | None = None) -> None:
    """Write the columns named names, metadata first, from an iterable of
    column blocks, each a sequence of equal-length columns: the rows of one
    block follow those of the one before. blocks may be lazy, such as the
    runs of an acquisition drawn one at a time: they are taken one by one
    and written _WRITE_BLOCK_ROWS rows at a time, so memory holds the blocks
    of one such stretch, not the table. Rows of integer columns are written
    as str gives each value, any other as %.17g."""
    head = ("".join(f"# {k}={float(v):.17g}\n" for k, v in (meta or {}).items())
            + ",".join(names) + "\n")
    _write_bytes(path, itertools.chain([head.encode("utf-8")],
                                       map(_format_rows, _row_blocks(blocks))))


def _row_blocks(blocks):
    """The rows of consecutive column blocks, cut into blocks of
    _WRITE_BLOCK_ROWS rows but for the last: small blocks are gathered, a
    large one is sliced."""
    pending, rows = [], 0
    for block in blocks:
        pending.append([np.asarray(a) for a in block])
        rows += len(pending[-1][0])
        if rows < _WRITE_BLOCK_ROWS:
            continue
        columns = _joined(pending)
        whole = rows - rows % _WRITE_BLOCK_ROWS
        # the gathered blocks are let go before their rows are formatted
        pending, rows = [[a[whole:] for a in columns]], rows - whole
        for start in range(0, whole, _WRITE_BLOCK_ROWS):
            yield [a[start:start + _WRITE_BLOCK_ROWS] for a in columns]
    if rows:
        columns, pending = _joined(pending), None  # let go of them here too
        yield columns


def _joined(blocks):
    """The columns of consecutive blocks, joined; one block as it is."""
    return blocks[0] if len(blocks) == 1 else [np.concatenate(c) for c in zip(*blocks)]


def _format_rows(block) -> bytes:
    """The rows of a block of columns as bytes: integers by _int_block,
    others as floats by bytes % tuple, which gives the digits of str % tuple."""
    if all(np.issubdtype(a.dtype, np.integer) for a in block):
        return _int_block(block)
    row = (b",".join([b"%.17g"] * len(block)) + b"\n") * len(block[0])
    return row % tuple(np.column_stack([a.astype(float) for a in block]).ravel().tolist())


def _int_block(block) -> bytes:
    """The rows of equal-length integer columns as bytes, each value as str
    gives it. Every row is laid out in one row of a uint8 text array: per
    column a sign cell if the block holds a negative value, then as many
    digit cells, right-aligned, as its largest magnitude has digits, then
    a comma (the last column a newline). A keep-mask marks the sign of a
    negative value, every digit at or below a value's leading digit and
    the separators; the kept cells, read row by row, are the text."""
    fields = []
    for a in block:
        if a.dtype.kind == "u":
            neg, mag = None, a.astype(np.uint64)
        else:
            a = a.astype(np.int64)
            neg = a < 0
            # the magnitude as uint64: int64 min negates to itself, 2**63
            mag = np.negative(a, out=a, where=neg).view(np.uint64)
            neg = neg if neg.any() else None
        top = int(mag.max())
        # 32-bit division is faster where every magnitude fits
        fields.append((neg, mag if top >> 32 else mag.astype(np.uint32), len(str(top))))
    text = np.empty((len(block[0]), sum(n + 1 + (neg is not None) for neg, _, n in fields)),
                    np.uint8)
    keep = np.ones(text.shape, bool)
    cell = 0
    for neg, q, digits in fields:
        if neg is not None:
            text[:, cell] = ord("-")
            keep[:, cell] = neg
            cell += 1
        cell += digits
        for k in range(1, digits + 1):
            # a scalar // is several times faster than %; the digit's + 48
            # on the contiguous array beats one on the strided column
            rest = q // 10
            digit = q - 10 * rest
            digit += ord("0")
            text[:, cell - k] = digit
            if k > 1:
                keep[:, cell - k] = q != 0  # anything left at or above it
            q = rest
        text[:, cell] = ord(",")
        cell += 1
    text[:, -1] = ord("\n")
    return text[keep].tobytes()
