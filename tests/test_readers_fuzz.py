"""Property tests: on any text, every file reader returns or raises ParseError,
the bulk table parse agrees with the field-by-field one, and `cascfluor fit
slope` exits with one of its documented codes."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cascfluor.cli import main  # noqa: E402
from cascfluor.fit import read_report_csv, read_series  # noqa: E402
from cascfluor.table import (ParseError, parse_field, read_records, read_rows,  # noqa: E402
                             read_table)
from cascfluor.timetag import read_config, read_timetags  # noqa: E402

# Pieces of the formats, so that the text often comes near a valid file.
TOKENS = st.sampled_from([
    "\n", ",", "#", "=", " ", "x,y\n", "x,y,yerr\n", "name,value,sigma\n",
    "run_id,arrival_ns\n", "# k=1\n", "# k=1\nrun_id,arrival_ns\n", "a,b\n1,-2\n+3,4\n",
    "x", "y", "yerr", "width", "residual_norm",
    "converged", "iterations", "runs", "tick", "seed", "cap", "0", "1", "-2", "3.9",
    "0.5", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "1_0", "9" * 20,
])
# ...or a well-formed series of any floats, extreme and non-finite ones included.
SERIES = st.lists(st.tuples(st.floats(), st.floats()), max_size=8).map(
    lambda rows: "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
TEXT = st.one_of(st.text(), st.lists(st.one_of(TOKENS, st.text(max_size=3))).map("".join),
                 SERIES)


def read_int_table(path):
    return read_records(path, dtype=np.int64)


READERS = [read_table, read_int_table, read_series, read_report_csv, read_timetags,
           read_config]


def with_file(text, action):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text, encoding="utf-8")
        return action(path, Path(tmp))


@pytest.mark.parametrize("reader", READERS, ids=lambda r: r.__name__)
@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(TEXT)
def test_reader_returns_or_raises_parse_error(reader, text):
    try:
        with_file(text, lambda path, _: reader(path))
    except ParseError:
        pass


# Rows near the field rule's edges: digits, signs, points, exponents, padding,
# separators, line ends, and any other character.
ROWS = st.lists(st.one_of(st.sampled_from(list("0123456789+-.eE_ ,\n\t\r\x0b\x1c\xa0") + [
    "\u3000", "\u0663", "\U0005a293", "nan", "inf"]), st.characters(exclude_categories=("Cs",))),
    max_size=40).map("".join)


def outcome(read):
    try:
        return read()
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("dtype", [float, np.int64], ids=["float", "int64"])
@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(["a,b\n", "# k=1\na,b\n", "a\n"]), ROWS)
@hypothesis.example("a,b\n", "5,\U0005a293\n6,7\n")
def test_bulk_read_agrees_with_field_by_field(dtype, head, body):
    def both(path, _):
        def bulk():
            meta, rows = read_records(path, dtype=dtype)
            return meta, rows.tolist()

        def field_by_field():
            meta, _, rows = read_rows(path)
            return meta, [tuple(parse_field(v, path, n, dtype) for v in fields)
                          for n, fields in rows]

        return outcome(bulk), outcome(field_by_field)

    bulk, reference = with_file(head + body, both)
    assert bulk == reference


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(TEXT)
@hypothesis.example("x,y\n0,1\n1,3\n2,5\n")
@hypothesis.example("x,y\n1,1e308\n2,-1e308\n3,1e308\n")
def test_fit_slope_exits_with_a_documented_code(text):
    code = with_file(text, lambda path, tmp: main(
        ["fit", "slope", "--data", str(path), "--out", str(tmp / "out")]))
    assert code in (0, 2, 3, 4, 5)
