"""Property tests: on any text, every file reader returns or raises ParseError,
and `cascfluor fit slope` exits with one of its documented codes."""

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cascfluor.cli import main  # noqa: E402
from cascfluor.fit import read_report_csv, read_series  # noqa: E402
from cascfluor.table import ParseError, read_table  # noqa: E402
from cascfluor.timetag import read_config, read_timetags  # noqa: E402

# Pieces of the formats, so that the text often comes near a valid file.
TOKENS = st.sampled_from([
    "\n", ",", "#", "=", " ", "x,y\n", "x,y,yerr\n", "name,value,sigma\n",
    "run_id,arrival_ns\n", "# k=1\n", "x", "y", "yerr", "width", "residual_norm",
    "converged", "iterations", "runs", "tick", "seed", "cap", "0", "1", "-2", "3.9",
    "0.5", "1e308", "-1e308", "5e-324", "nan", "inf", "-inf", "1_0", "9" * 20,
])
# ...or a well-formed series of any floats, extreme and non-finite ones included.
SERIES = st.lists(st.tuples(st.floats(), st.floats()), max_size=8).map(
    lambda rows: "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in rows))
TEXT = st.one_of(st.text(), st.lists(st.one_of(TOKENS, st.text(max_size=3))).map("".join),
                 SERIES)
READERS = [read_table, read_series, read_report_csv, read_timetags, read_config]


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


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(TEXT)
@hypothesis.example("x,y\n0,1\n1,3\n2,5\n")
@hypothesis.example("x,y\n1,1e308\n2,-1e308\n3,1e308\n")
def test_fit_slope_exits_with_a_documented_code(text):
    code = with_file(text, lambda path, tmp: main(
        ["fit", "slope", "--data", str(path), "--out", str(tmp / "out")]))
    assert code in (0, 2, 3, 4, 5)
