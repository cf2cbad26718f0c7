"""Property tests: any non-negative int64 time-tag array survives a write/read
round trip and a negative value is a ParseError at its line, and the int64
floor of a non-negative arrival to the tick equals the float floor."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cascfluor.table import ParseError  # noqa: E402
from cascfluor.timetag import TIMETAG_DTYPE, read_timetags, write_timetags  # noqa: E402

NON_NEGATIVE = st.integers(0, 2**63 - 1)
# where a negative value goes: row (modulo the row count), column, value
NEGATIVE = st.tuples(st.integers(0), st.integers(0, 1), st.integers(-2**63, -1))


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(st.lists(st.tuples(NON_NEGATIVE, NON_NEGATIVE)),
                  st.one_of(st.none(), NEGATIVE))
@hypothesis.example([], None)
def test_timetag_roundtrip_any_int64(rows, negative):
    tags = np.array(rows, dtype=TIMETAG_DTYPE)
    if negative and rows:
        row, column, value = negative
        tags[row % len(rows)][column] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tags.csv"
        write_timetags(path, tags)
        if negative and rows:
            with pytest.raises(ParseError, match=f":{row % len(rows) + 2}: negative"):
                read_timetags(path)
            return
        back = read_timetags(path)
    assert back.dtype == TIMETAG_DTYPE
    assert np.array_equal(back, tags)


# Arrivals below 2**53, where float64 holds every integer exactly, among them
# multiples of the tick and the float just below one, whose floor is a tick lower.
ARRIVALS = st.floats(0.0, 2.0**53, exclude_max=True, allow_nan=False)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.integers(1, 50), st.data())
def test_int64_tick_floor_equals_the_float_floor(tick, data):
    multiples = st.integers(1, 2**53 // tick - 1).map(lambda k: float(k * tick))
    below = multiples.map(lambda m: float(np.nextafter(m, 0.0)))
    x = np.array(data.draw(st.lists(st.one_of(ARRIVALS, multiples, below), max_size=20)),
                 dtype=float)
    ticks = x.astype(np.int64)
    ticks //= tick
    ticks *= tick
    assert np.array_equal(ticks, (x // tick).astype(np.int64) * tick)
