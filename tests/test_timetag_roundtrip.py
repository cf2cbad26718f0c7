"""Property test: any int64 time-tag array survives a write/read round trip."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cascfluor.timetag import TIMETAG_DTYPE, read_timetags, write_timetags  # noqa: E402

INT64 = st.integers(-2**63, 2**63 - 1)


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(st.lists(st.tuples(INT64, INT64)))
@hypothesis.example([])
def test_timetag_roundtrip_any_int64(rows):
    tags = np.array(rows, dtype=TIMETAG_DTYPE)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tags.csv"
        write_timetags(path, tags)
        back = read_timetags(path)
    assert back.dtype == TIMETAG_DTYPE
    assert np.array_equal(back, tags)
