"""The one table codec: its rules, its error type, and a byte-for-byte round
trip of every table the command line writes."""

import math

import numpy as np
import pytest

import cascfluor.cli
import cascfluor.fit
import cascfluor.timetag
from cascfluor.cli import main
from cascfluor.fit import (DataSeries, FitResult, lorentzian, read_report_csv, read_series,
                           write_report_csv, write_series)
from cascfluor.table import (_WRITE_BLOCK_ROWS, ParseError, read_records, read_table,
                             write_blocks, write_table)
from cascfluor.timetag import (RunConfig, histogram, read_config, read_timetags, simulate_run,
                               write_config)
from reference_timetag import reference_write


def test_one_error_type_and_one_codec():
    assert cascfluor.timetag.ParseError is ParseError
    assert cascfluor.fit.ParseError is ParseError
    assert not hasattr(cascfluor.fit, "DataParseError")
    assert cascfluor.cli.read_table is read_table
    assert cascfluor.cli.write_table is write_table
    assert cascfluor.timetag.read_records is read_records
    assert cascfluor.timetag.write_blocks is write_blocks


# Line 3 of a float table, a time-tag file, a fit report and a config (an
# int field) holds the field, or is a whitespace-only row: (field, read as a
# float, read as an int64).
FIELDS = [
    pytest.param("1_000", False, False, id="digit_separator"),
    pytest.param("\u0663", False, False, id="non_ascii_digit"),
    pytest.param("5\x1c", True, True, id="trailing_unit_separator"),
    pytest.param("\xa05", True, True, id="leading_no_break_space"),
    pytest.param(" 5", True, True, id="leading_space"),
    pytest.param("+5", True, True, id="plus_sign"),
    pytest.param("9" * 20, True, False, id="beyond_int64"),
    pytest.param("nan", False, False, id="nan"),
    pytest.param("inf", False, False, id="inf"),
    pytest.param(None, False, False, id="whitespace_only_row"),
]


@pytest.mark.parametrize("field, as_float, as_int", FIELDS)
def test_one_field_rule_for_every_reader(tmp_path, field, as_float, as_int):
    def row(template):
        return " \t " if field is None else template.format(field)

    cases = [
        (read_table, "x,y\n1,2\n" + row("1,{}") + "\n", as_float),
        (read_timetags, "run_id,arrival_ns\n0,5\n" + row("0,{}") + "\n", as_int),
        (read_report_csv, "name,value,sigma\na,1,0\n" + row("b,{},0")
         + "\nresidual_norm,0,\nconverged,1,\niterations,3,\n", as_float),
        # a config skips a blank line, whitespace only or not
        (read_config, "runs = 3\n# note\n" + row("seed = {}") + "\n", as_int or field is None),
    ]
    path = tmp_path / "data.csv"
    for reader, text, accepted in cases:
        path.write_text(text, encoding="utf-8")
        if not accepted:
            with pytest.raises(ParseError, match="data.csv:3: "):
                reader(path)
            continue
        reader(path)
        # a bad last row makes the bulk readers parse field by field, and
        # that parse must accept line 3 too
        path.write_text(text + "zzz\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"data.csv:{text.count(chr(10)) + 1}: "):
            reader(path)


# Byte 0xff, which no UTF-8 text holds, in each kind of line; text is
# decoded in blocks, so one case puts it past the first block.
NOT_UTF8 = [
    pytest.param(read_table, b"x,y\n1,2\n1,\xff3\n", 3, id="data_row"),
    pytest.param(read_table, b"x,y\n" + b"1,2\n" * 5000 + b"1,\xff\n", 5002, id="late_row"),
    pytest.param(read_table, b"x,\xffy\n1,2\n", 1, id="header"),
    pytest.param(read_table, b"# k=1\n# j=\xff2\nx,y\n1,2\n", 2, id="metadata_line"),
    pytest.param(read_timetags, b"run_id,arrival_ns\n0,5\n0,\xff\n", 3, id="timetag_row"),
    pytest.param(read_config, b"seed = 1\n# note\nruns = \xff3\n", 3, id="config_line"),
]
# the same cases with lines ended by CRLF and by CR
NOT_UTF8 += [pytest.param(reader, data.replace(b"\n", newline), lineno, id=f"{c.id}-{name}")
             for c in NOT_UTF8 for reader, data, lineno in [c.values]
             for name, newline in (("crlf", b"\r\n"), ("cr", b"\r"))]


@pytest.mark.parametrize("reader, data, lineno", NOT_UTF8)
def test_non_utf8_byte_is_a_parse_error_at_its_line(tmp_path, reader, data, lineno):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"data.csv:{lineno}: not UTF-8"):
        reader(path)


# A bad line followed by a line holding byte 0xff: the first one is named.
# A wrong header, a field that is not a number, a negative time tag or
# sigma, each before the bad byte; and the bad byte itself in a CR-ended file.
FIRST_BAD_LINE = [
    pytest.param(read_series, b"x,y\n1,2\n1,abc\n1,\xff\n", "3: not a number",
                 id="series_field"),
    pytest.param(read_series, b"x,z\n1,\xff\n", "1: expected header", id="series_header"),
    pytest.param(read_timetags, b"run_id,arrival_ns\n0,-1\n0,\xff\n", "2: negative",
                 id="negative_timetag"),
    pytest.param(read_series, b"x,y,yerr\n0,1,1\n1,2,0\n2,abc,1\n", "3: yerr must be > 0",
                 id="zero_yerr_then_field"),
    pytest.param(read_timetags, b"# a=1\nrun_id,arrival_ns\n0,abc\n",
                 "1: time tags take no metadata lines", id="timetag_metadata_then_field"),
    pytest.param(read_timetags, b"run_id,arrival_ns\n0,abc\n0,-1\n", "2: not an int64",
                 id="timetag_field_then_negative"),
    pytest.param(read_report_csv, b"name,value,sigma\na,1,-1\nb,\xff,1\n", "2: out of range",
                 id="negative_sigma"),
    pytest.param(read_table, b"x,y\r1,2\r1,\xff3\r", "3: not UTF-8", id="cr_table"),
    pytest.param(read_config, b"runs = 3\rseed = \xff\r", "2: not UTF-8", id="cr_config"),
]


@pytest.mark.parametrize("reader, data, message", FIRST_BAD_LINE)
def test_reader_names_the_first_bad_line(tmp_path, reader, data, message):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"data.csv:{message}"):
        reader(path)


def str_table(columns, meta=None) -> bytes:
    """The bytes write_table writes, formatted value by value with str.format:
    integers as {}, any other table as {:.17g}, lines ended by LF alone."""
    arrays = [np.asarray(v) for v in columns.values()]
    ints = all(np.issubdtype(a.dtype, np.integer) for a in arrays)
    fmt, cast = ("{}", int) if ints else ("{:.17g}", float)
    lines = [f"# {k}={float(v):.17g}" for k, v in (meta or {}).items()]
    lines.append(",".join(columns))
    lines += [",".join(fmt.format(cast(v)) for v in row)
              for row in zip(*(a.tolist() for a in arrays))]
    return "".join(line + "\n" for line in lines).encode("utf-8")


@pytest.mark.parametrize("rows", [0, 1, _WRITE_BLOCK_ROWS - 1, _WRITE_BLOCK_ROWS,
                                  _WRITE_BLOCK_ROWS + 1])
@pytest.mark.parametrize("integer", [True, False], ids=["int", "float"])
def test_blockwise_write_matches_one_shot(tmp_path, rows, integer):
    rng = np.random.default_rng(rows)
    a = rng.integers(0, 120, rows)
    b = rng.integers(-2**40, 2**40, rows) * (1 if integer else np.pi)
    path = tmp_path / "table.csv"
    write_table(path, {"a": a, "b": b})
    assert path.read_bytes() == str_table({"a": a, "b": b})
    if integer:
        back = read_records(path, dtype=np.int64)[1]
        assert np.array_equal(back["a"], a) and np.array_equal(back["b"], b)


@pytest.mark.parametrize("sizes", [
    pytest.param([], id="no_blocks"),
    pytest.param([0], id="one_empty_block"),
    pytest.param([1500] * 13, id="runs"),
    pytest.param([0, 3, _WRITE_BLOCK_ROWS, 0, 1, _WRITE_BLOCK_ROWS - 1,
                  2 * _WRITE_BLOCK_ROWS + 5, 7], id="mixed"),
    pytest.param([3 * _WRITE_BLOCK_ROWS + 2], id="one_large"),
])
@pytest.mark.parametrize("integer", [True, False], ids=["int", "float"])
def test_blocks_write_as_their_concatenation(tmp_path, sizes, integer):
    # the blocks are gathered and sliced into blocks of their own, whose
    # bytes do not depend on where the given blocks end
    rng = np.random.default_rng(len(sizes))
    ends = np.cumsum(sizes, dtype=int)
    a = rng.integers(0, 120, ends[-1] if sizes else 0)
    b = rng.integers(-2**40, 2**40, len(a)) * (1 if integer else np.pi)
    starts = ends - sizes
    path = tmp_path / "table.csv"
    write_blocks(path, ["a", "b"], ((a[i:j], b[i:j]) for i, j in zip(starts, ends)),
                 {"bin_ns": 5})
    assert path.read_bytes() == str_table({"a": a, "b": b}, {"bin_ns": 5})


SUBNORMAL_MIN, NORMAL_MIN, FLOAT_MAX = 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308


@pytest.mark.parametrize("columns, meta", [
    pytest.param({"x": [-0.0, 0.0, SUBNORMAL_MIN, -SUBNORMAL_MIN, 0.1],
                  "y": [NORMAL_MIN, -NORMAL_MIN, FLOAT_MAX, -FLOAT_MAX, -0.1]},
                 {"neg_zero": -0.0, "tiny": SUBNORMAL_MIN, "huge": FLOAT_MAX, "tenth": 0.1},
                 id="extreme_floats"),
    pytest.param({"x": [1.0, -3.0, 2.0**53, 2.0**53 + 2.0, 1e16, 1e22],
                  "y": [0.0, 100.0, 600.0, 123456789.0, 2.0**63, -1e300]},
                 {"bin_ns": 5, "period_ns": 600.0}, id="integral_floats"),
    pytest.param({"count": np.arange(4), "ratio": [0.1, 0.25, 1 / 3, 2 / 3]}, None,
                 id="int_and_float_columns"),
    pytest.param({"\u0394_MHz": [0.1, -0.2], "\u00b5s": [0.3, 1.0]}, {"s\u2080": 0.4},
                 id="non_ascii_names"),
])
def test_float_write_matches_str_format(tmp_path, columns, meta):
    path, again = tmp_path / "table.csv", tmp_path / "again.csv"
    write_table(path, columns, meta)
    assert path.read_bytes() == str_table(columns, meta)
    back_meta, back = read_table(path)
    write_table(again, back, back_meta)
    assert again.read_bytes() == path.read_bytes()


def test_report_write_matches_str_format(tmp_path):
    # an infinite sigma (the zero-absorption fallback), empty sigma fields and
    # a parameter name outside ASCII
    params = {"width": 6.7, "\u03b1": -0.0, "shift": SUBNORMAL_MIN}
    sigmas = {"width": math.inf, "\u03b1": 0.1, "shift": FLOAT_MAX}
    path, again = tmp_path / "report.csv", tmp_path / "again.csv"
    write_report_csv(path, FitResult(params, sigmas, 0.1, True, 12))
    expected = "name,value,sigma\n" + "".join(
        f"{name},{value:.17g},{sigmas[name]:.17g}\n" for name, value in params.items())
    expected += "residual_norm,0.10000000000000001,\nconverged,1,\niterations,12,\n"
    assert path.read_bytes() == expected.encode("utf-8")
    assert b"width,6.7000000000000002,inf\n" in path.read_bytes()
    write_report_csv(again, read_report_csv(path))
    assert again.read_bytes() == path.read_bytes()


def test_config_write_matches_str_format(tmp_path):
    cfg = RunConfig(mean_photons_per_pulse=0.1, background_rate=5e-324, seed=7)
    path = tmp_path / "run.cfg"
    write_config(path, cfg)
    assert path.read_bytes() == "".join(
        f"{name} = {value}\n" for name, value in vars(cfg).items()).encode("utf-8")
    assert read_config(path) == cfg


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
# every digit-count boundary of int64: +-(10**k - 1) and +-10**k, and the ends
BOUNDARIES = np.array(sorted({v for k in range(19) for m in (10**k - 1, 10**k) for v in (m, -m)}
                             | {INT64_MIN, INT64_MAX}), np.int64)
B = _WRITE_BLOCK_ROWS


def later_block(rows, at, value):
    """Small int64 values, with value at row at."""
    a = np.arange(rows) % 7
    a[at] = value
    return a


@pytest.mark.parametrize("columns", [
    pytest.param({"run_id": np.repeat([0, 1, 2], [5, 1, 7]),
                  "arrival_ns": np.arange(13) * 5}, id="grouped_runs"),
    pytest.param({"bin_start_ns": np.arange(120) * 5, "count": np.arange(120) % 7},
                 id="one_row_stretches"),
    pytest.param({"a": np.repeat([3, 4], [2 * _WRITE_BLOCK_ROWS + 5, 2]),
                  "b": np.arange(2 * _WRITE_BLOCK_ROWS + 7)}, id="stretch_beyond_block"),
    pytest.param({"a": np.array([INT64_MIN, INT64_MIN, -1, 0, INT64_MAX]),
                  "b": np.array([INT64_MAX, -7, INT64_MIN, 0, -1])}, id="negative_extreme"),
    pytest.param({"a": np.array([-4, -4, 9]), "b": np.array([1, 2, 3]),
                  "c": np.array([INT64_MIN, 0, INT64_MAX])}, id="three_columns"),
    pytest.param({"a": np.array([-3, -3, 8])}, id="one_column"),
    pytest.param({"a": np.zeros(0, np.int64), "b": np.zeros(0, np.int64)}, id="no_rows"),
    pytest.param({"a": BOUNDARIES, "b": BOUNDARIES[::-1], "c": np.roll(BOUNDARIES, 7)},
                 id="digit_boundaries"),
    pytest.param({"a": np.array([0, 1, 9, 10, 99, 100, 255], np.uint8),
                  "b": np.array([255, 100, 10, 0, 9, 99, 1], np.uint8)}, id="uint8"),
    pytest.param({"a": np.array([-128, -100, -99, -10, -9, -1, 0, 1, 9, 10, 99, 100, 127],
                                np.int8)}, id="int8"),
    pytest.param({"a": np.array([-2**31, -10**9, 1 - 10**9, -1, 0, 10**9 - 1, 10**9, 2**31 - 1],
                                np.int32)}, id="int32"),
    pytest.param({"a": np.array([0, 9, 10, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 10**19 - 1,
                                 10**19, 2**64 - 1], np.uint64)}, id="uint64"),
    # a block's width and sign cells change from one block to the next
    pytest.param({"a": later_block(3 * B, 2 * B + 5, INT64_MAX), "b": np.arange(3 * B)},
                 id="widest_in_later_block"),
    pytest.param({"a": np.arange(3 * B), "b": later_block(3 * B, B + 3, -1)},
                 id="first_negative_in_later_block"),
    pytest.param({"a": later_block(2 * B + 1, 4, INT64_MIN),
                  "b": later_block(2 * B + 1, 2 * B, -9)}, id="extremes_in_first_and_last_block"),
])
def test_integer_write_matches_reference(tmp_path, columns):
    written, expected = tmp_path / "table.csv", tmp_path / "reference.csv"
    write_table(written, columns)
    reference_write(expected, columns)
    assert written.read_bytes() == expected.read_bytes() == str_table(columns)
    if all(len(a) == 0 or int(a.max()) <= INT64_MAX for a in columns.values()):
        back = read_records(written, dtype=np.int64)[1]
        assert all(np.array_equal(back[name], a) for name, a in columns.items())


def test_mixed_integer_dtypes_match_str_format(tmp_path):
    columns = {"u8": np.array([255, 0, 7], np.uint8), "i8": np.array([-128, 127, 0], np.int8),
               "i32": np.array([-2**31, 2**31 - 1, 5], np.int32),
               "u64": np.array([2**64 - 1, 0, 2**63], np.uint64),
               "i64": np.array([INT64_MIN, INT64_MAX, -1])}
    path = tmp_path / "table.csv"
    write_table(path, columns)
    assert path.read_bytes() == str_table(columns)


def test_integer_write_matches_str_format_for_random_columns(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = hypothesis.strategies
    path = tmp_path / "table.csv"

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.integers(B - 3, B + 3).flatmap(lambda rows: st.lists(hnp.arrays(
        np.int64, rows, elements=st.integers(INT64_MIN, INT64_MAX)), min_size=1, max_size=3)))
    def check(arrays):
        columns = {f"c{j}": a for j, a in enumerate(arrays)}
        write_table(path, columns)
        assert path.read_bytes() == str_table(columns)
        back = read_records(path, dtype=np.int64)[1]
        assert all(np.array_equal(back[name], a) for name, a in columns.items())

    check()


@pytest.mark.parametrize("seed", [0, 7])
def test_simulate_writes_what_str_format_gives(tmp_path, seed):
    # the default acquisition, 180,000 tags, and its folded histogram
    assert main(["simulate", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    cfg = RunConfig(seed=seed)
    tags = np.concatenate([simulate_run(cfg, run_id) for run_id in range(cfg.runs)])
    hist = histogram(tags, cfg.tick, cfg)
    assert len(tags) == 180_000
    assert (tmp_path / "timetags.csv").read_bytes() == str_table(
        {"run_id": tags["run_id"], "arrival_ns": tags["arrival"]})
    assert (tmp_path / "histogram.csv").read_bytes() == str_table(
        {"bin_start_ns": hist.bin_starts, "count": hist.counts},
        {"bin_ns": hist.bin_ns, "period_ns": hist.period_ns})


@pytest.mark.parametrize("text, lineno", [
    pytest.param("# k=nan\nx,y\n1,2\n", 1, id="meta_nan"),
    pytest.param("# k=inf\nx,y\n1,2\n", 1, id="meta_inf"),
    pytest.param("# comment\nx,y\n1,2\n", 1, id="meta_without_value"),
    pytest.param("# k=1\n# k=2\nx,y\n1,2\n", 2, id="meta_repeated"),
    pytest.param("# k=1\nx,y\n1,nan\n", 3, id="value_nan"),
    pytest.param("x,y\n1,2\n2,inf\n", 3, id="value_inf"),
    pytest.param("x,y\n1,2\n\n2,-inf\n", 4, id="value_minus_inf_after_blank"),
    pytest.param("x,y\n1,a\n", 2, id="value_not_a_number"),
    pytest.param("x,y\n1,2,3\n", 2, id="too_many_fields"),
    pytest.param("x,x\n1,2\n2,3\n", 1, id="column_repeated"),
    pytest.param("x,,y\n1,2,3\n", 1, id="column_unnamed"),
    pytest.param("", 1, id="empty_file"),
    pytest.param("# k=1\n", 2, id="meta_only"),
    pytest.param("\nx,y\n", 1, id="blank_header"),
])
def test_read_table_names_the_bad_line(tmp_path, text, lineno):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"table.csv:{lineno}: "):
        read_table(path)


# a bad value on line 2 ahead of a row with the wrong field count on line 3
FIRST_BAD_LINE = [
    pytest.param(read_table, "x,y\n1,abc\n1,2,3\n", id="table_value"),
    pytest.param(read_timetags, "run_id,arrival_ns\n-1,5\n0,5,6\n", id="timetag_sign"),
    pytest.param(read_report_csv, "name,value,sigma\nwidth,abc,1\nalpha,1\n",
                 id="report_value"),
]


@pytest.mark.parametrize("reader, text", FIRST_BAD_LINE)
def test_the_first_bad_line_is_named(tmp_path, reader, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="data.csv:2: "):
        reader(path)


def test_read_table_header_only_gives_empty_columns(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# k=2.5\nx,y\n")
    meta, cols = read_table(path)
    assert meta == {"k": 2.5}
    assert list(cols) == ["x", "y"] and all(len(c) == 0 for c in cols.values())


# Each command with its arguments; {cfg} and {line} name input files the
# test writes first.
COMMANDS = {
    "simulate": "simulate --config {cfg}",
    "spectrum": "spectrum --s0 0.4 --counts 1500",
    "cascade": "cascade --s0 0.4 --delta 3",
    "ratio_detuning": "ratio --scan detuning --points 31",
    "ratio_power": "ratio --scan power --start 0.25 --stop 8 --points 12",
    # fig4b draws no noise and takes no --seed
    **{f"reproduce_{fig}": f"reproduce {fig}" + (" --seed 7" if fig != "fig4b" else "")
       for fig in cascfluor.cli.FIGURES},
    "fit_lorentzian": "fit lorentzian --data {line} --bootstrap 5",
}


def reread_and_rewrite(src, dst):
    """Read a written table back through its reader and write it again."""
    if src.name == "fit_report.csv" or src.name.endswith("_refit.csv"):
        write_report_csv(dst, read_report_csv(src))
    elif "_points" in src.name:
        write_series(dst, read_series(src))
    else:
        meta, cols = read_table(src)
        write_table(dst, cols, meta)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_written_table_round_trips_byte_for_byte(tmp_path, command):
    cfg, line, out = tmp_path / "run.cfg", tmp_path / "line.csv", tmp_path / "out"
    write_config(cfg, RunConfig(pulses_per_run=300, runs=3, seed=5))
    x = np.linspace(-30.0, 30.0, 31)
    write_series(line, DataSeries(x, lorentzian(x, 1.0, 16.0, 50.0, 3.0) + np.cos(3.0 * x)))
    argv = COMMANDS[command].format(cfg=cfg, line=line).split() + ["--out", str(out)]
    assert main(argv) == 0
    tables = sorted(p for p in out.glob("*.csv") if p.name != "timetags.csv")
    assert tables
    for table in tables:
        again = tmp_path / f"again_{table.name}"
        reread_and_rewrite(table, again)
        assert again.read_bytes() == table.read_bytes(), table.name
