"""The one table codec: its rules, its error type, and a byte-for-byte round
trip of every table the command line writes."""

import numpy as np
import pytest

import cascfluor.cli
import cascfluor.fit
import cascfluor.timetag
from cascfluor.cli import main
from cascfluor.fit import (DataSeries, lorentzian, read_report_csv, read_series,
                           write_report_csv, write_series)
from cascfluor.table import ParseError, read_table, write_table
from cascfluor.timetag import RunConfig, write_config


def test_one_error_type_and_one_reader():
    assert cascfluor.timetag.ParseError is ParseError
    assert cascfluor.fit.DataParseError is ParseError
    assert cascfluor.cli.read_table is read_table
    assert cascfluor.cli.write_table is write_table


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
    **{f"reproduce_{fig}": f"reproduce {fig} --seed 7" for fig in cascfluor.cli.FIGURES},
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
