"""Command-line interface: outputs, determinism, exit codes."""

import sys
import tracemalloc

import numpy as np
import pytest

import cascfluor.cli
import cascfluor.fit
from cascfluor.cascade import AbsorptionProfile
from cascfluor.cli import REFERENCE_FILTER, build_parser, main, read_table, write_table
from cascfluor.fit import (DataSeries, fit_power_broadening, fit_saturation, fit_shift_slope,
                           lorentzian, read_report_csv, read_series, write_series)
from cascfluor.spectrum import DriveParams
from cascfluor.timetag import RunConfig, read_config, read_timetags, write_config
from pointwise import model_step, one_point_count, one_point_spectrum
from reference_timetag import reference_run, reference_write


def run(args):
    return main([str(a) for a in args])


class TestTableFormat:
    def test_roundtrip_with_meta(self, tmp_path):
        path = tmp_path / "table.csv"
        cols = {"x": np.array([1.0, 2.5]), "y": np.array([-0.25, 1e-17])}
        write_table(path, cols, meta={"alpha": 0.85})
        meta, back = read_table(path)
        assert meta == {"alpha": 0.85}
        np.testing.assert_array_equal(back["x"], cols["x"])
        np.testing.assert_array_equal(back["y"], cols["y"])

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("x,y\n1,2\n3\n")
        assert run(["fit", "slope", "--data", path]) == 3


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_figure(self):
        with pytest.raises(SystemExit) as err:
            main(["reproduce", "fig9"])
        assert err.value.code == 2

    def test_threads_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--threads", "2", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_missing_data_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["fit", "slope", "--out", tmp_path])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        pytest.param(["spectrum", "--s0", "0.4", "--seed", "3"], id="spectrum_seed"),
        pytest.param(["cascade", "--s0", "0.4", "--seed", "3"], id="cascade_seed"),
        pytest.param(["ratio", "--seed", "3"], id="ratio_seed"),
        pytest.param(["fit", "lorentzian", "--data", "x.csv", "--seed", "3"],
                     id="lorentzian_seed"),
        pytest.param(["fit", "lorentzian", "--data", "x.csv", "--fix-width", "3"],
                     id="lorentzian_fix_width"),
        pytest.param(["fit", "cascade", "--original", "o.csv", "--cascaded", "c.csv",
                      "--data", "x.csv"], id="cascade_data"),
    ])
    def test_option_the_command_does_not_use(self, tmp_path, argv):
        # an option a command would ignore is refused before anything runs
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()


def exit_outcome(capsys, call):
    """(exit code, stdout, stderr) of a call that exits through SystemExit."""
    with pytest.raises(SystemExit) as err:
        call()
    out, err_text = capsys.readouterr()
    return err.value.code, out, err_text


class TestParserFastPath:
    """`main` parses with the named command's parser alone; its help, usage
    errors and exit codes are those of the full parser tree."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")

    @pytest.mark.parametrize("argv", [
        *([name, "-h"] for name in ("simulate", "spectrum", "cascade", "ratio", "fit",
                                    "reproduce")),
        ["fit", "cascade", "-h"],
        ["fit", "slope", "-h"],
        ["spectrum"],
        ["fit", "lorentzian"],
        ["ratio", "--points", "x"],
        ["ratio", "--bogus"],
        ["fit", "slope", "--data", "f", "--zzz"],
        ["ratio", "extra"],
        [],
        ["-h"],
        ["bogus"],
    ], ids=lambda argv: " ".join(argv) or "no_arguments")
    def test_same_as_the_full_parser(self, capsys, argv):
        fast = exit_outcome(capsys, lambda: main(argv))
        assert fast == exit_outcome(capsys, lambda: build_parser().parse_args(argv))
        assert fast[0] in (0, 2)

    def test_leftover_arguments_get_top_level_usage(self, capsys):
        code, _, err = exit_outcome(capsys, lambda: main(["ratio", "--bogus"]))
        assert code == 2
        assert err.startswith("usage: cascfluor [-h]")
        assert err.endswith("cascfluor: error: unrecognized arguments: --bogus\n")

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "argv", ["cascfluor", "ratio", "--bogus"])
        full = exit_outcome(capsys, lambda: build_parser().parse_args(["ratio", "--bogus"]))
        assert exit_outcome(capsys, lambda: main(None)) == full
        monkeypatch.setattr(sys, "argv", ["cascfluor", "ratio", "--points", "3",
                                          "--out", str(tmp_path)])
        assert main(None) == 0
        assert (tmp_path / "ratio.csv").exists()


class TestRepeatedMain:
    """In-process main calls reuse each command's parser: a call after
    other commands and usage errors gives the bytes of the first."""

    CALLS = [
        ["ratio", "--s0", "2.5", "--points", "21", "--out", "{d}/ratio"],
        ["ratio", "--points", "x"],
        ["reproduce", "fig4a", "--seed", "3", "--out", "{d}"],
        ["ratio", "--bogus"],
        ["fit", "cascade", "--original", "{d}/fig4a_points_original.csv",
         "--cascaded", "{d}/fig4a_points_cascaded.csv", "--scan", "detuning",
         "--s0", "0.4", "--fix-efficiency", "0.9", "--out", "{d}/fit_cascade"],
        ["ratio", "--scan", "power", "--start", "0.05", "--stop", "10", "--points", "21",
         "--out", "{d}/power"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    def test_every_call_repeats_the_first(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        rounds = []
        for k in range(3):
            d = tmp_path / f"round{k}"
            outcomes = [self.outcome(capsys, [a.format(d=d) for a in argv])
                        for argv in self.CALLS]
            files = {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*"))
                     if p.is_file()}
            rounds.append((outcomes, files))
        assert [code for code, *_ in rounds[0][0]] == [0, 2, 0, 2, 0, 0]
        assert len(rounds[0][1]) == 7
        assert rounds[1] == rounds[0] and rounds[2] == rounds[0]


class TestSimulate:
    def small_config(self, tmp_path, **overrides):
        settings = dict(pulses_per_run=400, runs=3, mean_photons_per_pulse=0.5,
                        seed=42)
        settings.update(overrides)
        path = tmp_path / "run.cfg"
        write_config(path, RunConfig(**settings))
        return path

    def test_outputs_and_summary(self, tmp_path, capsys):
        cfg_path = self.small_config(tmp_path)
        assert run(["simulate", "--config", cfg_path, "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        tags = read_timetags(tmp_path / "timetags.csv")
        assert len(tags) and np.all(tags["arrival"] % 5 == 0)
        meta, cols = read_table(tmp_path / "histogram.csv")
        assert meta["period_ns"] == 600
        assert cols["count"].sum() == len(tags)

    def test_bit_identical_outputs(self, tmp_path):
        cfg_path = self.small_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", cfg_path, "--out", a]) == 0
        assert run(["simulate", "--config", cfg_path, "--out", b]) == 0
        assert (a / "timetags.csv").read_bytes() == (b / "timetags.csv").read_bytes()
        assert (a / "histogram.csv").read_bytes() == (b / "histogram.csv").read_bytes()

    def test_timetags_match_the_reference(self, tmp_path):
        cfg_path = self.small_config(tmp_path, cap=150, background_rate=2.0)
        assert run(["simulate", "--config", cfg_path, "--out", tmp_path]) == 0
        cfg = read_config(cfg_path)
        tags = np.concatenate([reference_run(cfg, run_id) for run_id in range(cfg.runs)])
        reference_write(tmp_path / "reference.csv",
                        {"run_id": tags["run_id"], "arrival_ns": tags["arrival"]})
        assert ((tmp_path / "timetags.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    def test_zero_mean_empty_outputs(self, tmp_path):
        cfg_path = self.small_config(tmp_path, mean_photons_per_pulse=0.0)
        assert run(["simulate", "--config", cfg_path, "--out", tmp_path]) == 0
        assert len(read_timetags(tmp_path / "timetags.csv")) == 0

    def test_zero_bin_is_usage_error(self, tmp_path):
        cfg_path = self.small_config(tmp_path)
        assert run(["simulate", "--config", cfg_path, "--out", tmp_path, "--bin", 0]) == 2

    @pytest.mark.parametrize("args, overrides", [
        pytest.param(["--bin", 7], {}, id="bin_not_a_tick_multiple"),
        pytest.param([], {"delay": 450, "window": 180}, id="window_wraps_the_period"),
    ])
    def test_failure_writes_nothing(self, tmp_path, args, overrides):
        cfg_path = self.small_config(tmp_path, **overrides)
        out = tmp_path / "out"
        out.mkdir()
        assert run(["simulate", "--config", cfg_path, "--out", out] + args) == 2
        assert not any(out.iterdir())

    @pytest.mark.parametrize("previous", [False, True], ids=["empty_dir", "earlier_outputs"])
    def test_failed_run_leaves_no_partial_timetags(self, tmp_path, monkeypatch, capsys,
                                                   previous):
        # the default acquisition, whose third run fails after the header is written
        out = tmp_path / "out"
        out.mkdir()
        if previous:
            assert run(["simulate", "--seed", 1, "--bin", 10, "--out", out]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        draw = cascfluor.timetag.simulate_run

        def failing(cfg, run_id=0):
            if run_id == 2:
                raise ValueError("run 2 failed")
            return draw(cfg, run_id)

        monkeypatch.setattr(cascfluor.timetag, "simulate_run", failing)
        capsys.readouterr()
        assert run(["simulate", "--seed", 2, "--out", out]) == 2
        assert capsys.readouterr().err == "error: run 2 failed\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_memory_does_not_grow_with_runs(self, tmp_path):
        # one run and one written block are held at a time, so 120 runs peak
        # where 30 do, not at four times their rows; a first, untraced call
        # builds the parser
        assert run(["simulate", "--config", self.small_config(tmp_path),
                    "--out", tmp_path / "out"]) == 0
        peaks = {}
        for runs in (30, 120):
            cfg_path = tmp_path / f"run{runs}.cfg"
            write_config(cfg_path, RunConfig(runs=runs))
            tracemalloc.start()
            try:
                assert run(["simulate", "--config", cfg_path, "--out", tmp_path / "out"]) == 0
                peaks[runs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[120] < 1.5e6
        assert abs(peaks[120] - peaks[30]) < 0.25e6

    def test_bad_config_nonzero_exit(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pulse_length = about_a_hundred\n")
        assert run(["simulate", "--config", path, "--out", tmp_path]) == 3

    def test_seed_beyond_int64_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["simulate", "--seed", 2**64, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must fit int64, got 18446744073709551616\n"
        assert not out.exists()

    def test_config_beyond_the_draw_limit_is_parse_error(self, tmp_path, capsys):
        # refused when read, before any run is drawn
        path = tmp_path / "run.cfg"
        path.write_text(f"pulses_per_run = {2**40}\n")
        assert run(["simulate", "--config", path, "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: a run would draw about 3.3e+12 values")
        assert err.count("\n") == 1 and "MAX_RUN_DRAWS" in err

    def test_config_beyond_the_acquisition_limit_is_parse_error(self, tmp_path, capsys):
        # refused when read: no run is drawn and no output directory made
        path, out = tmp_path / "run.cfg", tmp_path / "out"
        path.write_text(f"runs = {10**9}\ncap = {10**9}\n")
        assert run(["simulate", "--config", path, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: an acquisition would draw about 6.01e+12 values")
        assert err.count("\n") == 1 and "MAX_ACQUISITION_DRAWS" in err
        assert not out.exists()

    def test_seed_override_changes_records(self, tmp_path):
        cfg_path = self.small_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", cfg_path, "--out", a, "--seed", 1])
        run(["simulate", "--config", cfg_path, "--out", b, "--seed", 2])
        assert (a / "timetags.csv").read_bytes() != (b / "timetags.csv").read_bytes()


class TestSpectrumCommand:
    def test_grid_and_metadata(self, tmp_path):
        assert run(["spectrum", "--s0", 0.4, "--counts", 1500, "--out", tmp_path]) == 0
        meta, cols = read_table(tmp_path / "spectrum.csv")
        assert len(cols["omega_mhz"]) == 801
        total = np.trapezoid(cols["density_per_mhz"], cols["omega_mhz"])
        assert total + meta["elastic_weight"] == pytest.approx(1500.0, rel=1e-9)

    @staticmethod
    def expected(path, drive, count=None, span=10.0, step=None):
        """spectrum.csv (written to path) and stdout of the command, from
        the one-point reference through the table codec and its format."""
        spec = one_point_spectrum(drive, count, span, step)
        write_table(path, {"omega_mhz": spec.offsets, "density_per_mhz": spec.density},
                    meta={"elastic_weight": spec.elastic_weight, "s0": drive.s0,
                          "delta_mhz": drive.delta, "gamma_mhz": drive.gamma})
        return path.read_bytes(), (f"grid points: {len(spec.offsets)}  elastic weight: "
                                   f"{spec.elastic_weight:.6g}  total weight: "
                                   f"{spec.total_weight():.6g}\n")

    # no drive has no weight to normalize: test_no_drive_cannot_be_normalized
    @pytest.mark.parametrize("s0, delta, count", [
        (s0, delta, count) for s0 in (0.0, 0.05, 0.4, 2.5, 8.0)
        for delta in (-30.0, 0.0, 3.0) for count in (None, 1234.5) if s0 or count is None])
    def test_is_the_one_point_reference(self, tmp_path, capsys, s0, delta, count):
        args = ["spectrum", "--s0", s0, "--delta", delta, "--out", tmp_path / "out"]
        if count is not None:
            args += ["--counts", count]
        assert run(args) == 0
        csv, stdout = self.expected(tmp_path / "ref.csv", DriveParams(s0, delta), count)
        assert (tmp_path / "out" / "spectrum.csv").read_bytes() == csv
        assert capsys.readouterr().out == stdout

    def test_span_and_step_are_the_one_point_reference(self, tmp_path, capsys):
        assert run(["spectrum", "--s0", 2.5, "--delta", 3, "--gamma", 6, "--span", 12,
                    "--step", 0.2, "--counts", 77, "--out", tmp_path / "out"]) == 0
        csv, stdout = self.expected(tmp_path / "ref.csv", DriveParams(2.5, 3.0, 6.0), 77.0,
                                    12.0, 0.2)
        assert (tmp_path / "out" / "spectrum.csv").read_bytes() == csv
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("args, message", [
        (["--span", "1e9"], "grid of +-1000000000.0 linewidths at step 0.13 MHz needs "
                            "8e+10 points"),
        (["--step", "1e-300"], "grid of +-10.0 linewidths at step 1e-300 MHz needs "
                               "1.04e+302 points"),
    ], ids=["span", "step"])
    def test_oversized_grid_is_usage_error(self, tmp_path, capsys, args, message):
        # refused from the span and step before any allocation (a 1e9 span
        # once asked numpy for 596 GiB)
        assert run(["spectrum", "--s0", 1, *args, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}, more than MAX_GRID_POINTS = 1000000\n"
        assert not (tmp_path / "out").exists()

    def test_no_drive_cannot_be_normalized(self, tmp_path, capsys):
        assert run(["spectrum", "--s0", 0, "--counts", 100, "--out", tmp_path / "out"]) == 2
        assert "zero total weight" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCascadeCommand:
    def test_off_resonant_ratio(self, tmp_path, capsys):
        assert run([
            "cascade", "--s0", 0.4, "--delta", 30, "--counts", 1000,
            "--out", tmp_path,
        ]) == 0
        _, cols = read_table(tmp_path / "cascade.csv")
        assert cols["ratio"][0] == pytest.approx(0.9, abs=0.03)
        assert "ratio" in capsys.readouterr().out

    def test_is_its_row_of_a_ratio_scan(self, tmp_path):
        # a point computed alone equals its row of the default 121-point
        # scan (s0 0.4), whatever stack the scan puts it in
        assert run(["cascade", "--s0", 0.4, "--delta", 3, "--counts", 1,
                    "--out", tmp_path / "one"]) == 0
        assert run(["ratio", "--points", 121, "--out", tmp_path / "scan"]) == 0
        _, one = read_table(tmp_path / "one" / "cascade.csv")
        _, scan = read_table(tmp_path / "scan" / "ratio.csv")
        row = list(scan["delta_mhz"]).index(3.0)
        assert one["ratio"][0] == scan["ratio"][row]


class TestRatioCommand:
    def test_dip_follows_shift(self, tmp_path):
        assert run([
            "ratio", "--scan", "detuning", "--s0", 0.4, "--shift", 2.0,
            "--start", -10, "--stop", 10, "--points", 41, "--out", tmp_path,
        ]) == 0
        _, cols = read_table(tmp_path / "ratio.csv")
        assert cols["delta_mhz"][int(np.argmin(cols["ratio"]))] == pytest.approx(2.0)

    def test_zero_points_is_usage_error(self, tmp_path, capsys):
        assert run(["ratio", "--points", 0, "--out", tmp_path]) == 2
        assert "--points" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_points_bound_is_inclusive(self, tmp_path, capsys, monkeypatch):
        # the bound holds before the grid is allocated; checked at a small
        # stand-in limit so that no test builds a scan of the real one
        monkeypatch.setattr(cascfluor.cli, "MAX_RATIO_POINTS", 5)
        assert run(["ratio", "--points", 5, "--out", tmp_path / "ok"]) == 0
        assert run(["ratio", "--points", 6, "--out", tmp_path / "big"]) == 2
        assert capsys.readouterr().err == "error: --points must be in [1, 5], got 6\n"
        assert not (tmp_path / "big").exists()

    def test_points_beyond_any_scan_is_usage_error(self, tmp_path, capsys):
        assert run(["ratio", "--points", 10**12, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == (
            "error: --points must be in [1, 100000], got 1000000000000\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [["--start", "nan"], ["--stop", "nan"],
                                      ["--scan", "power", "--stop", "inf"]],
                             ids=["start_nan", "stop_nan", "power_stop_inf"])
    def test_non_finite_range_is_usage_error(self, tmp_path, capsys, args):
        assert run(["ratio", *args, "--out", tmp_path]) == 2
        option, value = args[-2:]
        assert capsys.readouterr().err == f"error: {option} must be finite, got {value}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("args, message", [
        (["--s0", "nan"], "drive parameters must be finite, got "
                          "DriveParams(s0=nan, delta=-30.0, gamma=5.2)"),
        (["--s0", "-1"], "saturation parameter must be >= 0, got -1.0"),
        (["--scan", "power", "--start", "-1", "--stop", "1"],
         "saturation parameter must be >= 0, got -1.0"),
        (["--gamma", "0"], "natural linewidth must be > 0, got 0.0"),
    ], ids=["s0_nan", "s0_negative", "power_negative", "gamma_zero"])
    def test_bad_drive_is_usage_error(self, tmp_path, capsys, args, message):
        # the message of the first bad drive, as DriveParams words it
        assert run(["ratio", *args, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_power_scan_monotone(self, tmp_path):
        assert run([
            "ratio", "--scan", "power", "--start", 0.25, "--stop", 8,
            "--points", 12, "--out", tmp_path,
        ]) == 0
        _, cols = read_table(tmp_path / "ratio.csv")
        assert np.all(np.diff(cols["ratio"]) > 0)

    def test_s0_on_a_power_scan_is_usage_error(self, tmp_path, capsys):
        # --s0 drives a detuning scan only; a power scan refuses it
        assert run(["ratio", "--scan", "power", "--s0", 1, "--out", tmp_path]) == 2
        assert "--s0 is only for --scan detuning" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestModelInputBoundaries:
    @pytest.mark.parametrize("args, message", [
        (["ratio", "--scan", "power", "--start", 0], "at drive 0 (s0=0.0, delta=0.0)"),
        (["cascade", "--s0", 0], "at drive 0 (s0=0.0, delta=0.0)"),
        (["ratio", "--s0", 0], "at drive 0 (s0=0.0, delta=-30.0)"),
        (["spectrum", "--s0", 0, "--counts", 100], "at drive 0 (s0=0.0, delta=0.0)"),
    ], ids=["power_scan_from_0", "cascade", "detuning_scan", "spectrum"])
    def test_zero_weight_names_the_drive(self, tmp_path, capsys, args, message):
        assert run([*args, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"error: spectrum has zero total weight {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["ratio", "--s0", "1e308"], ["ratio", "--gamma", "1e-300"],
        ["ratio", "--gamma", "1e300"], ["ratio", "--shift", "1e308"],
        ["cascade", "--s0", "1", "--width", "1e-300"], ["cascade", "--s0", "1", "--counts", "1e308"],
        ["cascade", "--s0", "1", "--delta", "1e308"], ["spectrum", "--s0", "1e308"],
    ], ids=lambda args: "_".join(a.lstrip("-") for a in args))
    def test_overflow_is_one_error_line(self, tmp_path, capsys, args):
        # finite inputs whose arithmetic overflows the model under main's
        # np.errstate(raise): a usage error on one line, no traceback
        assert run([*args, "--out", tmp_path / "out"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestFitCommand:
    def test_noiseless_lorentzian(self, tmp_path, capsys):
        x = np.linspace(-30, 30, 61)
        write_series(tmp_path / "line.csv",
                     DataSeries(x, lorentzian(x, 1.0, 16.0, 2.0, 0.1)))
        code = run(["fit", "lorentzian", "--data", tmp_path / "line.csv",
                    "--out", tmp_path])
        assert code == 0
        report = read_report_csv(tmp_path / "fit_report.csv")
        assert report.residual_norm < 1e-10
        assert report.params["fwhm"] == pytest.approx(16.0, rel=1e-5)
        assert "fwhm" in capsys.readouterr().out

    def test_underdetermined_exit_code(self, tmp_path):
        write_series(tmp_path / "two.csv",
                     DataSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0])))
        assert run(["fit", "lorentzian", "--data", tmp_path / "two.csv",
                    "--out", tmp_path]) == 5

    def test_nonconvergence_exit_code(self, tmp_path):
        x = np.linspace(0, 10, 11)
        write_series(tmp_path / "flat.csv", DataSeries(x, np.full(11, 2.0)))
        assert run(["fit", "lorentzian", "--data", tmp_path / "flat.csv",
                    "--out", tmp_path]) == 4

    @pytest.mark.parametrize("bootstrap", [-3, 1])
    def test_negative_bootstrap_is_usage_error(self, tmp_path, bootstrap):
        # a single refit would give NaN sigmas, which read_report_csv refuses
        x = np.linspace(-30, 30, 61)
        write_series(tmp_path / "line.csv",
                     DataSeries(x, lorentzian(x, 1.0, 16.0, 2.0, 0.1)))
        assert run(["fit", "lorentzian", "--data", tmp_path / "line.csv",
                    "--bootstrap", bootstrap, "--out", tmp_path]) == 2
        assert not (tmp_path / "fit_report.csv").exists()

    @pytest.mark.parametrize("model, runner", [
        ("saturation", fit_saturation),
        ("broadening", fit_power_broadening),
        ("slope", fit_shift_slope),
    ])
    def test_each_alias_reaches_its_own_fit(self, tmp_path, model, runner):
        # the single-series models share one parser; the name picks the fit
        x = np.linspace(0.5, 4.0, 6)
        data = DataSeries(x, 3.0 * x / (1.2 + x) + 0.01 * np.cos(7.0 * x))
        write_series(tmp_path / "data.csv", data)
        assert run(["fit", model, "--data", tmp_path / "data.csv", "--out", tmp_path]) == 0
        assert read_report_csv(tmp_path / "fit_report.csv") == runner(data)

    def test_outputs_only_the_report_table(self, tmp_path):
        x = np.linspace(0.0, 4.0, 6)
        write_series(tmp_path / "line.csv", DataSeries(x, 0.25 * x + 0.5))
        out = tmp_path / "out"
        assert run(["fit", "slope", "--data", tmp_path / "line.csv", "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["fit_report.csv"]

    def test_overflowing_data_is_usage_error(self, tmp_path):
        # the fit arithmetic overflows; once this wrote residual_norm=inf
        (tmp_path / "huge.csv").write_text("x,y\n1,1e308\n2,-1e308\n3,1e308\n")
        assert run(["fit", "slope", "--data", tmp_path / "huge.csv", "--out", tmp_path]) == 2
        assert not (tmp_path / "fit_report.csv").exists()

    @pytest.mark.parametrize("data, lineno", [
        (b"x,y\n1,a\n", 2), (b"x,y\n0,1\n1,\xff3\n", 3), (b"x,y,yerr\n0,1,1\n1,2,0\n", 3),
        (b"# a=1\nx,y,yerr\n0,1,1\n\n1,2,-2\n", 5)],
        ids=["not_a_number", "not_utf8", "yerr_zero", "yerr_negative"])
    def test_parse_error_exit_code(self, tmp_path, capsys, data, lineno):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert run(["fit", "lorentzian", "--data", path, "--out", tmp_path]) == 3
        assert f"bad.csv:{lineno}: " in capsys.readouterr().err

    def test_bootstrap_beyond_the_limit_is_usage_error(self, tmp_path, capsys):
        # refused before it is drawn: 10**13 refits would not fit in memory
        x = np.linspace(-30, 30, 61)
        write_series(tmp_path / "line.csv",
                     DataSeries(x, lorentzian(x, 1.0, 16.0, 2.0, 0.1)))
        assert run(["fit", "lorentzian", "--data", tmp_path / "line.csv",
                    "--bootstrap", 10**13, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == (
            "error: bootstrap must be at most MAX_BOOTSTRAP = 100000, got 10000000000000\n")
        assert not (tmp_path / "fit_report.csv").exists()

    def test_degenerate_bootstrap_exit_code(self, tmp_path, monkeypatch, capsys):
        # with every bootstrap refit degenerate there is no spread to report;
        # once this wrote NaN sigmas that read_report_csv refuses
        def degenerate(*args, **kwargs):
            raise cascfluor.fit.DegenerateFitError("singular normal matrix")

        def outer_only(*args, _real=cascfluor.fit.least_squares, **kwargs):
            # the fit runs; its bootstrap refits degenerate
            monkeypatch.setattr(cascfluor.fit, "least_squares", degenerate)
            return _real(*args, **kwargs)

        x = np.linspace(0.0, 4.0, 6)
        write_series(tmp_path / "line.csv", DataSeries(x, 0.25 * x + 0.5 + 0.01 * np.cos(x)))
        monkeypatch.setattr(cascfluor.fit, "least_squares", outer_only)
        assert run(["fit", "slope", "--data", tmp_path / "line.csv", "--bootstrap", 3,
                    "--out", tmp_path]) == 5
        assert "0 of 3 bootstrap refits succeeded" in capsys.readouterr().err
        assert not (tmp_path / "fit_report.csv").exists()

    def test_degenerate_lorentzian_bootstrap_exit_code(self, tmp_path, monkeypatch, capsys):
        # a Lorentzian fit that converges and whose refits degenerate exits 5
        # like the other fits; its no-peak fallback once caught the bootstrap's
        # error and reported the start values with converged=False (exit 4)
        real, calls = cascfluor.fit.least_squares, []

        def refits_degenerate(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise cascfluor.fit.DegenerateFitError("singular normal matrix")
            return real(*args, **kwargs)

        x = np.linspace(-30, 30, 61)
        write_series(tmp_path / "line.csv", DataSeries(
            x, lorentzian(x, 1.0, 16.0, 2.0, 0.1) + 0.01 * np.cos(3.0 * x)))
        monkeypatch.setattr(cascfluor.fit, "least_squares", refits_degenerate)
        assert run(["fit", "lorentzian", "--data", tmp_path / "line.csv",
                    "--bootstrap", 3, "--out", tmp_path]) == 5
        assert capsys.readouterr().err == (
            "error: degenerate fit: 0 of 3 bootstrap refits succeeded\n")
        assert not (tmp_path / "fit_report.csv").exists()

    @pytest.fixture
    def power_scan(self, tmp_path):
        """An 8-point noiseless power scan through the reference filter, as
        the --original and --cascaded arguments of its series files."""
        from cascfluor.fit import cascade_model_counts

        ladder = np.geomspace(0.25, 4.0, 8)
        n_orig = 1000.0 * ladder / (1 + ladder)
        model = cascade_model_counts(
            [DriveParams(float(s)) for s in ladder], n_orig, 6.7, 0.85, 0.0, 0.9
        )
        write_series(tmp_path / "orig.csv", DataSeries(ladder, n_orig))
        write_series(tmp_path / "casc.csv", DataSeries(ladder, model))
        return ["--original", tmp_path / "orig.csv", "--cascaded", tmp_path / "casc.csv"]

    def test_cascade_fit_via_files(self, tmp_path, power_scan):
        code = run(["fit", "cascade", *power_scan, "--scan", "power",
                    "--fix-shift", 0.0, "--fix-efficiency", 0.9, "--out", tmp_path])
        assert code == 0
        report = read_report_csv(tmp_path / "fit_report.csv")
        assert report.params["width"] == pytest.approx(6.7, rel=1e-4)
        assert report.params["alpha"] == pytest.approx(0.85, rel=1e-4)

    def test_cascade_fit_bootstrap_is_usage_error(self, tmp_path, capsys):
        # the cascade fit has no bootstrap; the flag is refused, not ignored
        x = np.linspace(0.5, 4.0, 6)
        write_series(tmp_path / "orig.csv", DataSeries(x, np.full(6, 1000.0)))
        write_series(tmp_path / "casc.csv", DataSeries(x, np.full(6, 600.0)))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run(["fit", "cascade", "--original", tmp_path / "orig.csv",
                 "--cascaded", tmp_path / "casc.csv", "--bootstrap", 20, "--out", out])
        assert err.value.code == 2
        assert "bootstrap" in capsys.readouterr().err
        assert not (out / "fit_report.csv").exists()

    def test_cascade_power_scan_s0_is_usage_error(self, tmp_path, capsys):
        x = np.linspace(0.5, 4.0, 6)
        write_series(tmp_path / "orig.csv", DataSeries(x, np.full(6, 1000.0)))
        write_series(tmp_path / "casc.csv", DataSeries(x, np.full(6, 600.0)))
        out = tmp_path / "out"
        assert run(["fit", "cascade", "--original", tmp_path / "orig.csv",
                    "--cascaded", tmp_path / "casc.csv", "--scan", "power", "--s0", 1,
                    "--out", out]) == 2
        assert "s0 is only for scan='detuning'" in capsys.readouterr().err
        assert not out.exists()

    def test_cascade_negative_seed_is_usage_error(self, tmp_path, capsys, power_scan):
        out = tmp_path / "out"
        assert run(["fit", "cascade", *power_scan, "--seed", -1, "--out", out]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("--fix-width", "nan"), ("--fix-shift", "inf")])
    def test_cascade_non_finite_fixed_parameter_is_usage_error(self, tmp_path, capsys,
                                                               power_scan, option, value):
        out = tmp_path / "out"
        assert run(["fit", "cascade", *power_scan, option, value, "--out", out]) == 2
        name = option[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("option, value, rule", [("--fix-width", "-1", "> 0"),
                                                     ("--fix-efficiency", "2", "in (0, 1]")])
    def test_cascade_out_of_range_fixed_parameter_is_usage_error(self, tmp_path, capsys,
                                                                 power_scan, option, value,
                                                                 rule):
        # refused by its argument's name before the first start
        out = tmp_path / "out"
        assert run(["fit", "cascade", *power_scan, option, value, "--out", out]) == 2
        name = option[2:].replace("-", "_")
        assert capsys.readouterr() == ("", f"error: {name} must be {rule}, got {float(value)}\n")
        assert not out.exists()

    def test_cascade_repeated_failure_is_named_once(self, tmp_path, capsys, power_scan):
        out = tmp_path / "out"
        assert run(["fit", "cascade", *power_scan, "--fix-shift", 1e308, "--out", out]) == 5
        assert capsys.readouterr().err == (
            "error: degenerate fit: singular normal matrix (5 of 5 starts)\n")
        assert not out.exists()


class TestReproduce:
    def test_fig3_model_anchors(self, tmp_path, capsys):
        assert run(["reproduce", "fig3", "--out", tmp_path]) == 0
        _, cols = read_table(tmp_path / "fig3_model.csv")
        at_one = np.argmin(np.abs(cols["s0"] - 1.0))
        assert cols["s0"][at_one] == pytest.approx(1.0)
        assert cols["original_rate"][at_one] == pytest.approx(0.5)
        refit = read_report_csv(tmp_path / "fig3_refit.csv")
        assert refit.params["width"] == pytest.approx(6.7, abs=1.5)
        assert refit.params["alpha"] == pytest.approx(0.85, abs=0.04)
        assert "width" in capsys.readouterr().out

    def test_fig4b_dip_shallower_at_high_power(self, tmp_path):
        assert run(["reproduce", "fig4b", "--out", tmp_path]) == 0
        _, cols = read_table(tmp_path / "fig4b_model.csv")
        assert cols["ratio_s2p5"].min() > cols["ratio_s0p4"].min()

    def test_fig4b_writes_only_its_ratio_model(self, tmp_path, capsys):
        # fig4a owns the synthetic points and their refit
        assert run(["reproduce", "fig4b", "--out", tmp_path]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["fig4b_model.csv"]
        assert capsys.readouterr().out == ""
        _, cols = read_table(tmp_path / "fig4b_model.csv")
        assert list(cols) == ["delta_mhz", "ratio_s0p4", "ratio_s2p5"]

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_fig4b_seed_is_usage_error(self, tmp_path, capsys, seed):
        # fig4b draws no noise, so a seed would change nothing
        out = tmp_path / "out"
        assert run(["reproduce", "fig4b", "--seed", seed, "--out", out]) == 2
        assert capsys.readouterr().err == "error: --seed is not for fig4b, which draws no noise\n"
        assert not out.exists()

    @pytest.mark.parametrize("figure", ["fig3", "fig4a", "fig5a", "fig5b"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, figure):
        # refused before the output directory is made
        out = tmp_path / "out"
        assert run(["reproduce", figure, "--seed", -1, "--out", out]) == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
        assert not out.exists()

    def test_default_seed_is_1(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["reproduce", "fig5b", "--out", a])
        run(["reproduce", "fig5b", "--out", b, "--seed", 1])
        for name in ("fig5b_model.csv", "fig5b_points.csv", "fig5b_refit.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_fig5a_zero_power_anchor(self, tmp_path):
        assert run(["reproduce", "fig5a", "--out", tmp_path]) == 0
        _, cols = read_table(tmp_path / "fig5a_model.csv")
        assert cols["s0"][0] == 0.0
        assert cols["fwhm_mhz"][0] == pytest.approx(6.45 + 8.44)
        refit = read_report_csv(tmp_path / "fig5a_refit.csv")
        assert refit.params["gamma"] == pytest.approx(6.45, abs=1.17)

    def test_fig5b_slope_recovery(self, tmp_path):
        assert run(["reproduce", "fig5b", "--out", tmp_path]) == 0
        refit = read_report_csv(tmp_path / "fig5b_refit.csv")
        assert refit.params["slope"] == pytest.approx(0.25, abs=0.1)

    def test_fig4a_outputs(self, tmp_path):
        assert run(["reproduce", "fig4a", "--out", tmp_path]) == 0
        _, cols = read_table(tmp_path / "fig4a_model.csv")
        assert set(cols) == {
            "delta_mhz", "original_rate_s0p4", "cascaded_rate_s0p4",
            "original_rate_s2p5", "cascaded_rate_s2p5",
        }
        refit = read_report_csv(tmp_path / "fig4a_refit.csv")
        assert refit.params["width"] == pytest.approx(6.7, abs=2.0)

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("figure, fit_args", [
        ("fig3", ["cascade", "--original", "{d}/fig3_points_original.csv",
                  "--cascaded", "{d}/fig3_points_cascaded.csv", "--scan", "power",
                  "--fix-shift", "0", "--fix-efficiency", "0.9"]),
        ("fig4a", ["cascade", "--original", "{d}/fig4a_points_original.csv",
                   "--cascaded", "{d}/fig4a_points_cascaded.csv", "--scan", "detuning",
                   "--s0", "0.4", "--fix-efficiency", "0.9"]),
        ("fig5a", ["broadening", "--data", "{d}/fig5a_points.csv"]),
        ("fig5b", ["slope", "--data", "{d}/fig5b_points.csv"]),
    ])
    def test_fit_command_writes_the_figure_refit(self, tmp_path, figure, fit_args, seed):
        # the fit command on a figure's points, with the figure's options,
        # reports the figure's refit to the byte
        d = tmp_path / "fig"
        assert run(["reproduce", figure, "--seed", seed, "--out", d]) == 0
        args = [a.format(d=d) for a in fit_args]
        assert run(["fit", *args, "--out", tmp_path / "fit"]) == 0
        assert ((tmp_path / "fit" / "fit_report.csv").read_bytes()
                == (d / f"{figure}_refit.csv").read_bytes())

    def test_bit_identical_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["reproduce", "fig5b", "--out", a, "--seed", 7])
        run(["reproduce", "fig5b", "--out", b, "--seed", 7])
        for name in ("fig5b_model.csv", "fig5b_points.csv", "fig5b_refit.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestModelColumnsArePointwise:
    """The model columns the CLI writes, bit for bit against the per-point
    path: one_point_spectrum(drive, n) at the step of cascaded_counts' rule,
    filtered as a one-row stack.
    Arrays, not digests: a digest would pin one CPU's last bit of exp."""

    @staticmethod
    def pointwise(drives, counts, prof=REFERENCE_FILTER):
        return np.array([
            one_point_count(one_point_spectrum(d, n, grid_step=model_step(d.gamma, prof)),
                            prof, d.delta)
            for d, n in zip(drives, counts)])

    @pytest.mark.parametrize("s0, delta, gamma, counts",
                             [(0.05, -30.0, 5.2, 1.0), (2.5, 3.0, 6.0, 1000.0),
                              (8.0, 0.0, 5.2, 1000.0)])
    def test_cascade_command(self, tmp_path, s0, delta, gamma, counts):
        assert run(["cascade", "--s0", s0, "--delta", delta, "--gamma", gamma,
                    "--counts", counts, "--out", tmp_path]) == 0
        _, cols = read_table(tmp_path / "cascade.csv")
        expected = self.pointwise([DriveParams(s0, delta, gamma)], [counts])
        np.testing.assert_array_equal(cols["cascaded"], expected)
        np.testing.assert_array_equal(cols["ratio"], expected / counts)

    @pytest.mark.parametrize("scan, s0", [("detuning", 2.5), ("power", None)])
    def test_ratio_command(self, tmp_path, scan, s0):
        args = ["ratio", "--scan", scan, "--alpha", 1.2, "--width", 7.5, "--out", tmp_path]
        if scan == "power":
            args += ["--start", 0.05, "--stop", 10]
        else:
            args += ["--s0", s0]
        assert run(args) == 0
        _, cols = read_table(tmp_path / "ratio.csv")
        x = cols["delta_mhz" if scan == "detuning" else "s0"]
        drives = [DriveParams(s0, v) if scan == "detuning" else DriveParams(v) for v in x]
        prof = AbsorptionProfile(1.2, 7.5, REFERENCE_FILTER.shift,
                                 REFERENCE_FILTER.path_efficiency)
        np.testing.assert_array_equal(cols["ratio"], self.pointwise(drives, np.ones_like(x),
                                                                    prof))

    def test_plain_ratio_command(self, tmp_path, capsys):
        # without options: the s0 = 0.4 detuning scan over +-30 MHz
        assert run(["ratio", "--out", tmp_path]) == 0
        _, cols = read_table(tmp_path / "ratio.csv")
        np.testing.assert_array_equal(cols["delta_mhz"], np.linspace(-30.0, 30.0, 121))
        ratios = self.pointwise([DriveParams(0.4, d) for d in cols["delta_mhz"]],
                                np.ones(121))
        np.testing.assert_array_equal(cols["ratio"], ratios)
        assert capsys.readouterr().out == (f"wrote 121 points; min ratio {ratios.min():.4f} "
                                           f"at delta_mhz=0\n")

    def test_reproduce_fig3(self, tmp_path):
        assert run(["reproduce", "fig3", "--out", tmp_path, "--seed", 7]) == 0
        _, cols = read_table(tmp_path / "fig3_model.csv")
        ratios = self.pointwise([DriveParams(v) for v in cols["s0"]], np.ones(len(cols["s0"])))
        np.testing.assert_array_equal(cols["ratio"], ratios)
        np.testing.assert_array_equal(cols["cascaded_rate"], cols["original_rate"] * ratios)
        # the refit points' errors are 3% of the model counts
        original = read_series(tmp_path / "fig3_points_original.csv")
        cascaded = read_series(tmp_path / "fig3_points_cascaded.csv")
        ones = np.ones(len(original))
        model = self.pointwise([DriveParams(v) for v in original.x], ones) * original.y
        np.testing.assert_array_equal(cascaded.y_err, 0.03 * model)

    def test_reproduce_fig4a(self, tmp_path):
        assert run(["reproduce", "fig4a", "--out", tmp_path, "--seed", 7]) == 0
        _, cols = read_table(tmp_path / "fig4a_model.csv")
        deltas = cols["delta_mhz"]
        for s0, tag in ((0.4, "s0p4"), (2.5, "s2p5")):
            ratios = self.pointwise([DriveParams(s0, d) for d in deltas], np.ones_like(deltas))
            np.testing.assert_array_equal(cols[f"cascaded_rate_{tag}"],
                                          cols[f"original_rate_{tag}"] * ratios)
        original = read_series(tmp_path / "fig4a_points_original.csv")
        cascaded = read_series(tmp_path / "fig4a_points_cascaded.csv")
        counts = self.pointwise([DriveParams(0.4, d) for d in original.x], original.y)
        np.testing.assert_array_equal(cascaded.y_err, 0.03 * (counts / original.y * original.y))
