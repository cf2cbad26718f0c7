"""Command-line interface: outputs, determinism, exit codes."""

import numpy as np
import pytest

from cascfluor.cli import main, read_table, write_table
from cascfluor.fit import DataSeries, lorentzian, read_report_csv, write_series
from cascfluor.timetag import RunConfig, read_timetags, write_config


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
        assert run(["fit", "slope", "--out", tmp_path]) == 2


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
        assert tags and all(t.arrival % 5 == 0 for t in tags)
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

    def test_zero_mean_empty_outputs(self, tmp_path):
        cfg_path = self.small_config(tmp_path, mean_photons_per_pulse=0.0)
        assert run(["simulate", "--config", cfg_path, "--out", tmp_path]) == 0
        assert read_timetags(tmp_path / "timetags.csv") == []

    def test_bad_config_nonzero_exit(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pulse_length = about_a_hundred\n")
        assert run(["simulate", "--config", path, "--out", tmp_path]) == 3

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
        assert len(cols["omega_mhz"]) == 2001
        total = np.trapezoid(cols["density_per_mhz"], cols["omega_mhz"])
        assert total + meta["elastic_weight"] == pytest.approx(1500.0, rel=1e-9)


class TestCascadeCommand:
    def test_off_resonant_ratio(self, tmp_path, capsys):
        assert run([
            "cascade", "--s0", 0.4, "--delta", 30, "--counts", 1000,
            "--out", tmp_path,
        ]) == 0
        _, cols = read_table(tmp_path / "cascade.csv")
        assert cols["ratio"][0] == pytest.approx(0.9, abs=0.03)
        assert "ratio" in capsys.readouterr().out


class TestRatioCommand:
    def test_dip_follows_shift(self, tmp_path):
        assert run([
            "ratio", "--scan", "detuning", "--s0", 0.4, "--shift", 2.0,
            "--start", -10, "--stop", 10, "--points", 41, "--out", tmp_path,
        ]) == 0
        _, cols = read_table(tmp_path / "ratio.csv")
        assert cols["delta_mhz"][int(np.argmin(cols["ratio"]))] == pytest.approx(2.0)

    def test_power_scan_monotone(self, tmp_path):
        assert run([
            "ratio", "--scan", "power", "--start", 0.25, "--stop", 8,
            "--points", 12, "--out", tmp_path,
        ]) == 0
        _, cols = read_table(tmp_path / "ratio.csv")
        assert np.all(np.diff(cols["ratio"]) > 0)


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

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,a\n")
        assert run(["fit", "lorentzian", "--data", path, "--out", tmp_path]) == 3

    def test_cascade_fit_via_files(self, tmp_path):
        from cascfluor.fit import cascade_model_counts
        from cascfluor.spectrum import DriveParams

        ladder = np.geomspace(0.25, 4.0, 8)
        n_orig = 1000.0 * ladder / (1 + ladder)
        model = cascade_model_counts(
            [DriveParams(float(s)) for s in ladder], n_orig, 6.7, 0.85, 0.0, 0.9
        )
        write_series(tmp_path / "orig.csv", DataSeries(ladder, n_orig))
        write_series(tmp_path / "casc.csv", DataSeries(ladder, model))
        code = run([
            "fit", "cascade", "--original", tmp_path / "orig.csv",
            "--cascaded", tmp_path / "casc.csv", "--scan", "power",
            "--fix-shift", 0.0, "--fix-efficiency", 0.9, "--out", tmp_path,
        ])
        assert code == 0
        report = read_report_csv(tmp_path / "fit_report.csv")
        assert report.params["width"] == pytest.approx(6.7, rel=1e-4)
        assert report.params["alpha"] == pytest.approx(0.85, rel=1e-4)


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

    def test_bit_identical_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["reproduce", "fig5b", "--out", a, "--seed", 7])
        run(["reproduce", "fig5b", "--out", b, "--seed", 7])
        for name in ("fig5b_model.csv", "fig5b_points.csv", "fig5b_refit.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
