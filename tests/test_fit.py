"""Fit engine oracles and the analysis pipelines."""

import numpy as np
import pytest

from cascfluor.cascade import AbsorptionProfile, ratio_curve
from cascfluor.fit import (
    DataParseError,
    DataSeries,
    DegenerateFitError,
    FitResult,
    cascade_model_counts,
    cascade_profile,
    fit_cascade,
    fit_lorentzian,
    fit_power_broadening,
    fit_saturation,
    fit_shift_slope,
    least_squares,
    lorentzian,
    power_broadened_width,
    read_report_csv,
    read_series,
    saturation_rate,
    write_report,
    write_report_csv,
    write_series,
    _jacobian,
)
from cascfluor.spectrum import DriveParams


def closed_form_linear(x, y, sigma=None):
    """Weighted linear regression by the normal equations, independent of
    the engine under test."""
    w = np.ones_like(y) if sigma is None else 1.0 / sigma**2
    design = np.column_stack([x, np.ones_like(x)])
    normal = design.T @ (w[:, None] * design)
    return np.linalg.solve(normal, design.T @ (w * y))


class TestLeastSquares:
    def test_noiseless_recovery(self):
        x = np.linspace(-20, 20, 41)
        truth = [1.5, 12.0, 3.0, 0.2]
        data = DataSeries(x, lorentzian(x, *truth))
        res = least_squares(
            lambda xx, th: lorentzian(xx, *th),
            data,
            [1.0, 9.0, 2.5, 0.0],
            bounds=[(-np.inf, np.inf), (1e-9, np.inf), (0, np.inf), (-np.inf, np.inf)],
        )
        assert res.converged
        for got, want in zip(res.params.values(), truth):
            assert got == pytest.approx(want, rel=1e-6)
        assert res.residual_norm < 1e-12

    def test_matches_closed_form_linear_regression(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0.5, 9.5, 25)
        y = 2.0 * x - 1.0 + rng.normal(0, 0.3, len(x))
        err = rng.uniform(0.2, 0.5, len(x))
        data = DataSeries(x, y, err)
        res = least_squares(
            lambda xx, th: th[0] * xx + th[1], data, [0.0, 0.0], names=["a", "b"]
        )
        expected = closed_form_linear(x, y, err)
        assert res.params["a"] == pytest.approx(expected[0], rel=1e-10)
        assert res.params["b"] == pytest.approx(expected[1], rel=1e-10)

    def test_sigma_matches_closed_form(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0.0, 5.0, 20)
        y = 0.7 * x + 2.0 + rng.normal(0, 0.2, len(x))
        data = DataSeries(x, y)
        res = least_squares(
            lambda xx, th: th[0] * xx + th[1], data, [0.0, 0.0], names=["a", "b"]
        )
        design = np.column_stack([x, np.ones_like(x)])
        coef = closed_form_linear(x, y)
        resid = y - design @ coef
        chi2_red = float(resid @ resid) / (len(x) - 2)
        cov = np.linalg.inv(design.T @ design) * chi2_red
        assert res.sigmas["a"] == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-8)
        assert res.sigmas["b"] == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-8)

    def test_monte_carlo_coverage(self):
        # 1% noise, 50 points: every parameter inside 3 fitted sigmas of
        # the truth in at least 95% of 200 seeded trials
        x = np.linspace(-30, 30, 50)
        truth = np.array([0.5, 14.0, 2.0, 0.1])
        clean = lorentzian(x, *truth)
        noise = 0.01 * clean.max()
        hits = 0
        for trial in range(200):
            rng = np.random.default_rng(3000 + trial)
            data = DataSeries(x, clean + rng.normal(0, noise, len(x)),
                              np.full(len(x), noise))
            res = fit_lorentzian(data)
            ok = all(
                abs(res.params[n] - t) <= 3 * res.sigmas[n]
                for n, t in zip(("center", "fwhm", "amplitude", "offset"), truth)
            )
            hits += ok
        assert hits >= 190

    def test_underdetermined_rejected(self):
        data = DataSeries(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(DegenerateFitError):
            least_squares(lambda x, th: th[0] * x + th[1] + th[2], data, [1, 1, 1])

    def test_collinear_rejected(self):
        data = DataSeries(np.linspace(0, 1, 10), np.linspace(0, 1, 10))
        with pytest.raises(DegenerateFitError):
            # two parameters multiplying the same column
            least_squares(lambda x, th: (th[0] + th[1]) * x, data, [1.0, 1.0])

    def test_init_outside_bounds_rejected(self):
        data = DataSeries(np.linspace(0, 1, 5), np.zeros(5))
        with pytest.raises(ValueError):
            least_squares(lambda x, th: th[0] * x, data, [2.0], bounds=[(0.0, 1.0)])

    def test_iteration_limit_flags_nonconvergence(self):
        rng = np.random.default_rng(4)
        x = np.linspace(-20, 20, 41)
        y = lorentzian(x, 2.0, 11.0, 3.0, 0.3) + rng.normal(0, 0.02, len(x))
        res = least_squares(
            lambda xx, th: lorentzian(xx, *th),
            DataSeries(x, y),
            [-5.0, 30.0, 1.0, 0.0],
            bounds=[(-np.inf, np.inf), (1e-9, np.inf), (0, np.inf), (-np.inf, np.inf)],
            max_iterations=1,
        )
        assert not res.converged
        assert res.iterations == 1

    def test_scale_equivariance(self):
        rng = np.random.default_rng(5)
        x = np.linspace(1.0, 40.0, 30)
        y = saturation_rate(x, 9.0, 4.0) + rng.normal(0, 0.05, len(x))
        err = np.full(len(x), 0.05)
        lo = fit_saturation(DataSeries(x, y, err))
        hi = fit_saturation(DataSeries(x, 1000.0 * y, 1000.0 * err))
        assert hi.params["i0"] == pytest.approx(lo.params["i0"], rel=1e-8)
        assert hi.params["rate_max"] == pytest.approx(1000.0 * lo.params["rate_max"],
                                                      rel=1e-8)

    def test_bootstrap_sigmas_track_linearized(self):
        rng = np.random.default_rng(15)
        x = np.linspace(0.0, 10.0, 40)
        y = 1.5 * x + 3.0 + rng.normal(0, 0.4, len(x))
        data = DataSeries(x, y)
        model = lambda xx, th: th[0] * xx + th[1]  # noqa: E731
        plain = least_squares(model, data, [1.0, 1.0], names=["a", "b"])
        boot = least_squares(model, data, [1.0, 1.0], names=["a", "b"],
                             bootstrap=300, bootstrap_seed=1)
        assert boot.params == plain.params
        for name in ("a", "b"):
            assert boot.sigmas[name] == pytest.approx(plain.sigmas[name], rel=0.35)

    def test_scale_equivariance_line_shape(self):
        rng = np.random.default_rng(6)
        x = np.linspace(-35.0, 35.0, 51)
        y = lorentzian(x, 1.2, 16.0, 1.0, 0.05) + rng.normal(0, 0.01, len(x))
        err = np.full(len(x), 0.01)
        lo = fit_lorentzian(DataSeries(x, y, err))
        hi = fit_lorentzian(DataSeries(x, 1000.0 * y, 1000.0 * err))
        assert hi.params["center"] == pytest.approx(lo.params["center"], abs=1e-8)
        assert hi.params["fwhm"] == pytest.approx(lo.params["fwhm"], rel=1e-8)

    @pytest.mark.parametrize("point", range(10))
    @pytest.mark.parametrize("family", ["lorentzian", "saturation", "broadening"])
    def test_jacobian_richardson_consistency(self, family, point):
        # halving the step shrinks the difference to the next halving by
        # the second-order factor of four
        rng = np.random.default_rng(600 + point)
        if family == "lorentzian":
            theta = np.array([rng.uniform(-3, 3), rng.uniform(8, 20),
                              rng.uniform(0.5, 4), rng.uniform(-1, 1)])
            x = np.linspace(-25, 25, 21)
            model = lambda xx, th: lorentzian(xx, *th)  # noqa: E731
        elif family == "saturation":
            theta = np.array([rng.uniform(50, 300), rng.uniform(0.5, 5)])
            x = np.linspace(5, 600, 21)
            model = lambda xx, th: saturation_rate(xx, *th)  # noqa: E731
        else:
            theta = np.array([rng.uniform(2, 10), rng.uniform(-5, 10)])
            x = np.linspace(0.1, 4.0, 21)
            model = lambda xx, th: power_broadened_width(xx, *th)  # noqa: E731
        n_par = len(theta)
        bounds = (np.full(n_par, -np.inf), np.full(n_par, np.inf))
        sigma = np.ones_like(x)
        j1 = _jacobian(model, x, theta, bounds, sigma, 1e-2)
        j2 = _jacobian(model, x, theta, bounds, sigma, 5e-3)
        j3 = _jacobian(model, x, theta, bounds, sigma, 2.5e-3)
        coarse = np.linalg.norm(j1 - j2)
        fine = np.linalg.norm(j2 - j3)
        if coarse < 1e-9 * np.linalg.norm(j1):
            # model linear in its parameters: central differences are exact
            # and both deltas are roundoff
            assert fine < 1e-9 * np.linalg.norm(j1)
        else:
            assert coarse / fine == pytest.approx(4.0, rel=0.35)


class TestFitLorentzian:
    def test_width_recovery_at_few_percent_noise(self):
        rng = np.random.default_rng(7)
        x = np.linspace(-40, 40, 81)
        clean = lorentzian(x, 0.0, 16.0, 1.0, 0.05)
        data = DataSeries(x, clean + rng.normal(0, 0.02, len(x)))
        res = fit_lorentzian(data)
        assert res.converged
        assert res.params["fwhm"] == pytest.approx(16.0, abs=0.5)

    def test_symmetric_data_centered(self):
        x = np.linspace(-30, 30, 61)
        data = DataSeries(x, lorentzian(x, 0.0, 12.0, 2.0, 0.1))
        res = fit_lorentzian(data)
        assert res.params["center"] == pytest.approx(0.0, abs=1e-8)

    def test_broadened_line_width_difference(self):
        rng = np.random.default_rng(8)
        x = np.linspace(-45, 45, 91)
        diffs = []
        for trial in range(5):
            narrow = lorentzian(x, 0.0, 16.0, 1.0, 0.0)
            wide = lorentzian(x, 0.7, 21.0, 0.9, 0.0)
            fit_n = fit_lorentzian(
                DataSeries(x, narrow + rng.normal(0, 0.015, len(x)))
            )
            fit_w = fit_lorentzian(
                DataSeries(x, wide + rng.normal(0, 0.015, len(x)))
            )
            diffs.append(fit_w.params["fwhm"] - fit_n.params["fwhm"])
        assert np.mean(diffs) == pytest.approx(5.0, abs=1.0)

    def test_flat_data_flagged(self):
        data = DataSeries(np.linspace(0, 10, 11), np.full(11, 3.0))
        res = fit_lorentzian(data)
        assert not res.converged

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            fit_lorentzian(DataSeries(np.arange(4.0), np.arange(4.0)))


class TestFitSaturation:
    def test_model_anchors(self):
        assert saturation_rate(121.0, 121.0, 2.0) == pytest.approx(1.0)
        assert saturation_rate(3 * 121.0, 121.0, 2.0) == pytest.approx(1.5)

    def test_knee_recovery(self):
        rng = np.random.default_rng(9)
        powers = np.array([10.0, 20.0, 40.0, 80.0, 121.0, 160.0, 240.0, 400.0, 600.0])
        clean = saturation_rate(powers, 121.0, 3.0)
        data = DataSeries(powers, clean * (1 + 0.02 * rng.standard_normal(len(powers))))
        res = fit_saturation(data)
        assert res.converged
        assert res.params["i0"] == pytest.approx(121.0, abs=10.0)

    def test_noiseless_roundtrip(self):
        powers = np.array([5.0, 15.0, 50.0, 120.0, 300.0, 700.0])
        data = DataSeries(powers, saturation_rate(powers, 121.0, 2.5))
        res = fit_saturation(data)
        assert res.params["i0"] == pytest.approx(121.0, rel=1e-4)
        assert res.params["rate_max"] == pytest.approx(2.5, rel=1e-4)

    def test_saturated_data_rejected(self):
        data = DataSeries(
            np.array([500.0, 600.0, 700.0, 800.0]), np.array([2.0, 2.0, 2.0, 2.0])
        )
        with pytest.raises(DegenerateFitError):
            fit_saturation(data)


class TestFitCascade:
    LADDER = np.geomspace(0.25, 4.0, 8)

    def synth_power_scan(self, width=6.7, alpha=0.85, noise=0.0, seed=0):
        n_orig = 1200.0 * self.LADDER / (1.0 + self.LADDER)
        drives = [DriveParams(float(s)) for s in self.LADDER]
        model = cascade_model_counts(drives, n_orig, width, alpha, 0.0, 0.9)
        y = model.copy()
        if noise:
            rng = np.random.default_rng(seed)
            y = model * (1.0 + noise * rng.standard_normal(len(model)))
        err = noise * model if noise else None
        return DataSeries(self.LADDER, n_orig), DataSeries(self.LADDER, y, err)

    def test_model_rejects_non_finite_filter(self):
        with pytest.raises(ValueError):
            cascade_model_counts([DriveParams(0.4)], [1.0], width=6.7, alpha=np.nan)

    @pytest.mark.parametrize("s0", [0.4, 2.5, 8.0])
    def test_model_is_the_ratio_curve(self, s0):
        # the fit model and the ratio scan are one forward model: at unit
        # counts they agree to the last bit
        deltas = np.linspace(-30.0, 30.0, 121)
        ones = np.ones_like(deltas)
        prof = AbsorptionProfile(alpha=0.85, width=6.7, shift=0.5, path_efficiency=0.9)
        drives = [DriveParams(s0, d) for d in deltas]
        model = cascade_model_counts(drives, ones, width=prof.width, alpha=prof.alpha,
                                     shift=prof.shift, path_efficiency=prof.path_efficiency)
        assert np.array_equal(model, ratio_curve(deltas, s0, prof, ones))

    def test_noiseless_power_scan_roundtrip(self):
        original, cascaded = self.synth_power_scan()
        res = fit_cascade(original, cascaded, scan="power",
                          fix_shift=0.0, fix_efficiency=0.9)
        assert res.converged
        assert res.params["width"] == pytest.approx(6.7, rel=1e-4)
        assert res.params["alpha"] == pytest.approx(0.85, rel=1e-4)
        assert res.sigmas["shift"] == 0.0

    def test_noiseless_detuning_scan_roundtrip_all_free(self):
        deltas = np.linspace(-20.0, 20.0, 21)
        n_orig = np.full(len(deltas), 900.0)
        drives = [DriveParams(0.4, float(d)) for d in deltas]
        model = cascade_model_counts(drives, n_orig, 6.7, 0.85, 1.0, 0.9)
        res = fit_cascade(
            DataSeries(deltas, n_orig), DataSeries(deltas, model),
            scan="detuning", s0=0.4,
        )
        assert res.params["width"] == pytest.approx(6.7, rel=1e-4)
        assert res.params["alpha"] == pytest.approx(0.85, rel=1e-4)
        assert res.params["shift"] == pytest.approx(1.0, rel=1e-4)
        assert res.params["path_efficiency"] == pytest.approx(0.9, rel=1e-4)

    def test_zero_absorption_consistent(self):
        original, cascaded = self.synth_power_scan(alpha=0.0, noise=0.002, seed=3)
        res = fit_cascade(original, cascaded, scan="power",
                          fix_shift=0.0, fix_efficiency=0.9)
        assert res.params["alpha"] <= 2.0 * res.sigmas["alpha"] + 1e-9

    def test_noisy_shift_recovery(self):
        deltas = np.linspace(-20.0, 20.0, 21)
        n_orig = np.full(len(deltas), 900.0)
        drives = [DriveParams(0.4, float(d)) for d in deltas]
        model = cascade_model_counts(drives, n_orig, 6.7, 0.85, 1.0, 0.9)
        rng = np.random.default_rng(11)
        noisy = model * (1 + 0.01 * rng.standard_normal(len(model)))
        res = fit_cascade(
            DataSeries(deltas, n_orig),
            DataSeries(deltas, noisy, 0.01 * model),
            scan="detuning", s0=0.4, fix_efficiency=0.9,
        )
        assert res.params["shift"] == pytest.approx(1.0, abs=0.3)

    def test_underdetermined_rejected(self):
        x = np.array([0.5, 1.0, 2.0])
        original = DataSeries(x, np.full(3, 500.0))
        cascaded = DataSeries(x, np.full(3, 250.0))
        with pytest.raises(DegenerateFitError):
            fit_cascade(original, cascaded, scan="power")

    def test_mismatched_abscissae_rejected(self):
        a = DataSeries(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        b = DataSeries(np.array([1.0, 2.0, 3.0, 5.0]), np.ones(4))
        with pytest.raises(ValueError):
            fit_cascade(a, b)

    def test_detuning_scan_requires_s0(self):
        a = DataSeries(np.linspace(-5, 5, 6), np.ones(6))
        with pytest.raises(ValueError):
            fit_cascade(a, a, scan="detuning")

    def test_profile_bridge(self):
        original, cascaded = self.synth_power_scan()
        res = fit_cascade(original, cascaded, scan="power",
                          fix_shift=0.0, fix_efficiency=0.9)
        prof = cascade_profile(res)
        assert isinstance(prof, AbsorptionProfile)
        assert prof.width == res.params["width"]
        assert prof.path_efficiency == 0.9


class TestFitPowerBroadening:
    def test_model_anchors(self):
        assert power_broadened_width(0.0, 6.45, 8.44) == pytest.approx(6.45 + 8.44)
        assert power_broadened_width(3.0, 6.45, 8.44) == pytest.approx(2 * 6.45 + 8.44)

    def test_noiseless_roundtrip(self):
        s0 = np.array([0.4, 0.8, 1.6, 2.5])
        data = DataSeries(s0, power_broadened_width(s0, 6.45, 8.44))
        res = fit_power_broadening(data)
        assert res.params["gamma"] == pytest.approx(6.45, rel=1e-4)
        assert res.params["gamma0"] == pytest.approx(8.44, rel=1e-4)

    def test_recovery_under_noise(self):
        rng = np.random.default_rng(13)
        s0 = np.array([0.4, 0.8, 1.6, 2.5])
        widths = power_broadened_width(s0, 6.45, 8.44) + rng.normal(0, 0.12, len(s0))
        res = fit_power_broadening(DataSeries(s0, widths, np.full(len(s0), 0.12)))
        assert res.params["gamma"] == pytest.approx(6.45, abs=1.17)
        assert res.params["gamma0"] == pytest.approx(8.44, abs=0.80)

    def test_degenerate_abscissae(self):
        data = DataSeries(np.full(4, 1.0), np.linspace(10, 11, 4))
        with pytest.raises(DegenerateFitError):
            fit_power_broadening(data)


class TestFitShiftSlope:
    def test_slope_recovery(self):
        rng = np.random.default_rng(14)
        s0 = np.array([0.4, 0.8, 1.2, 1.6, 2.0, 2.5])
        shifts = 0.25 * s0 + 0.5 + rng.normal(0, 0.08, len(s0))
        res = fit_shift_slope(DataSeries(s0, shifts, np.full(len(s0), 0.08)))
        assert res.params["slope"] == pytest.approx(0.25, abs=0.06)

    def test_constant_data(self):
        data = DataSeries(np.linspace(0, 3, 5), np.full(5, 0.7))
        res = fit_shift_slope(data)
        assert res.params["slope"] == pytest.approx(0.0, abs=1e-10)

    def test_exact_two_point_line(self):
        data = DataSeries(np.array([1.0, 3.0]), np.array([2.0, 8.0]))
        res = fit_shift_slope(data)
        assert res.params["slope"] == pytest.approx(3.0, rel=1e-10)
        assert res.params["intercept"] == pytest.approx(-1.0, rel=1e-10)

    def test_degenerate_abscissae(self):
        data = DataSeries(np.full(3, 2.0), np.arange(3.0))
        with pytest.raises(DegenerateFitError):
            fit_shift_slope(data)


class TestDataSeries:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DataSeries(np.arange(3.0), np.arange(4.0))

    def test_bad_errors(self):
        with pytest.raises(ValueError):
            DataSeries(np.arange(3.0), np.arange(3.0), np.array([1.0, 0.0, 1.0]))


class TestFileFormats:
    def test_series_roundtrip_with_errors(self, tmp_path):
        series = DataSeries(
            np.array([0.1, 0.2, 0.3]), np.array([1.5, 2.5, 3.5]),
            np.array([0.1, 0.2, 0.3]),
        )
        path = tmp_path / "series.csv"
        write_series(path, series)
        back = read_series(path)
        np.testing.assert_array_equal(back.x, series.x)
        np.testing.assert_array_equal(back.y, series.y)
        np.testing.assert_array_equal(back.y_err, series.y_err)

    def test_series_roundtrip_without_errors(self, tmp_path):
        series = DataSeries(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        path = tmp_path / "series.csv"
        write_series(path, series)
        back = read_series(path)
        assert back.y_err is None
        np.testing.assert_array_equal(back.y, series.y)

    def test_series_bad_header(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataParseError, match=":1:"):
            read_series(path)

    def test_series_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("x,y\n1,2\n3,oops\n")
        with pytest.raises(DataParseError, match=":3:"):
            read_series(path)

    def test_report_roundtrip(self, tmp_path):
        result = FitResult(
            params={"width": 6.7, "alpha": 0.85},
            sigmas={"width": 0.6, "alpha": 0.04},
            residual_norm=1.25e-3,
            converged=True,
            iterations=17,
        )
        path = tmp_path / "report.csv"
        write_report_csv(path, result)
        assert read_report_csv(path) == result

    def test_text_report_lines(self, tmp_path):
        result = FitResult({"slope": 0.25}, {"slope": 0.06}, 0.5, True, 3)
        path = tmp_path / "report.txt"
        write_report(path, result)
        lines = path.read_text().splitlines()
        assert lines[0].split() == ["slope", "0.25", "0.06"]
        assert "converged  True" in lines
