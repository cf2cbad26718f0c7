"""Fit engine oracles and the analysis pipelines."""

import math
import re

import numpy as np
import pytest

import cascfluor.fit
from cascfluor.cascade import AbsorptionProfile, _model_step, filtered_counts, ratio_curve
from cascfluor.fit import (
    BootstrapError,
    DataSeries,
    DegenerateFitError,
    FitResult,
    cascade_model_counts,
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
    write_report_csv,
    write_series,
    _broadening_jac,
    _ill_conditioned,
    _line_jac,
    _lorentzian_model,
    _saturation_jac,
)
from cascfluor.spectrum import (DEFAULT_GAMMA_MHZ, DriveParams, Drives,
                                excited_state_population, sample_spectrum)
from cascfluor.table import ParseError
from fd_oracle import DEFAULT_FD_STEP, _jacobian, fd_jac
import reference_fit
from reference_fit import fused_least_squares, lorentzian_jac


def closed_form_linear(x, y, sigma=None):
    """Weighted linear regression by the normal equations, independent of
    the engine under test."""
    w = np.ones_like(y) if sigma is None else 1.0 / sigma**2
    design = np.column_stack([x, np.ones_like(x)])
    normal = design.T @ (w[:, None] * design)
    return np.linalg.solve(normal, design.T @ (w * y))


def line(x, th):
    """th[0] * x + th[1] and its design matrix."""
    return th[0] * x + th[1], np.column_stack([x, np.ones_like(x)])


class TestLeastSquares:
    def test_noiseless_recovery(self):
        x = np.linspace(-20, 20, 41)
        truth = [1.5, 12.0, 3.0, 0.2]
        data = DataSeries(x, lorentzian(x, *truth))
        res = least_squares(
            _lorentzian_model,
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
        res = least_squares(line, data, [0.0, 0.0], names=["a", "b"])
        expected = closed_form_linear(x, y, err)
        assert res.params["a"] == pytest.approx(expected[0], rel=1e-10)
        assert res.params["b"] == pytest.approx(expected[1], rel=1e-10)

    def test_sigma_matches_closed_form(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0.0, 5.0, 20)
        y = 0.7 * x + 2.0 + rng.normal(0, 0.2, len(x))
        data = DataSeries(x, y)
        res = least_squares(line, data, [0.0, 0.0], names=["a", "b"])
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
            least_squares(lambda x, th: (th[0] * x + th[1] + th[2],
                                         np.column_stack([x, np.ones_like(x),
                                                          np.ones_like(x)])),
                          data, [1, 1, 1])

    def test_collinear_rejected(self):
        data = DataSeries(np.linspace(0, 1, 10), np.linspace(0, 1, 10))
        with pytest.raises(DegenerateFitError):
            # two parameters multiplying the same column
            least_squares(lambda x, th: ((th[0] + th[1]) * x, np.column_stack([x, x])),
                          data, [1.0, 1.0])

    def test_analytic_jacobian_matches_closed_form_linear(self):
        rng = np.random.default_rng(16)
        x = np.linspace(0.0, 10.0, 25)
        err = rng.uniform(0.1, 0.5, len(x))
        y = 1.5 * x + 3.0 + err * rng.standard_normal(len(x))
        data = DataSeries(x, y, err)
        model = lambda xx, th: th[0] * xx + th[1]  # noqa: E731
        exact = least_squares(line, data, [1.0, 1.0])
        fd = least_squares(fd_jac(model), data, [1.0, 1.0])
        slope, intercept = closed_form_linear(x, y, err)
        assert exact.params["p0"] == pytest.approx(slope, rel=1e-10)
        assert exact.params["p1"] == pytest.approx(intercept, rel=1e-10)
        for name in ("p0", "p1"):
            assert exact.sigmas[name] == pytest.approx(fd.sigmas[name], rel=1e-8)

    def test_analytic_jacobian_pinned_parameter_rejected(self):
        data = DataSeries(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        with pytest.raises(DegenerateFitError, match="pinned"):
            least_squares(line, data, [1.0, 0.5], bounds=[(-np.inf, np.inf), (0.5, 0.5)])

    def test_analytic_jacobian_singular_rejected(self):
        data = DataSeries(np.linspace(0, 1, 10), np.linspace(0, 1, 10))
        with pytest.raises(DegenerateFitError, match="singular"):
            least_squares(lambda x, th: ((th[0] + th[1]) * x, np.column_stack([x, x])),
                          data, [1.0, 1.0])

    def test_bootstrap_refits_use_the_analytic_jacobian(self):
        rng = np.random.default_rng(17)
        x = np.linspace(0.0, 10.0, 40)
        data = DataSeries(x, 1.5 * x + 3.0 + rng.normal(0, 0.4, len(x)))
        calls = []

        def counted(xx, th):
            calls.append(1)
            return line(xx, th)

        least_squares(counted, data, [1.0, 1.0])
        plain_calls = len(calls)
        boot = least_squares(counted, data, [1.0, 1.0], bootstrap=20)
        fd_boot = least_squares(fd_jac(lambda xx, th: th[0] * xx + th[1]), data,
                                [1.0, 1.0], bootstrap=20)
        assert len(calls) - plain_calls >= 20 * plain_calls
        for name in ("p0", "p1"):
            assert boot.sigmas[name] == pytest.approx(fd_boot.sigmas[name], rel=1e-6)

    def test_stall_on_non_finite_candidates_is_not_convergence(self):
        # every step-halving candidate makes the model NaN: the start is no optimum
        x = np.linspace(1.0, 5.0, 9)
        res = least_squares(
            lambda xx, th: (th[0] * xx if th[0] == 1.0 else np.full_like(xx, np.nan),
                            xx[:, None]),
            DataSeries(x, 2.0 * x), [1.0],
        )
        assert not res.converged
        assert res.iterations == 1
        assert res.params["p0"] == 1.0

    def test_stall_without_decrease_keeps_convergence(self):
        # a Jacobian of the wrong sign points every candidate uphill; the
        # model stays finite, so this is the ordinary no-decrease stop
        x = np.linspace(1.0, 5.0, 9)
        res = least_squares(lambda xx, th: (th[0] * xx, -xx[:, None]),
                            DataSeries(x, 2.0 * x), [1.0])
        assert res.converged
        assert res.iterations == 1
        assert res.params["p0"] == 1.0

    def test_non_finite_jacobian_halves_the_step(self):
        # the Jacobian turns NaN just short of the optimum: the candidate
        # there is refused like one with NaN values, so the fit stops short
        # of it with a finite sigma (it once stopped there with sigma NaN
        # and converged=True)
        x = np.linspace(1.0, 5.0, 9)
        y = 2.0 * x + np.random.default_rng(0).normal(0.0, 0.1, len(x))
        best = float(x @ y / (x @ x))

        def model(xx, th):
            finite = th[0] <= best - 1e-12
            return th[0] * xx, xx[:, None] if finite else np.full((len(xx), 1), np.nan)

        res = least_squares(model, DataSeries(x, y), [best - 1e-7])
        assert res.converged
        assert math.isfinite(res.sigmas["p0"]) and res.sigmas["p0"] > 0.0
        assert best - 1e-7 < res.params["p0"] <= best - 1e-12

    def test_init_outside_bounds_rejected(self):
        data = DataSeries(np.linspace(0, 1, 5), np.zeros(5))
        with pytest.raises(ValueError):
            least_squares(lambda x, th: (th[0] * x, x[:, None]), data, [2.0],
                          bounds=[(0.0, 1.0)])

    def test_iteration_limit_flags_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(cascfluor.fit, "MAX_ITERATIONS", 1)
        rng = np.random.default_rng(4)
        x = np.linspace(-20, 20, 41)
        y = lorentzian(x, 2.0, 11.0, 3.0, 0.3) + rng.normal(0, 0.02, len(x))
        res = least_squares(
            _lorentzian_model,
            DataSeries(x, y),
            [-5.0, 30.0, 1.0, 0.0],
            bounds=[(-np.inf, np.inf), (1e-9, np.inf), (0, np.inf), (-np.inf, np.inf)],
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

    def test_negative_bootstrap_is_an_error(self):
        x = np.linspace(0.0, 5.0, 6)
        with pytest.raises(ValueError, match="bootstrap"):
            least_squares(line, DataSeries(x, 2.0 * x + 1.0), [1.0, 0.0], bootstrap=-3)

    def test_single_bootstrap_refit_is_an_error(self):
        # one refit has no spread: its sigmas would be NaN
        x = np.linspace(0.0, 5.0, 6)
        with pytest.raises(ValueError, match="bootstrap"):
            least_squares(line, DataSeries(x, 2.0 * x + 1.0), [1.0, 0.0], bootstrap=1)

    @pytest.mark.parametrize("bootstrap", [cascfluor.fit.MAX_BOOTSTRAP + 1, 10**13])
    def test_bootstrap_beyond_the_limit_is_an_error(self, monkeypatch, bootstrap):
        # refused before the fit, so before any refit or its draws are made
        calls = []
        monkeypatch.setattr(np, "empty", lambda *a, **k: calls.append(a))
        x = np.linspace(0.0, 5.0, 6)
        with pytest.raises(ValueError, match=(
                f"^bootstrap must be at most MAX_BOOTSTRAP = 100000, got {bootstrap}$")):
            least_squares(line, DataSeries(x, 2.0 * x + 1.0), [1.0, 0.0],
                          bootstrap=bootstrap)
        assert calls == []

    def test_bootstrap_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cascfluor.fit, "MAX_BOOTSTRAP", 5)
        x = np.linspace(0.0, 5.0, 6)
        data = DataSeries(x, 2.0 * x + 1.0 + 0.1 * np.cos(x))
        assert least_squares(line, data, [1.0, 0.0], bootstrap=5).converged
        with pytest.raises(ValueError, match="MAX_BOOTSTRAP = 5, got 6$"):
            least_squares(line, data, [1.0, 0.0], bootstrap=6)

    @pytest.mark.parametrize("good", [0, 1, 2])
    def test_bootstrap_needs_two_good_refits(self, monkeypatch, good):
        # degenerate refits are left out; fewer than two good ones have no
        # spread, where nanstd would report NaN sigmas with converged=True
        x = np.linspace(0.0, 5.0, 6)
        data = DataSeries(x, 2.0 * x + 1.0 + 0.1 * np.cos(x))
        refits = []

        def some_degenerate(*args, **kwargs):
            refits.append(1)
            if len(refits) > good:
                raise DegenerateFitError("singular normal matrix")
            return least_squares(*args, **kwargs)

        monkeypatch.setattr(cascfluor.fit, "least_squares", some_degenerate)
        if good < 2:
            with pytest.raises(DegenerateFitError,
                               match=f"^{good} of 5 bootstrap refits succeeded"):
                least_squares(line, data, [1.0, 0.0], bootstrap=5)
        else:
            res = least_squares(line, data, [1.0, 0.0], bootstrap=5)
            assert res.converged
            assert all(0.0 < v < math.inf for v in res.sigmas.values())
        assert len(refits) == 5

    def test_overflowing_residual_sum_is_an_error(self):
        # finite data whose sum of squares overflows give no fit, and no
        # numpy warning on the way (pytest turns warnings into errors)
        data = DataSeries(np.array([1.0, 2.0, 3.0]), np.array([1e308, -1e308, 1e308]))
        with pytest.raises(ValueError, match="not finite"):
            fit_shift_slope(data)
        with pytest.raises(ValueError, match="not finite"):
            least_squares(line, data, [0.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("condition", [0.9e14, 1.1e14])
    def test_conditioning_agrees_with_cond(self, seed, condition):
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
        normal = (q * [1.0, 7.0, 3e5, condition]) @ q.T
        normal = (normal + normal.T) / 2.0
        expected = condition > 1e14
        assert (np.linalg.cond(normal) > 1e14) == expected
        assert _ill_conditioned(normal) == expected

    @pytest.mark.parametrize("normal", [
        pytest.param([[1.0, 1.0], [1.0, 1.0]], id="singular"),
        pytest.param([[0.0, 0.0], [0.0, 0.0]], id="zero"),
        pytest.param([[1.0, 2.0], [2.0, 1.0]], id="indefinite"),
        pytest.param([[1.0, np.nan], [np.nan, 1.0]], id="nan"),
    ])
    def test_not_positive_definite_is_ill_conditioned(self, normal):
        assert _ill_conditioned(np.array(normal))

    @pytest.mark.parametrize("bound, init, clamped", [
        ([(0.0, 1.5), (-np.inf, np.inf)], [1.0, 1.0], 1.5),
        ([(2.5, np.inf), (-np.inf, np.inf)], [3.0, 1.0], 2.5),
    ], ids=["upper", "lower"])
    def test_step_past_a_bound_lands_on_it(self, bound, init, clamped):
        # the Gauss-Newton step of a line goes straight to a slope near 2,
        # past the bound: the candidate is the bound itself, to the bit,
        # and the fit stays there as the reference engine does
        x = np.linspace(0.0, 4.0, 9)
        data = DataSeries(x, 2.0 * x + 1.0 + 0.05 * np.cos(5.0 * x))
        slopes = []

        def recorded(xx, th):
            slopes.append(th[0])
            return line(xx, th)

        res = least_squares(recorded, data, init, bounds=bound)
        assert slopes[1] == clamped
        assert res.params["p0"] == clamped
        assert bits(res) == bits(fused_least_squares(line, data, init, bounds=bound))

    def test_bootstrap_sigmas_track_linearized(self):
        rng = np.random.default_rng(15)
        x = np.linspace(0.0, 10.0, 40)
        y = 1.5 * x + 3.0 + rng.normal(0, 0.4, len(x))
        data = DataSeries(x, y)
        plain = least_squares(line, data, [1.0, 1.0], names=["a", "b"])
        boot = least_squares(line, data, [1.0, 1.0], names=["a", "b"], bootstrap=300)
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
    @pytest.mark.parametrize("family", ["lorentzian", "saturation", "broadening", "slope"])
    def test_jacobian_richardson_consistency(self, family, point):
        # halving the step shrinks the difference to the next halving by
        # the second-order factor of four
        rng = np.random.default_rng(600 + point)
        if family == "lorentzian":
            theta = np.array([rng.uniform(-3, 3), rng.uniform(8, 20),
                              rng.uniform(0.5, 4), rng.uniform(-1, 1)])
            x = np.linspace(-25, 25, 21)
            model = lambda xx, th: lorentzian(xx, *th)  # noqa: E731
            analytic = lambda xx, th: _lorentzian_model(xx, th)[1]  # noqa: E731
        elif family == "saturation":
            theta = np.array([rng.uniform(50, 300), rng.uniform(0.5, 5)])
            x = np.linspace(5, 600, 21)
            model = lambda xx, th: saturation_rate(xx, *th)  # noqa: E731
            analytic = _saturation_jac
        elif family == "broadening":
            theta = np.array([rng.uniform(2, 10), rng.uniform(-5, 10)])
            x = np.linspace(0.1, 4.0, 21)
            model = lambda xx, th: power_broadened_width(xx, *th)  # noqa: E731
            analytic = _broadening_jac
        else:
            theta = np.array([rng.uniform(-2, 2), rng.uniform(-5, 10)])
            x = np.linspace(0.0, 3.0, 21)
            model = lambda xx, th: th[0] * xx + th[1]  # noqa: E731
            analytic = _line_jac
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
        # the closed-form Jacobian the fit passes, against the oracle at its
        # default step, relative to each column's largest entry
        oracle = _jacobian(model, x, theta, bounds, sigma, DEFAULT_FD_STEP)
        scale = np.abs(oracle).max(axis=0)
        assert np.all(np.abs(analytic(x, theta) - oracle) <= 1e-7 * scale)


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

    def test_bootstrap_evaluates_model_once_per_candidate(self, monkeypatch):
        # closed-form derivatives that come with the values: 51 fits of a
        # few iterations each stay under 300 model calls (central
        # differences took 2233)
        rng = np.random.default_rng(7)
        x = np.linspace(-40, 40, 81)
        data = DataSeries(x, lorentzian(x, 0.3, 16.0, 1.0, 0.05)
                          + rng.normal(0, 0.02, len(x)))
        evals = []
        model = cascfluor.fit._lorentzian_model

        def counted(xx, th):
            evals.append(1)
            return model(xx, th)

        monkeypatch.setattr(cascfluor.fit, "_lorentzian_model", counted)
        res = fit_lorentzian(data, bootstrap=50)
        assert res.converged
        assert len(evals) < 300

    def test_flat_data_flagged(self):
        data = DataSeries(np.linspace(0, 10, 11), np.full(11, 3.0))
        res = fit_lorentzian(data)
        assert not res.converged

    def test_degenerate_bootstrap_raises_past_the_fallback(self, monkeypatch):
        # the fit converges and its refits degenerate: that is no flat line,
        # so it raises as the other fits do instead of reporting its start
        # values with infinite sigmas
        rng = np.random.default_rng(7)
        x = np.linspace(-40, 40, 81)
        data = DataSeries(x, lorentzian(x, 0.3, 16.0, 1.0, 0.05)
                          + rng.normal(0, 0.02, len(x)))
        real = cascfluor.fit.least_squares
        calls = []

        def refits_degenerate(*args, **kwargs):
            calls.append(1)
            if len(calls) > 1:
                raise DegenerateFitError("singular normal matrix")
            return real(*args, **kwargs)

        assert fit_lorentzian(data).converged
        monkeypatch.setattr(cascfluor.fit, "least_squares", refits_degenerate)
        with pytest.raises(BootstrapError, match="^0 of 20 bootstrap refits succeeded$"):
            fit_lorentzian(data, bootstrap=20)
        assert len(calls) == 21

    def test_flat_data_residual_is_weighted(self):
        # the fallback reports the weighted sum of squares like every fit:
        # errors of 0.5 quadruple it
        x = np.linspace(-10.0, 10.0, 21)
        plain = fit_lorentzian(DataSeries(x, np.full(21, 3.0)))
        weighted = fit_lorentzian(DataSeries(x, np.full(21, 3.0), np.full(21, 0.5)))
        assert not plain.converged and not weighted.converged
        assert plain.residual_norm > 0.0
        assert weighted.residual_norm == 4.0 * plain.residual_norm

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            fit_lorentzian(DataSeries(np.arange(4.0), np.arange(4.0)))

    def test_descending_x_gives_the_ascending_fit(self):
        # the half-maximum span of a descending line was negative, and so
        # was its fallback: the fwhm start fell outside its bounds
        x = np.linspace(-10.0, 10.0, 41)
        y = lorentzian(x, 0.5, 4.0, 10.0, 1.0)
        up = fit_lorentzian(DataSeries(x, y))
        down = fit_lorentzian(DataSeries(x[::-1], y[::-1]))
        assert up.converged and down.converged
        for name, value in up.params.items():
            assert down.params[name] == pytest.approx(value, rel=1e-9, abs=1e-12)

    def test_half_max_width_in_any_order(self):
        x = np.linspace(-10.0, 10.0, 41)
        y = lorentzian(x, 0.5, 4.0, 10.0, 1.0)
        order = np.random.default_rng(4).permutation(len(x))
        for args in ((10.0, 1.0), (0.0, 20.0)):  # a peak; no point above: range / 4
            width = cascfluor.fit._half_max_width(x, y, *args)
            assert width > 0
            assert cascfluor.fit._half_max_width(x[::-1], y[::-1], *args) == width
            assert cascfluor.fit._half_max_width(x[order], y[order], *args) == width


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

    @pytest.mark.parametrize("x, error, message", [
        ([10.0, 20.0, 40.0], DegenerateFitError, "need at least 4 points for a saturation fit"),
        ([10.0, 0.0, 40.0, 80.0], ValueError, "powers must be > 0"),
    ], ids=["three_points", "zero_power"])
    def test_bad_data_rejected(self, x, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            fit_saturation(DataSeries(np.array(x), np.ones(len(x))))

    def test_start_without_two_positive_rates(self, monkeypatch):
        # with no line through 1/rate to take a start from, the knee starts
        # at the median power and the ceiling at 1.5 times the largest rate
        starts = []

        def spy(model, data, init, **kwargs):
            starts.append(init)
            raise DegenerateFitError("stop")

        monkeypatch.setattr(cascfluor.fit, "least_squares", spy)
        x = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        with pytest.raises(DegenerateFitError, match="^stop$"):
            fit_saturation(DataSeries(x, np.array([-0.5, 0.0, 0.0, -0.25, 2.0])))
        assert starts == [[40.0, 3.0]]


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

    def test_descending_detuning_scan_starts_where_the_ascending_one_does(self, monkeypatch):
        # the dip-span start of a descending scan was negative and fell back
        # to half a linewidth
        deltas = np.linspace(-25.0, 25.0, 21)
        n_orig = np.full(len(deltas), 900.0)
        model = cascade_model_counts([DriveParams(0.4, float(d)) for d in deltas], n_orig,
                                     6.7, 0.85, 1.0, 0.9)
        starts = []
        best_start = cascfluor.fit._best_start

        def spy(filtered, cascaded, init_full, *args):
            starts.append(dict(init_full))
            return best_start(filtered, cascaded, init_full, *args)

        monkeypatch.setattr(cascfluor.fit, "_best_start", spy)
        up = fit_cascade(DataSeries(deltas, n_orig), DataSeries(deltas, model),
                         scan="detuning", s0=0.4)
        down = fit_cascade(DataSeries(deltas[::-1], n_orig), DataSeries(deltas[::-1], model[::-1]),
                           scan="detuning", s0=0.4)
        assert starts[0] == starts[1]
        assert starts[0]["width"] > 0.5 * DEFAULT_GAMMA_MHZ
        assert up.converged and down.converged
        for name, value in up.params.items():
            assert down.params[name] == pytest.approx(value, rel=1e-9)

    def test_zero_absorption_consistent(self):
        original, cascaded = self.synth_power_scan(alpha=0.0, noise=0.002, seed=3)
        res = fit_cascade(original, cascaded, scan="power",
                          fix_shift=0.0, fix_efficiency=0.9)
        assert res.params["alpha"] <= 2.0 * res.sigmas["alpha"] + 1e-9

    def test_zero_absorption_reports_width_unidentified(self):
        # every start hits a singular normal matrix, so the fit is redone
        # with the width pinned and reported with an infinite sigma
        original, cascaded = self.synth_power_scan(alpha=0.0)
        res = fit_cascade(original, cascaded, scan="power",
                          fix_shift=0.0, fix_efficiency=0.9)
        assert res.converged
        assert res.sigmas["width"] == math.inf
        assert res.params["alpha"] == pytest.approx(0.0, abs=1e-9)

    @staticmethod
    def fig4a_points(seed):
        """21 noisy detuning-scan points at s0 = 0.4, as `reproduce fig4a`."""
        deltas = np.linspace(-25.0, 25.0, 21)
        fwhm = power_broadened_width(0.4, 6.45, 8.44)
        n_orig = 1000.0 * lorentzian(deltas, 0.0, fwhm, 2 * excited_state_population(0.4),
                                     0.0) + 50.0
        drives = [DriveParams(0.4, float(d)) for d in deltas]
        model = cascade_model_counts(drives, n_orig, 6.7, 0.85, 0.0, 0.9)
        noisy = model * (1.0 + 0.03 * np.random.default_rng(seed).standard_normal(21))
        return DataSeries(deltas, n_orig), DataSeries(deltas, noisy, 0.03 * model)

    @staticmethod
    def fig3_points(seed):
        """8 noisy power-scan points, as `reproduce fig3`."""
        ladder = TestFitCascade.LADDER
        n_orig = 1200.0 * ladder / (1.0 + ladder)
        drives = [DriveParams(float(s)) for s in ladder]
        model = cascade_model_counts(drives, n_orig, 6.7, 0.85, 0.0, 0.9)
        noisy = model * (1.0 + 0.03 * np.random.default_rng(seed).standard_normal(8))
        return DataSeries(ladder, n_orig), DataSeries(ladder, noisy, 0.03 * model)

    FIGURE_FITS = {
        "fig3": (fig3_points, dict(scan="power", fix_shift=0.0, fix_efficiency=0.9)),
        "fig4a": (fig4a_points, dict(scan="detuning", s0=0.4, fix_efficiency=0.9)),
    }

    @staticmethod
    def record_evaluations(monkeypatch):
        """(profile, counts) of every filtered_counts call fit_cascade makes."""
        evaluated = []
        real = cascfluor.fit.filtered_counts

        def recorded(stack, deltas, prof):
            out = real(stack, deltas, prof)
            evaluated.append((prof, out[0]))
            return out

        monkeypatch.setattr(cascfluor.fit, "filtered_counts", recorded)
        return evaluated

    @pytest.mark.parametrize("case", ["power_scan", "detuning_scan",
                                      "zero_absorption_fallback"])
    def test_every_evaluation_is_the_model_bit_for_bit(self, monkeypatch, case):
        # the fit minimizes exactly the model that cascade_model_counts
        # reports: each candidate is filtered on its own width's model grid
        if case == "power_scan":
            original, cascaded = self.fig3_points(1)
            kwargs = self.FIGURE_FITS["fig3"][1]
        elif case == "detuning_scan":
            original, cascaded = self.fig4a_points(1)
            kwargs = self.FIGURE_FITS["fig4a"][1]
        else:
            original, cascaded = self.synth_power_scan(alpha=0.0)
            kwargs = self.FIGURE_FITS["fig3"][1]
        s0, delta = (original.x, 0.0) if kwargs["scan"] == "power" else (0.4, original.x)
        drives = Drives.of(s0, delta)
        evaluated = self.record_evaluations(monkeypatch)
        res = fit_cascade(original, cascaded, **kwargs)
        assert res.converged
        assert (res.sigmas["width"] == math.inf) == (case == "zero_absorption_fallback")
        for prof, counts in evaluated:
            model = cascade_model_counts(drives, original.y, prof.width, prof.alpha,
                                         prof.shift, prof.path_efficiency)
            np.testing.assert_array_equal(counts, model)

    @pytest.mark.parametrize("filt", [(5.0, 0.5, 0.0), (5.0, 1.0, 0.0), (2.0, 2.0, -1.0),
                                      (0.85, 6.7, 0.0)],
                             ids=lambda f: "_".join(map(str, f)))
    def test_noiseless_detuning_scan_closes(self, filt):
        # the fit's model is the model that made the data, so a noiseless
        # scan comes back to rounding, narrow filters too
        alpha, width, shift = filt
        deltas = np.linspace(-20.0, 20.0, 21)
        n_orig = np.full(len(deltas), 900.0)
        model = cascade_model_counts(Drives.of(0.4, deltas), n_orig, width, alpha, shift,
                                     0.9)
        res = fit_cascade(DataSeries(deltas, n_orig), DataSeries(deltas, model),
                          scan="detuning", s0=0.4, fix_efficiency=0.9)
        assert res.converged
        got = [res.params[n] for n in ("width", "alpha", "shift")]
        assert got == pytest.approx([width, alpha, shift], rel=1e-12)

    @pytest.mark.parametrize("alpha, n_starts", [(0.85, 1), (0.85, 5), (0.0, 5)],
                             ids=["1_start", "5_starts", "zero_absorption_fallback"])
    def test_each_spectrum_is_sampled_and_normalized_once(self, monkeypatch, alpha,
                                                          n_starts):
        # however many starts, iterations and fallback refits a fit runs, it
        # samples and normalizes its spectra once per distinct model step of
        # the candidates it evaluates, and never through the cascade model's
        # own sampling
        original, cascaded = self.synth_power_scan(alpha=alpha)
        sampled = {"fit.sample_spectrum": [], "cascade._sample": []}
        real_sample_spectrum, real_sample = cascfluor.fit.sample_spectrum, cascfluor.cascade._sample

        def counted(drives, counts, step):
            sampled["fit.sample_spectrum"].append(step)
            return real_sample_spectrum(drives, counts, step)

        def counted_stack(*args):
            # the sampler as cascaded_counts calls it
            sampled["cascade._sample"].append(args)
            return real_sample(*args)
        monkeypatch.setattr(cascfluor.fit, "sample_spectrum", counted)
        monkeypatch.setattr(cascfluor.cascade, "_sample", counted_stack)
        monkeypatch.setattr(cascfluor.fit, "N_STARTS", n_starts)
        evaluated = self.record_evaluations(monkeypatch)
        res = fit_cascade(original, cascaded, scan="power", fix_shift=0.0,
                          fix_efficiency=0.9)
        assert res.converged
        steps = [_model_step(DEFAULT_GAMMA_MHZ, prof.width) for prof, _ in evaluated]
        assert sorted(sampled["fit.sample_spectrum"]) == sorted(set(steps))
        assert sampled["cascade._sample"] == []

    def test_detuning_fit_filters_once_per_evaluation(self, monkeypatch):
        # each candidate the engine evaluates is one filtered_counts call
        # that returns the counts and their derivatives together, and no
        # call goes to a separate Jacobian: 5 starts of about 7 iterations
        # each stay under 60 (central differences took 268 model calls)
        original, cascaded = self.fig4a_points(seed=1)
        evals, filters = [], []
        real_filter = cascfluor.fit.filtered_counts

        def counted_filter(*args):
            filters.append(1)
            return real_filter(*args)

        def counting(model, *args, **kwargs):
            def counted(x, th):
                evals.append(1)
                return model(x, th)
            return least_squares(counted, *args, **kwargs)

        monkeypatch.setattr(cascfluor.fit, "filtered_counts", counted_filter)
        monkeypatch.setattr(cascfluor.fit, "least_squares", counting)
        res = fit_cascade(original, cascaded, scan="detuning", s0=0.4, fix_efficiency=0.9)
        assert res.converged
        assert len(filters) == len(evals) <= 60

    @pytest.mark.parametrize("norms, winner", [
        pytest.param([1.0, np.nextafter(1.0, 0.0), 2.0, 2.0, 2.0], 0, id="last_bit_tie"),
        pytest.param([1.0, 0.5, 2.0, 2.0, 2.0], 1, id="clearly_lower"),
    ])
    def test_multi_start_keeps_the_earliest_on_a_tie(self, monkeypatch, norms, winner):
        original, cascaded = self.synth_power_scan()
        calls = []

        def fake(model, data, init, bounds, names):
            calls.append(1)
            k = len(calls) - 1
            return FitResult(dict(zip(names, init)), dict.fromkeys(names, 0.1),
                             norms[k], True, k)

        monkeypatch.setattr(cascfluor.fit, "least_squares", fake)
        res = fit_cascade(original, cascaded, scan="power",
                          fix_shift=0.0, fix_efficiency=0.9)
        assert len(calls) == 5
        assert res.iterations == winner
        assert res.residual_norm == norms[winner]

    @pytest.mark.parametrize("seed", [1, 7])
    def test_matches_scipy_least_squares(self, seed):
        optimize = pytest.importorskip("scipy.optimize")
        original, cascaded = self.fig4a_points(seed)
        drives = [DriveParams(0.4, float(d)) for d in original.x]
        start = np.array([DEFAULT_GAMMA_MHZ, 1.0, 0.0])
        lo, hi = [0.05, 0.0, -52.0], [100.0 * DEFAULT_GAMMA_MHZ, 50.0, 52.0]

        def residuals(th):
            model = cascade_model_counts(drives, original.y, *th, 0.9)
            return (cascaded.y - model) / cascaded.y_err

        ref = optimize.least_squares(residuals, start, jac="3-point", bounds=(lo, hi),
                                     xtol=1e-15, ftol=1e-15, gtol=1e-15).x
        stack = sample_spectrum(drives, original.y)

        def profile(th):
            return AbsorptionProfile(th[1], th[0], th[2], 0.9)

        def model(_x, th):
            counts, grad = filtered_counts(stack, original.x, profile(th))
            return counts, grad[:, :3]

        engine = least_squares(model, cascaded, start, bounds=list(zip(lo, hi)),
                               names=["width", "alpha", "shift"])
        res = fit_cascade(original, cascaded, scan="detuning", s0=0.4, fix_efficiency=0.9)
        for fitted in (engine, res):
            assert fitted.converged
            got = [fitted.params[n] for n in ("width", "alpha", "shift")]
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-6)

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

    @pytest.mark.parametrize("kwargs, orig, message", [
        (dict(scan="bogus"), 500.0, "unknown scan type 'bogus'"),
        (dict(), 0.0, "original counts must be > 0"),
        (dict(fix_width=math.nan), 500.0, "fix_width must be finite, got nan"),
        (dict(fix_width=math.inf), 500.0, "fix_width must be finite, got inf"),
        (dict(fix_shift=-math.inf), 500.0, "fix_shift must be finite, got -inf"),
        (dict(fix_efficiency=math.nan), 500.0, "fix_efficiency must be finite, got nan"),
        (dict(fix_width=-1.0), 500.0, r"fix_width must be > 0, got -1\.0"),
        (dict(fix_width=0.0), 500.0, r"fix_width must be > 0, got 0\.0"),
        (dict(fix_efficiency=2.0), 500.0, r"fix_efficiency must be in \(0, 1\], got 2\.0"),
        (dict(fix_efficiency=0.0), 500.0, r"fix_efficiency must be in \(0, 1\], got 0\.0"),
    ], ids=["unknown_scan", "zero_original", "fix_width_nan", "fix_width_inf",
            "fix_shift_inf", "fix_efficiency_nan", "fix_width_negative", "fix_width_zero",
            "fix_efficiency_above_one", "fix_efficiency_zero"])
    def test_bad_arguments_rejected(self, kwargs, orig, message):
        x = np.linspace(0.5, 4.0, 6)
        y = np.full(6, 500.0)
        y[2] = orig
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_cascade(DataSeries(x, y), DataSeries(x, np.full(6, 250.0)), **kwargs)

    def test_every_start_degenerate(self):
        # no absorption with the width pinned leaves the shift unidentified,
        # and there is no fallback for the shift
        # the message names each distinct failure once, with its count
        original, cascaded = self.synth_power_scan(alpha=0.0)
        with pytest.raises(DegenerateFitError,
                           match=r"^singular normal matrix \((\d) of 5 starts\)"
                                 r"(; singular normal matrix at the optimum \((\d) of 5 starts\))?$"
                           ) as info:
            fit_cascade(original, cascaded, scan="power", fix_width=6.7, fix_efficiency=0.9)
        assert sum(map(int, re.findall(r"\((\d) of", str(info.value)))) == 5

    def test_repeated_failure_is_named_once_with_its_count(self):
        # an enormous fixed shift leaves every start's normal matrix singular
        original, cascaded = self.synth_power_scan(noise=0.03, seed=3)
        with pytest.raises(DegenerateFitError,
                           match=r"^singular normal matrix \(5 of 5 starts\)$"):
            fit_cascade(original, cascaded, scan="power", fix_shift=1e308)

    @pytest.mark.parametrize("seed", [-1, -(2 ** 70)])
    def test_negative_seed_rejected(self, seed):
        original, cascaded = self.synth_power_scan()
        with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
            fit_cascade(original, cascaded, seed=seed)

    def test_mismatched_abscissae_rejected(self):
        a = DataSeries(np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4))
        b = DataSeries(np.array([1.0, 2.0, 3.0, 5.0]), np.ones(4))
        with pytest.raises(ValueError):
            fit_cascade(a, b)

    def test_detuning_scan_requires_s0(self):
        a = DataSeries(np.linspace(-5, 5, 6), np.ones(6))
        with pytest.raises(ValueError):
            fit_cascade(a, a, scan="detuning")

    def test_power_scan_refuses_s0(self):
        a = DataSeries(np.linspace(0.5, 4.0, 6), np.ones(6))
        with pytest.raises(ValueError, match="only for scan='detuning'"):
            fit_cascade(a, a, scan="power", s0=1.0)

    def test_profile_bridge(self):
        original, cascaded = self.synth_power_scan()
        res = fit_cascade(original, cascaded, scan="power",
                          fix_shift=0.0, fix_efficiency=0.9)
        prof = AbsorptionProfile(**res.params)
        assert isinstance(prof, AbsorptionProfile)
        assert prof.width == res.params["width"]
        assert prof.path_efficiency == 0.9


def bits(result):
    """A FitResult's names, numbers as exact bits, and flags."""
    return (list(result.params), [v.hex() for v in result.params.values()],
            list(result.sigmas), [v.hex() for v in result.sigmas.values()],
            result.residual_norm.hex(), result.converged, result.iterations)


class TestReferenceEngine:
    """Each fit on the engine of tests/reference_fit.py, which calls the
    model and the Jacobian separately, and again on the package's: params,
    sigmas, residual norm, convergence and iterations agree bit for bit.
    The fused models' values are those of the value paths they replaced:
    the Lorentzian's is checked here, the cascade kernel's in
    test_cascade.py."""

    S0 = np.array([0.1, 0.4, 0.8, 1.6, 2.5, 4.0, 8.0])

    @staticmethod
    def assert_matches_reference(monkeypatch, fit):
        fused = fit()
        monkeypatch.setattr(cascfluor.fit, "least_squares", fused_least_squares)
        assert bits(fused) == bits(fit())

    @staticmethod
    def single_series_fit(name, bootstrap):
        """One of the four single-series fits on seeded noisy data."""
        rng = np.random.default_rng(9)
        s0 = TestReferenceEngine.S0
        if name == "lorentzian":
            x = np.linspace(-40.0, 40.0, 81)
            y = lorentzian(x, 0.3, 16.0, 1.0, 0.05) + rng.normal(0.0, 0.02, len(x))
            return fit_lorentzian(DataSeries(x, y), bootstrap)
        if name == "saturation":
            powers = np.array([10.0, 20.0, 40.0, 80.0, 121.0, 160.0, 240.0, 400.0, 600.0])
            y = saturation_rate(powers, 121.0, 3.0) * (1.0 + 0.02 * rng.standard_normal(9))
            return fit_saturation(DataSeries(powers, y), bootstrap)
        if name == "broadening":
            y = power_broadened_width(s0, 6.45, 8.44) * (1.0 + 0.05 * rng.standard_normal(7))
            return fit_power_broadening(DataSeries(s0, y), bootstrap)
        y = 0.25 * s0 + 0.5 + rng.normal(0.0, 0.1, len(s0))
        return fit_shift_slope(DataSeries(s0, y, np.full(len(s0), 0.1)), bootstrap)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("figure", TestFitCascade.FIGURE_FITS)
    def test_cascade_fit_bit_for_bit(self, monkeypatch, figure, seed):
        points, kwargs = TestFitCascade.FIGURE_FITS[figure]
        self.assert_matches_reference(
            monkeypatch, lambda: fit_cascade(*points(seed), **kwargs))

    @pytest.mark.parametrize("name, bootstrap", [
        ("lorentzian", 50),
        *((name, b) for name in ("saturation", "broadening", "slope") for b in (0, 20)),
    ])
    def test_single_series_fit_bit_for_bit(self, monkeypatch, name, bootstrap):
        self.assert_matches_reference(
            monkeypatch, lambda: self.single_series_fit(name, bootstrap))

    @pytest.mark.parametrize("seed", [1, 3, 7, 11])
    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "yerr"])
    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_bootstrapped_lorentzian_bit_for_bit(self, monkeypatch, seed, weighted,
                                                 descending):
        rng = np.random.default_rng(seed)
        x = np.linspace(-40.0, 40.0, 81)
        err = 0.02 * (1.0 + rng.uniform(0.0, 1.0, len(x)))
        y = (lorentzian(x, rng.uniform(-3.0, 3.0), 16.0, 1.0, 0.05)
             + err * rng.standard_normal(len(x)))
        order = slice(None, None, -1 if descending else 1)
        data = DataSeries(x[order], y[order], err[order] if weighted else None)
        self.assert_matches_reference(monkeypatch, lambda: fit_lorentzian(data, 20))

    def test_both_engines_raise_on_degenerate_refits(self):
        # a linear model whose normal matrix has condition number 4.8e14,
        # started at its optimum: the fit stops on the gradient test before
        # any conditioning check, and every resampled refit fails that check
        x = np.linspace(1.0, 2.0, 8)
        design = np.column_stack([x, x + 3e-7 * x**2])
        q, _ = np.linalg.qr(design)
        resid = 0.01 * np.cos(9.0 * x)
        resid -= q @ (q.T @ resid)  # orthogonal to the columns: no gradient
        data = DataSeries(x, design @ [1.0, 1.0] + resid)

        def model(_x, th):
            return design @ th, design

        for engine in (least_squares, fused_least_squares):
            assert engine(model, data, [1.0, 1.0]).iterations == 0
            with pytest.raises(BootstrapError, match="^0 of 5 bootstrap refits succeeded$"):
                engine(model, data, [1.0, 1.0], bootstrap=5)

    @pytest.mark.parametrize("good", [0, 1, 2])
    def test_both_engines_need_two_good_refits(self, monkeypatch, good):
        # each engine's own least_squares runs the fit; the refits, which go
        # through the module's name, degenerate after the first `good`
        x = np.linspace(0.0, 5.0, 6)
        data = DataSeries(x, 2.0 * x + 1.0 + 0.1 * np.cos(x))

        def outcome(module, fit):
            real, refits = module.least_squares, []

            def some_degenerate(*args, **kwargs):
                refits.append(1)
                if len(refits) > good:
                    raise DegenerateFitError("singular normal matrix")
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "least_squares", some_degenerate)
            try:
                result = bits(fit(real))
            except BootstrapError as exc:
                result = str(exc)
            assert len(refits) == 5
            return result

        package = outcome(cascfluor.fit,
                          lambda engine: engine(line, data, [1.0, 0.0], bootstrap=5))
        reference = outcome(reference_fit, lambda engine: engine(
            lambda xx, th: line(xx, th)[0], data, [1.0, 0.0], bootstrap=5,
            jac=lambda xx, th: line(xx, th)[1]))
        assert package == reference
        assert (package == f"{good} of 5 bootstrap refits succeeded") == (good < 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_lorentzian_model_is_lorentzian_and_its_jacobian(self, seed):
        rng = np.random.default_rng(seed)
        th = np.array([rng.uniform(-3, 3), rng.uniform(0.5, 20), rng.uniform(0.1, 4),
                       rng.uniform(-1, 1)])
        x = np.sort(rng.uniform(-40.0, 40.0, 33))
        values, jac = _lorentzian_model(x, th)
        assert values.tobytes() == lorentzian(x, *th).tobytes()
        assert jac.tobytes() == lorentzian_jac(x, th).tobytes()


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

    @pytest.mark.parametrize("x, message", [
        (np.full(4, 1.0), "degenerate abscissae"),
        (np.array([0.4, 2.5]), "need at least 3 points for a broadening fit"),
    ], ids=["degenerate_abscissae", "two_points"])
    def test_degenerate_data(self, x, message):
        data = DataSeries(x, np.linspace(10, 11, len(x)))
        with pytest.raises(DegenerateFitError, match=f"^{message}$"):
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

    @pytest.mark.parametrize("x, message", [
        (np.full(3, 2.0), "degenerate abscissae"),
        (np.array([2.0]), "need at least 2 points for a line"),
    ], ids=["degenerate_abscissae", "one_point"])
    def test_degenerate_data(self, x, message):
        data = DataSeries(x, np.arange(float(len(x))))
        with pytest.raises(DegenerateFitError, match=f"^{message}$"):
            fit_shift_slope(data)


class TestDataSeries:
    @pytest.mark.parametrize("y, y_err, message", [
        (np.arange(4.0), None, "x and y must be 1-d arrays of equal length"),
        (np.arange(3.0), np.ones(4), "y_err must match x in length"),
    ], ids=["y", "y_err"])
    def test_length_mismatch(self, y, y_err, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DataSeries(np.arange(3.0), y, y_err)

    def test_bad_errors(self):
        with pytest.raises(ValueError):
            DataSeries(np.arange(3.0), np.arange(3.0), np.array([1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("column", ["x", "y", "y_err"])
    def test_non_finite_rejected(self, column, bad):
        cols = {"x": np.arange(3.0), "y": np.arange(3.0), "y_err": np.ones(3)}
        cols[column][1] = bad
        with pytest.raises(ValueError, match="finite"):
            DataSeries(**cols)

    def test_nan_datum_fails_before_the_fit(self):
        # a NaN residual once made least_squares report converged=True at
        # the start parameters with residual_norm=nan
        x = np.linspace(-10, 10, 21)
        y = lorentzian(x, 0.5, 4.0, 9.0, 1.0)
        y[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            least_squares(_lorentzian_model, DataSeries(x, y), [0.5, 4, 9, 1])
        with pytest.raises(ValueError, match="finite"):
            fit_lorentzian(DataSeries(x, y))


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
        with pytest.raises(ParseError, match=":1:"):
            read_series(path)

    def test_series_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("x,y\n1,2\n3,oops\n")
        with pytest.raises(ParseError, match=":3:"):
            read_series(path)

    @pytest.mark.parametrize("text, lineno", [
        pytest.param("x,y\n1,nan\n", 2, id="y_nan"),
        pytest.param("x,y\n1,2\ninf,3\n", 3, id="x_inf"),
        pytest.param("x,y,yerr\n1,2,0.1\n2,3,nan\n", 3, id="yerr_nan"),
    ])
    def test_series_non_finite_reports_line(self, tmp_path, text, lineno):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f":{lineno}:"):
            read_series(path)

    @pytest.mark.parametrize("text, lineno, value", [
        pytest.param("x,y,yerr\n0,1,1\n1,2,0\n", 3, "0", id="yerr_zero"),
        pytest.param("# a=1\nx,y,yerr\n0,1,1\n\n1,2,-0.5\n2,3,0\n", 5, "-0.5",
                     id="yerr_negative_after_meta_and_blank"),
    ])
    def test_series_non_positive_yerr_reports_line(self, tmp_path, text, lineno, value):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"series.csv:{lineno}: yerr must be > 0, "
                                             f"got '{value}'$"):
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

    def test_report_roundtrip_keeps_an_infinite_sigma(self, tmp_path):
        # the zero-absorption fallback reports an unidentified width this way
        result = FitResult({"width": 5.2, "alpha": 0.0}, {"width": math.inf, "alpha": 0.01},
                           0.5, True, 4)
        path = tmp_path / "report.csv"
        write_report_csv(path, result)
        assert read_report_csv(path) == result

    @pytest.mark.parametrize("row, lineno", [
        pytest.param("width,nan,0.1", 2, id="value_nan"),
        pytest.param("width,inf,0.1", 2, id="value_inf"),
        pytest.param("residual_norm,nan,", 3, id="residual_norm_nan"),
    ])
    def test_report_non_finite_value_reports_line(self, tmp_path, row, lineno):
        rows = ["width,6.7,0.1", "residual_norm,0.5,", "converged,1,", "iterations,3,"]
        rows[lineno - 2] = row
        path = tmp_path / "report.csv"
        path.write_text("name,value,sigma\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=f":{lineno}: non-finite"):
            read_report_csv(path)

    @pytest.mark.parametrize("rows, lineno", [
        pytest.param(["width,6.7,nan"], 2, id="sigma_nan"),
        pytest.param(["width,6.7,-0.1"], 2, id="sigma_negative"),
        pytest.param(["width,6.7,-inf"], 2, id="sigma_minus_inf"),
        pytest.param(["width,6.7,0.1", "width,6.8,0.1"], 3, id="param_repeated"),
        pytest.param([",6.7,0.1"], 2, id="param_unnamed"),
        pytest.param(["width,6.7,0.1", "residual_norm,-1.0,"], 3, id="residual_norm_negative"),
        pytest.param(["width,6.7,0.1", "residual_norm,0.5,0.1"], 3, id="residual_norm_sigma"),
        pytest.param(["width,6.7,0.1", "residual_norm,0.5,", "converged,7,"], 4,
                     id="converged_not_a_flag"),
        pytest.param(["width,6.7,0.1", "residual_norm,0.5,", "converged,1,",
                      "iterations,3.9,"], 5, id="iterations_fraction"),
        pytest.param(["width,6.7,0.1", "residual_norm,0.5,", "converged,1,",
                      "iterations,-2,"], 5, id="iterations_negative"),
        pytest.param(["width,6.7,0.1", "residual_norm,0.5,", "converged,1,",
                      "iterations,3,", "converged,0,"], 6, id="bookkeeping_repeated"),
    ])
    def test_report_row_rules_report_line(self, tmp_path, rows, lineno):
        base = ["width,6.7,0.1", "residual_norm,0.5,", "converged,1,", "iterations,3,"]
        path = tmp_path / "report.csv"
        path.write_text("name,value,sigma\n" + "\n".join(rows + base[len(rows):]) + "\n")
        with pytest.raises(ParseError, match=f":{lineno}: "):
            read_report_csv(path)

    def test_report_missing_bookkeeping_row(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("name,value,sigma\nwidth,6.7,0.1\nresidual_norm,0.5,\nconverged,1,\n")
        with pytest.raises(ParseError, match="missing 'iterations'"):
            read_report_csv(path)
