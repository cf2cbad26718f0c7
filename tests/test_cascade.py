"""Beer-Lambert filtering of the emission spectrum and ratio curves."""

import math

import numpy as np
import pytest

from cascfluor.cascade import (
    AbsorptionProfile,
    UnnormalizedSpectrumError,
    cascaded_count,
    cascaded_counts,
    filtered_counts,
    lorentzian_profile,
    ratio_curve,
    transmission,
)
from cascfluor.spectrum import (
    DEFAULT_GAMMA_MHZ,
    DriveParams,
    normalize_to_counts,
    sample_spectrum,
)
from fd_oracle import DEFAULT_FD_STEP, _jacobian

GAMMA = DEFAULT_GAMMA_MHZ
FITTED = AbsorptionProfile(alpha=0.85, width=6.7, shift=0.0, path_efficiency=0.9)


def normalized_spectrum(s0, delta=0.0, counts=1000.0):
    return normalize_to_counts(sample_spectrum(DriveParams(s0, delta)), counts)


class TestAbsorptionProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbsorptionProfile(alpha=-0.1, width=6.7)
        with pytest.raises(ValueError):
            AbsorptionProfile(alpha=0.5, width=0.0)
        with pytest.raises(ValueError):
            AbsorptionProfile(alpha=0.5, width=6.7, path_efficiency=0.0)
        with pytest.raises(ValueError):
            AbsorptionProfile(alpha=0.5, width=6.7, path_efficiency=1.2)

    @pytest.mark.parametrize("fields", [
        dict(alpha=math.nan, width=6.7), dict(alpha=0.85, width=math.inf),
        dict(alpha=math.nan, width=math.inf), dict(alpha=math.inf, width=6.7),
        dict(alpha=0.85, width=6.7, shift=math.nan),
    ])
    def test_non_finite_rejected(self, fields):
        with pytest.raises(ValueError):
            AbsorptionProfile(**fields)

    def test_default_efficiency(self):
        assert AbsorptionProfile(alpha=0.85, width=6.7).path_efficiency == 0.9


class TestLorentzianProfile:
    def test_peak_at_center(self):
        prof = AbsorptionProfile(alpha=1.0, width=6.7, shift=3.0)
        assert lorentzian_profile(3.0, prof) == pytest.approx(1.0)

    def test_half_at_half_width(self):
        prof = AbsorptionProfile(alpha=1.0, width=6.7, shift=3.0)
        assert lorentzian_profile(3.0 + 6.7 / 2, prof) == pytest.approx(0.5)
        assert lorentzian_profile(3.0 - 6.7 / 2, prof) == pytest.approx(0.5)

    def test_unshifted_fitted_width(self):
        prof = AbsorptionProfile(alpha=0.85, width=6.7)
        assert lorentzian_profile(0.0, prof) == pytest.approx(1.0)


class TestTransmission:
    def test_no_absorber(self):
        prof = AbsorptionProfile(alpha=0.0, width=6.7, path_efficiency=0.8)
        omega = np.linspace(-50, 50, 11)
        np.testing.assert_allclose(transmission(omega, prof), 0.8)

    def test_line_center_depth(self):
        prof = AbsorptionProfile(alpha=0.85, width=6.7, path_efficiency=1.0)
        assert transmission(0.0, prof) == pytest.approx(math.exp(-0.85))
        assert transmission(0.0, prof) == pytest.approx(0.4274, abs=1e-4)

    def test_off_resonance_limit(self):
        prof = AbsorptionProfile(alpha=0.85, width=6.7, path_efficiency=0.9)
        assert transmission(1e6, prof) == pytest.approx(0.9, rel=1e-9)

    def test_monotone_away_from_center(self):
        prof = AbsorptionProfile(alpha=0.85, width=6.7, shift=2.0)
        omega = 2.0 + np.linspace(0.0, 40.0, 81)
        t = transmission(omega, prof)
        assert np.all(np.diff(t) > 0)


class TestCascadedCount:
    def test_identity_filter(self):
        spec = normalized_spectrum(0.4)
        prof = AbsorptionProfile(alpha=0.0, width=6.7, path_efficiency=1.0)
        assert cascaded_count(spec, prof) == pytest.approx(1000.0, rel=1e-9)

    def test_off_resonant_drive_escapes_filter(self):
        spec = normalized_spectrum(0.4, delta=30.0)
        got = cascaded_count(spec, FITTED, drive_detuning=30.0)
        assert got == pytest.approx(0.9 * 1000.0, abs=0.03 * 1000.0)

    def test_resonant_drive_absorbed_more(self):
        resonant = cascaded_count(normalized_spectrum(0.4), FITTED)
        detuned = cascaded_count(
            normalized_spectrum(0.4, delta=30.0), FITTED, drive_detuning=30.0
        )
        assert resonant < detuned

    def test_unnormalized_rejected(self):
        with pytest.raises(UnnormalizedSpectrumError):
            cascaded_count(sample_spectrum(DriveParams(0.4)), FITTED)

    @pytest.mark.parametrize("s0", [0.25, 1.0, 4.0])
    def test_bounded_by_path_efficiency(self, s0):
        spec = normalized_spectrum(s0)
        got = cascaded_count(spec, FITTED)
        assert 0.0 < got < FITTED.path_efficiency * 1000.0

    def test_strictly_decreasing_in_alpha(self):
        spec = normalized_spectrum(1.0)
        counts = [
            cascaded_count(
                spec, AbsorptionProfile(alpha=a, width=6.7, path_efficiency=0.9)
            )
            for a in [0.0, 0.2, 0.5, 0.85, 1.5, 3.0]
        ]
        assert all(b < a for a, b in zip(counts, counts[1:]))

    def test_narrow_filter_limit(self):
        # as the filter narrows it eats only the elastic line at its center
        spec = normalized_spectrum(2.0)
        prof = AbsorptionProfile(alpha=0.85, width=0.05, path_efficiency=1.0)
        expected = spec.total_weight() - spec.elastic_weight * (1 - math.exp(-0.85))
        got = cascaded_count(spec, prof)
        # residual nibble on the density scales with width * peak density
        slack = float(spec.density.max()) * prof.width * 3
        assert got == pytest.approx(expected, abs=slack)


class TestCascadedCounts:
    def test_each_point_is_its_normalized_spectrum_filtered(self):
        drives = [DriveParams(0.4, -5.0), DriveParams(2.5), DriveParams(8.0, 12.0)]
        counts = [700.0, 1000.0, 1300.0]
        got = cascaded_counts(drives, counts, FITTED)
        expected = [
            cascaded_count(normalized_spectrum(d.s0, d.delta, n), FITTED, d.delta)
            for d, n in zip(drives, counts)
        ]
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, expected)


class TestFilteredCounts:
    S0 = [0.05, 0.4, 2.5, 8.0]
    DELTAS = [-30.0, -7.0, 0.0, 3.0, 25.0]
    # (width, alpha, shift, path_efficiency); the fit bounds the shift to
    # the +-52 MHz grid
    FILTERS = {
        "reference": (6.7, 0.85, 0.0, 0.9),
        "deep_detuned": (12.0, 3.0, -4.5, 0.6),
        "no_absorption": (6.7, 0.0, 1.0, 0.9),
        "shift_at_upper_bound": (6.7, 0.85, 52.0, 0.9),
        "shift_at_lower_bound": (6.7, 0.85, -52.0, 0.9),
    }

    def spectra(self, s0):
        return [normalized_spectrum(s0, d) for d in self.DELTAS]

    @staticmethod
    def plain_counts(specs, deltas, theta):
        """The filter integral in plain numpy, which also takes alpha < 0."""
        width, alpha, shift, eff = theta
        out = []
        for spec, delta in zip(specs, deltas):
            def trans(omega):
                u = (omega - (shift - delta)) / width
                return eff * np.exp(-alpha / (1.0 + 4.0 * u ** 2))
            out.append(np.trapezoid(spec.density * trans(spec.offsets), spec.offsets)
                       + spec.elastic_weight * trans(0.0))
        return np.array(out)

    @pytest.mark.parametrize("s0", S0)
    @pytest.mark.parametrize("name", FILTERS)
    def test_value_is_the_old_expression_exactly(self, s0, name):
        width, alpha, shift, eff = self.FILTERS[name]
        prof = AbsorptionProfile(alpha, width, shift, eff)
        for spec, delta in zip(self.spectra(s0), self.DELTAS):
            old = float(np.trapezoid(spec.density * transmission(spec.offsets, prof, delta),
                                     spec.offsets)
                        + spec.elastic_weight * transmission(0.0, prof, delta))
            assert cascaded_count(spec, prof, delta) == old

    @pytest.mark.parametrize("s0", S0)
    @pytest.mark.parametrize("name", FILTERS)
    def test_gradient_matches_central_differences(self, s0, name):
        theta = np.array(self.FILTERS[name])
        specs = self.spectra(s0)
        prof = AbsorptionProfile(theta[1], theta[0], theta[2], theta[3])
        counts, jac = filtered_counts(specs, self.DELTAS, prof, gradient=True)
        np.testing.assert_array_equal(counts, filtered_counts(specs, self.DELTAS, prof))
        unbounded = (np.full(4, -np.inf), np.full(4, np.inf))
        oracle = _jacobian(lambda _x, th: self.plain_counts(specs, self.DELTAS, th),
                           np.zeros(len(specs)), theta, unbounded, np.ones(len(specs)),
                           DEFAULT_FD_STEP)
        # relative to each column's largest entry, since d/dshift vanishes
        # on a symmetric point; without absorption two columns are all zero
        scale = np.abs(oracle).max(axis=0)
        assert np.all(np.abs(jac - oracle) <= 1e-7 * scale)

    def test_no_absorption_leaves_width_and_shift_unidentified(self):
        width, alpha, shift, eff = self.FILTERS["no_absorption"]
        _, jac = filtered_counts(self.spectra(0.4), self.DELTAS,
                                 AbsorptionProfile(alpha, width, shift, eff), gradient=True)
        assert np.all(jac[:, [0, 2]] == 0.0)
        assert np.all(jac[:, 1] < 0.0)

    def test_each_count_is_cascaded_count(self):
        specs = self.spectra(2.5)
        expected = [cascaded_count(s, FITTED, d) for s, d in zip(specs, self.DELTAS)]
        np.testing.assert_array_equal(filtered_counts(specs, self.DELTAS, FITTED), expected)

    def test_unnormalized_rejected(self):
        specs = [normalized_spectrum(0.4), sample_spectrum(DriveParams(0.4, 3.0))]
        with pytest.raises(UnnormalizedSpectrumError):
            filtered_counts(specs, [0.0, 3.0], FITTED)

    def test_grids_must_match(self):
        fine = normalized_spectrum(0.4)
        coarse = normalize_to_counts(sample_spectrum(DriveParams(0.4), grid_step=0.104), 1e3)
        wide = normalize_to_counts(sample_spectrum(DriveParams(0.4, 0.0, 6.0)), 1e3)
        for other in (coarse, wide):
            with pytest.raises(ValueError, match="grid"):
                filtered_counts([fine, other], [0.0, 0.0], FITTED)

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            filtered_counts(self.spectra(0.4), self.DELTAS[:-1], FITTED)


class TestRatioCurve:
    def test_flat_at_path_efficiency_without_absorber(self):
        prof = AbsorptionProfile(alpha=0.0, width=6.7, path_efficiency=0.9)
        ratios = ratio_curve([-10.0, 0.0, 10.0], 0.4, prof, [500.0, 800.0, 500.0])
        assert isinstance(ratios, np.ndarray)
        np.testing.assert_allclose(ratios, 0.9, rtol=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ratio_curve([0.0, 1.0], 0.4, FITTED, [100.0])

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            ratio_curve([0.0], 0.4, FITTED, [0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_counts_rejected(self, bad):
        with pytest.raises(ValueError):
            ratio_curve([-1.0, 0.0, 1.0], 0.4, FITTED, [1.0, bad, 1.0])

    def test_dip_sits_at_filter_shift(self):
        prof = AbsorptionProfile(alpha=0.85, width=6.7, shift=1.0, path_efficiency=0.9)
        deltas = np.arange(-6.0, 6.01, 0.25)
        ratios = ratio_curve(deltas, 0.4, prof, np.ones_like(deltas))
        assert deltas[int(np.argmin(ratios))] == pytest.approx(1.0)

    def test_dip_shallower_at_higher_power(self):
        low = ratio_curve([0.0], 0.4, FITTED, [1.0])[0]
        high = ratio_curve([0.0], 2.5, FITTED, [1.0])[0]
        assert high > low

    def test_sideband_escape_ladder(self):
        ladder = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        ratios = [ratio_curve([0.0], s0, FITTED, [1.0])[0] for s0 in ladder]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_independent_quadrature_oracle(self):
        # rebuild one ratio with plain sums, bypassing the cascade module
        s0, delta = 0.4, 3.0
        spec = normalized_spectrum(s0, delta=delta, counts=1.0)
        center = FITTED.shift - delta
        lor = 1.0 / (1.0 + 4.0 * ((spec.offsets - center) / FITTED.width) ** 2)
        trans = 0.9 * np.exp(-FITTED.alpha * lor)
        dx = np.diff(spec.offsets)
        integrand = spec.density * trans
        manual = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * dx))
        manual += spec.elastic_weight * 0.9 * math.exp(
            -FITTED.alpha / (1.0 + 4.0 * (center / FITTED.width) ** 2)
        )
        got = ratio_curve([delta], s0, FITTED, [1.0])[0]
        assert got == pytest.approx(manual, rel=1e-12)
