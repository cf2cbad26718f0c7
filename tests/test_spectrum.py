"""Spectral physics: saturation relations, Mollow density, grid handling."""

import math

import numpy as np
import pytest

from cascfluor.spectrum import (
    DEFAULT_GAMMA_MHZ,
    DriveParams,
    NormalizationError,
    SpectrumGrid,
    detuned_saturation,
    elastic_weight,
    excited_state_population,
    mollow_density,
    normalize_to_counts,
    rabi_frequency,
    sample_spectrum,
)

GAMMA = DEFAULT_GAMMA_MHZ


def bloch_regression_spectrum(omega, s0, delta, gamma=GAMMA):
    """Independent oracle: incoherent emission spectrum computed from the
    optical Bloch equations and the quantum regression theorem, with no
    reference to the closed form under test."""
    rabi = gamma * np.sqrt(s0 / 2.0)
    a = np.array(
        [
            [-1j * delta - gamma / 2, 0, -1j * rabi],
            [0, 1j * delta - gamma / 2, 1j * rabi],
            [-1j * rabi / 2, 1j * rabi / 2, -gamma],
        ],
        dtype=complex,
    )
    drive = np.array([1j * rabi / 2, -1j * rabi / 2, 0], dtype=complex)
    steady = np.linalg.solve(a, -drive)
    init = np.array([steady[2], 0, 0], dtype=complex) - steady * steady[1]
    eye = np.eye(3, dtype=complex)
    out = np.empty(len(omega))
    for i, w in enumerate(omega):
        v = np.linalg.solve(1j * w * eye - a, init)
        out[i] = v[0].real / np.pi
    return out


class TestExcitedStatePopulation:
    def test_no_drive(self):
        assert excited_state_population(0.0) == 0.0

    def test_half_max_at_unit_saturation(self):
        assert excited_state_population(1.0) == pytest.approx(0.25)

    def test_strong_drive_asymptote(self):
        assert excited_state_population(1e6) == pytest.approx(0.4999995, abs=1e-6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            excited_state_population(-0.1)

    def test_monotone_and_bounded(self):
        ladder = np.geomspace(1e-3, 1e4, 40)
        values = [excited_state_population(s) for s in ladder]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 0.5 for v in values)


class TestDetunedSaturation:
    def test_zero_detuning(self):
        assert detuned_saturation(DriveParams(2.5, 0.0)) == 2.5

    def test_half_linewidth(self):
        assert detuned_saturation(DriveParams(1.0, GAMMA / 2)) == pytest.approx(0.5)

    def test_far_detuned(self):
        expected = 0.4 / (1.0 + 4.0 * (30.0 / 5.2) ** 2)
        assert detuned_saturation(DriveParams(0.4, 30.0, 5.2)) == pytest.approx(expected)
        assert expected == pytest.approx(0.00298, abs=2e-5)

    def test_never_exceeds_s0(self):
        for delta in [-30.0, -5.2, -0.3, 0.0, 0.3, 5.2, 30.0]:
            s = detuned_saturation(DriveParams(2.0, delta))
            assert s <= 2.0
            if delta != 0.0:
                assert s < 2.0


class TestRabiFrequency:
    def test_values(self):
        assert rabi_frequency(0.0) == 0.0
        assert rabi_frequency(2.0, 5.2) == pytest.approx(5.2)
        assert rabi_frequency(8.0, 5.2) == pytest.approx(10.4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rabi_frequency(-1.0)


class TestDriveParams:
    def test_invalid(self):
        with pytest.raises(ValueError):
            DriveParams(-0.5)
        with pytest.raises(ValueError):
            DriveParams(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("fields", [
        (math.nan, 0.0), (1.0, math.inf), (math.nan, math.inf),
        (math.inf, 0.0), (1.0, 0.0, math.inf),
    ])
    def test_non_finite_rejected(self, fields):
        with pytest.raises(ValueError):
            DriveParams(*fields)


class TestMollowDensity:
    @pytest.mark.parametrize("s0", [0.1, 0.4, 1.0, 2.5, 8.0])
    @pytest.mark.parametrize("delta", [0.0, GAMMA, -GAMMA, 30.0, -30.0])
    def test_non_negative(self, s0, delta):
        omega = np.linspace(-20 * GAMMA, 20 * GAMMA, 4001)
        assert np.all(mollow_density(omega, DriveParams(s0, delta)) >= 0)

    def test_resonant_symmetry_exact(self):
        omega = np.arange(0.0, 10 * GAMMA, 0.01 * GAMMA)
        p = DriveParams(2.5, 0.0)
        left = mollow_density(-omega, p)
        right = mollow_density(omega, p)
        assert np.max(np.abs(left - right)) <= 1e-12 * right.max()

    def test_large_offset_decay(self):
        p = DriveParams(2.0, 0.0)
        d10 = mollow_density(10 * GAMMA, p)
        d20 = mollow_density(20 * GAMMA, p)
        # quartic tail: doubling the offset divides the density by ~16
        assert d20 / d10 == pytest.approx(1.0 / 16.0, rel=0.05)

    def test_triplet_structure_strong_drive(self):
        # peak-finding oracle on a 0.01-linewidth grid, s0 = 8: exactly
        # three local maxima; the sidebands sit at +-1.58 linewidths
        # (8.216 MHz), inside the Rabi frequency 10.4 MHz because the
        # central line still overlaps them at this moderate saturation.
        step = 0.01 * GAMMA
        half = int(round(10 * GAMMA / step))
        omega = step * np.arange(-half, half + 1)
        dens = mollow_density(omega, DriveParams(8.0, 0.0))
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:])
        peaks = omega[np.where(interior)[0] + 1]
        assert len(peaks) == 3
        assert peaks[1] == pytest.approx(0.0, abs=step / 2)
        assert abs(peaks[0]) == pytest.approx(8.216, abs=step / 2)
        assert abs(peaks[2]) == pytest.approx(8.216, abs=step / 2)

    def test_no_resolved_sidebands_at_moderate_drive(self):
        step = 0.01 * GAMMA
        half = int(round(10 * GAMMA / step))
        omega = step * np.arange(-half, half + 1)
        dens = mollow_density(omega, DriveParams(2.0, 0.0))
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:])
        assert interior.sum() == 1

    @pytest.mark.parametrize(
        "s0,delta", [(0.4, 0.0), (2.5, 0.0), (8.0, 0.0), (0.4, 30.0), (8.0, 10.0)]
    )
    def test_matches_bloch_regression_oracle(self, s0, delta):
        omega = np.linspace(-8 * GAMMA, 8 * GAMMA, 257)
        got = mollow_density(omega, DriveParams(s0, delta))
        expected = bloch_regression_spectrum(omega, s0, delta)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-18)

    @pytest.mark.parametrize("s0,delta", [(0.4, 0.0), (2.0, 0.0), (8.0, 0.0), (2.0, 10.0)])
    def test_total_inelastic_power(self, s0, delta):
        # steady-state moments give the incoherent power s^2 / (2 (1+s)^2)
        p = DriveParams(s0, delta)
        s = detuned_saturation(p)
        spec = sample_spectrum(p, grid_span=100.0, grid_step=0.05 * GAMMA)
        integral = np.trapezoid(spec.density, spec.offsets)
        assert integral == pytest.approx(s * s / (2.0 * (1.0 + s) ** 2), rel=1e-4)


class TestElasticWeight:
    def test_values(self):
        assert elastic_weight(0.0) == 0.0
        assert elastic_weight(2.0) == pytest.approx(0.125)
        assert elastic_weight(1e6) < 1e-5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            elastic_weight(-1.0)


class TestSampleSpectrum:
    def test_no_drive_is_empty(self):
        spec = sample_spectrum(DriveParams(0.0))
        assert np.all(spec.density == 0)
        assert spec.elastic_weight == 0.0

    def test_default_grid_shape(self):
        spec = sample_spectrum(DriveParams(0.4), grid_span=10.0, grid_step=0.01 * GAMMA)
        assert len(spec.offsets) == 2001
        assert spec.offsets[0] == pytest.approx(-52.0)
        assert spec.offsets[-1] == pytest.approx(52.0)
        assert 0.0 in spec.offsets
        np.testing.assert_allclose(spec.density, spec.density[::-1], rtol=1e-12)

    def test_span_too_small_rejected(self):
        with pytest.raises(ValueError):
            sample_spectrum(DriveParams(1.0), grid_span=5.0)

    def test_step_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            sample_spectrum(DriveParams(1.0), grid_step=GAMMA)

    def test_counts_marker_unset(self):
        assert sample_spectrum(DriveParams(1.0)).counts is None


class TestSpectrumGridValidation:
    def test_rejects_bad_arrays(self):
        with pytest.raises(ValueError):
            SpectrumGrid(np.array([0.0, 1.0, 1.0]), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            SpectrumGrid(np.array([0.0, 1.0]), np.array([-1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            SpectrumGrid(np.array([0.0, 1.0]), np.zeros(2), -0.5)

    def test_immutable_arrays(self):
        spec = sample_spectrum(DriveParams(1.0))
        with pytest.raises(ValueError):
            spec.density[0] = 1.0


class TestNormalizeToCounts:
    def test_closure_by_independent_reintegration(self):
        spec = normalize_to_counts(sample_spectrum(DriveParams(0.4)), 1500.0)
        dx = np.diff(spec.offsets)
        manual = float(np.sum(0.5 * (spec.density[1:] + spec.density[:-1]) * dx))
        assert manual + spec.elastic_weight == pytest.approx(1500.0, abs=1e-6)
        assert spec.counts == 1500.0

    def test_identity_when_already_matching(self):
        spec = sample_spectrum(DriveParams(1.0))
        total = spec.total_weight()
        renorm = normalize_to_counts(spec, total)
        np.testing.assert_allclose(renorm.density, spec.density, rtol=1e-9)
        assert abs(renorm.total_weight() - total) <= 1e-9 * total

    def test_linearity(self):
        spec = sample_spectrum(DriveParams(2.5))
        one = normalize_to_counts(spec, 700.0)
        two = normalize_to_counts(spec, 1400.0)
        np.testing.assert_allclose(two.density, 2.0 * one.density, rtol=1e-12)
        assert two.elastic_weight == pytest.approx(2.0 * one.elastic_weight)

    def test_zero_weight_rejected(self):
        with pytest.raises(NormalizationError):
            normalize_to_counts(sample_spectrum(DriveParams(0.0)), 100.0)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_counts(sample_spectrum(DriveParams(1.0)), 0.0)

    @pytest.mark.parametrize("count", [math.nan, math.inf])
    def test_non_finite_count_rejected(self, count):
        with pytest.raises(ValueError):
            normalize_to_counts(sample_spectrum(DriveParams(1.0)), count)
