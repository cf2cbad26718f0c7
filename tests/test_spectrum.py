"""Spectral physics: saturation relations, Mollow density, grid handling."""

import math
import re

import numpy as np
import pytest

import cascfluor.spectrum
from cascfluor.spectrum import (
    DEFAULT_GAMMA_MHZ,
    DriveParams,
    NormalizationError,
    _check_offsets,
    _check_spectrum,
    _weights,
    detuned_saturation,
    elastic_weight,
    excited_state_population,
    mollow_density,
    rabi_frequency,
    sample_spectrum,
)
from pointwise import gregory_weights, integral, one_point_spectrum

GAMMA = DEFAULT_GAMMA_MHZ
# a third grid step, the model step of filters 3.64 to 3.83 MHz wide
STEP_20 = GAMMA / 20


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

    @pytest.mark.parametrize("s0, sidebands", [(7.5, []), (7.7, [7.764])])
    def test_sidebands_resolve_between_s0_7p5_and_7p7(self, s0, sidebands):
        # the first maximum away from zero on a 0.001-linewidth grid, as
        # README's sideband note says: none at s0 = 7.5, one at 7.764 MHz at 7.7
        step = 0.001 * GAMMA
        omega = step * np.arange(int(round(10 * GAMMA / step)) + 1)
        dens = mollow_density(omega, DriveParams(s0, 0.0))
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:])
        peaks = omega[np.where(interior)[0] + 1]
        assert peaks == pytest.approx(sidebands, abs=step)

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
        offsets, density, _ = sample_spectrum([p], grid_step=0.05 * GAMMA, grid_span=100.0)
        integral = np.trapezoid(density[0], offsets)
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
        spec = sample_spectrum([DriveParams(0.0)])
        assert np.all(spec.density == 0)
        assert spec.elastic[0] == 0.0

    def test_default_grid_shape(self):
        spec = sample_spectrum([DriveParams(0.4)], grid_step=0.01 * GAMMA, grid_span=10.0)
        assert len(spec.offsets) == 2001
        assert spec.offsets[0] == pytest.approx(-52.0)
        assert spec.offsets[-1] == pytest.approx(52.0)
        assert 0.0 in spec.offsets
        np.testing.assert_allclose(spec.density[0], spec.density[0, ::-1], rtol=1e-12)

    @pytest.mark.parametrize("span", [5.0, math.nan, math.inf])
    def test_span_too_small_rejected(self, span):
        with pytest.raises(ValueError, match="grid span"):
            sample_spectrum([DriveParams(1.0)], grid_span=span)

    @pytest.mark.parametrize("step", [GAMMA, math.nan, math.inf])
    def test_step_too_coarse_rejected(self, step):
        with pytest.raises(ValueError, match="grid step"):
            sample_spectrum([DriveParams(1.0)], grid_step=step)

    @pytest.mark.parametrize("span, step, points", [
        (1e9, None, "8e+10"), (10.0, 1e-300, "1.04e+302"), (1e308, None, "inf"),
        (10.0, 1e-4, "1.04e+06"),
    ])
    def test_oversized_grid_rejected_before_allocation(self, span, step, points):
        # the message comes from the span and step alone: no array of that
        # size is ever asked for
        message = (f"grid of +-{span} linewidths at step {step or GAMMA / 40.0} MHz "
                   f"needs {points} points, more than MAX_GRID_POINTS = 1000000")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_spectrum([DriveParams(1.0)], grid_step=step, grid_span=span)

    def test_grid_size_limit_is_inclusive(self, monkeypatch):
        # the default grid has 801 points: at the limit it is built, one
        # step wider it is refused
        monkeypatch.setattr(cascfluor.spectrum, "MAX_GRID_POINTS", 801)
        assert len(sample_spectrum([DriveParams(1.0)]).offsets) == 801
        with pytest.raises(ValueError, match="needs 803 points"):
            sample_spectrum([DriveParams(1.0)], grid_span=10.0 + 1.0 / 40.0)


class TestSpectrumValidation:
    """The value checks sample_spectrum runs on every grid it builds and
    every stack it returns."""

    def test_rejects_bad_arrays(self):
        with pytest.raises(ValueError):
            _check_offsets(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            _check_spectrum(np.array([-1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            _check_spectrum(np.zeros(2), -0.5)

    @pytest.mark.parametrize("field, bad", [
        ("density", np.nan), ("density", np.inf), ("offsets", np.inf),
        ("elastic", np.nan), ("elastic", np.inf),
    ])
    def test_rejects_non_finite(self, field, bad):
        fields = {"offsets": np.linspace(-50.0, 50.0, 11), "density": np.ones(11),
                  "elastic": 0.1}
        if field == "elastic":
            fields[field] = bad
        else:
            fields[field][-1] = bad
        offsets = fields.pop("offsets")
        with pytest.raises(ValueError, match="finite"):
            _check_offsets(offsets)
            _check_spectrum(**fields)


class TestGregoryWeights:
    """spectrum._weights, the quadrature of every spectrum integral."""

    @pytest.mark.parametrize("points", [16, 201, 801])
    def test_polynomials_to_degree_7_are_exact(self, points):
        # the integral of x^k over [0, 1] is 1 / (k + 1); three-point ends
        # are exact only to degree 3
        offsets = np.linspace(0.0, 1.0, points)
        weights = _weights(offsets)
        for k in range(8):
            got = np.add.reduce(offsets ** k * weights)
            assert got == pytest.approx(1.0 / (k + 1), rel=1e-14, abs=0.0), k


class TestNormalization:
    """sample_spectrum given photon counts."""

    def test_closure_by_independent_reintegration(self):
        offsets, density, elastic = sample_spectrum([DriveParams(0.4)], [1500.0])
        dx = np.diff(offsets)
        manual = float(np.sum(0.5 * (density[0, 1:] + density[0, :-1]) * dx))
        assert manual + elastic[0] == pytest.approx(1500.0, abs=1e-6)

    def test_identity_when_already_matching(self):
        raw = sample_spectrum([DriveParams(1.0)])
        total = float(np.trapezoid(raw.density[0], raw.offsets) + raw.elastic[0])
        renorm = sample_spectrum([DriveParams(1.0)], [total])
        np.testing.assert_allclose(renorm.density, raw.density, rtol=1e-9)
        back = np.trapezoid(renorm.density[0], renorm.offsets) + renorm.elastic[0]
        assert abs(back - total) <= 1e-9 * total

    def test_linearity(self):
        stack = sample_spectrum([DriveParams(2.5)] * 2, [700.0, 1400.0])
        np.testing.assert_allclose(stack.density[1], 2.0 * stack.density[0], rtol=1e-12)
        assert stack.elastic[1] == pytest.approx(2.0 * stack.elastic[0])

    @pytest.mark.parametrize("s0, delta, step", [(0.05, -30.0, None), (2.5, 3.0, None),
                                                 (8.0, 0.0, STEP_20)])
    def test_is_the_end_corrected_sum_bit_for_bit(self, s0, delta, step):
        # the one normalization arithmetic is the sum of density times
        # Gregory's weights, to the last bit
        drive = [DriveParams(s0, delta)]
        raw = sample_spectrum(drive, grid_step=step)
        total = float(integral(raw.density[0], raw.offsets) + raw.elastic[0])
        np.testing.assert_array_equal(_weights(raw.offsets), gregory_weights(raw.offsets))
        assert np.add.reduce(raw.density[0] * _weights(raw.offsets)) + raw.elastic[0] == total
        scaled = sample_spectrum(drive, [1234.5], step)
        np.testing.assert_array_equal(scaled.density[0], raw.density[0] * (1234.5 / total))
        assert scaled.elastic[0] == raw.elastic[0] * (1234.5 / total)

    def test_zero_weight_rejected(self):
        with pytest.raises(NormalizationError):
            sample_spectrum([DriveParams(0.0)], [100.0])

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            sample_spectrum([DriveParams(1.0)], [0.0])

    @pytest.mark.parametrize("count", [math.nan, math.inf])
    def test_non_finite_count_rejected(self, count):
        with pytest.raises(ValueError):
            sample_spectrum([DriveParams(1.0)], [count])

    def test_overflowing_rescale_rejected(self):
        # an elastic weight of 2.5e-301 scaled to 1e10 photons overflows the
        # factor; the checks run on the rescaled stack
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            sample_spectrum([DriveParams(1e-300)], [1e10])


class TestSampleStack:
    # s0 x detuning, one stack; counts vary so each row gets its own factor
    DRIVES = [(s0, delta) for s0 in (0.05, 0.4, 2.5, 8.0)
              for delta in (-30.0, -7.0, 0.0, 3.0, 25.0)]
    COUNTS = np.linspace(300.0, 2200.0, len(DRIVES))
    GRIDS = {  # (gamma, grid_step)
        "model_grid": (GAMMA, None),
        "gamma_20_grid": (GAMMA, STEP_20),
        "gamma_6_explicit_step": (6.0, 0.05),
    }

    @pytest.mark.parametrize("grid", GRIDS)
    def test_rows_are_the_per_point_path_bit_for_bit(self, grid):
        gamma, step = self.GRIDS[grid]
        drives = [DriveParams(s0, delta, gamma) for s0, delta in self.DRIVES]
        stack = sample_spectrum(drives, self.COUNTS, step)
        assert stack.density.shape == (len(drives), stack.offsets.size)
        for k, (drive, n) in enumerate(zip(drives, self.COUNTS)):
            ref = one_point_spectrum(drive, n, grid_step=step)
            np.testing.assert_array_equal(stack.offsets, ref.offsets)
            np.testing.assert_array_equal(stack.density[k], ref.density)
            assert stack.elastic[k] == ref.elastic_weight
            # the mirrored half is exact: every row is its own reverse
            np.testing.assert_array_equal(stack.density[k], stack.density[k, ::-1])

    @pytest.mark.parametrize("gamma, step", [
        (GAMMA, None), (GAMMA, STEP_20), (6.0, None), (6.0, 0.05),
        (4.1, None), (1.0, None), (37.3, None)])
    def test_grid_is_mirrored_to_the_last_bit(self, gamma, step):
        # sample_spectrum mirrors the omega >= 0 half of each row, which
        # needs mirrored offsets
        offsets = sample_spectrum([DriveParams(2.5, 0.0, gamma)], grid_step=step).offsets
        np.testing.assert_array_equal(offsets, -offsets[::-1])

    def test_one_row_is_a_stack(self):
        drive = DriveParams(2.5, 3.0)
        stack = sample_spectrum([drive], [700.0])
        ref = one_point_spectrum(drive, 700.0)
        np.testing.assert_array_equal(stack.density, [ref.density])
        np.testing.assert_array_equal(stack.elastic, [ref.elastic_weight])

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("span", [10.0, 14.0])
    def test_without_counts_rows_are_the_closed_form(self, grid, span):
        gamma, step = self.GRIDS[grid]
        drives = [DriveParams(s0, delta, gamma) for s0, delta in self.DRIVES]
        drives.append(DriveParams(0.0, 3.0, gamma))
        stack = sample_spectrum(drives, grid_step=step, grid_span=span)
        for k, p in enumerate(drives):
            np.testing.assert_array_equal(stack.density[k], mollow_density(stack.offsets, p))
            assert stack.elastic[k] == elastic_weight(detuned_saturation(p))

    def test_shares_the_grid_rule(self):
        # count and zero-weight errors are checked through cascaded_counts
        drives = [DriveParams(0.4), DriveParams(2.5)]
        with pytest.raises(ValueError, match="undersamples"):
            sample_spectrum(drives, [1.0, 1.0], grid_step=GAMMA)

    def test_one_grid_per_stack(self):
        with pytest.raises(ValueError, match="linewidth"):
            sample_spectrum([DriveParams(0.4), DriveParams(0.4, 0.0, 6.0)], [1.0, 1.0])
        with pytest.raises(ValueError, match="counts"):
            sample_spectrum([DriveParams(0.4), DriveParams(2.5)], [1.0])
        with pytest.raises(ValueError, match="at least one"):
            sample_spectrum([], [])
