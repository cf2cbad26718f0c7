"""Beer-Lambert filtering of the emission spectrum and ratio curves."""

import math
import tracemalloc

import numpy as np
import pytest

from cascfluor import cascade
from cascfluor.cascade import (
    AbsorptionProfile,
    _model_step,
    cascaded_counts,
    filtered_counts,
    ratio_curve,
)
from cascfluor.fit import cascade_model_counts
from cascfluor.spectrum import (
    DEFAULT_GAMMA_MHZ,
    DriveParams,
    Drives,
    NormalizationError,
    SpectrumStack,
    sample_spectrum,
)
from fd_oracle import DEFAULT_FD_STEP, _jacobian
from pointwise import (integral, lorentzian_profile, model_step, one_point_count,
                       one_point_spectrum, reference_counts, reference_stack, stack_of,
                       transmission)

GAMMA = DEFAULT_GAMMA_MHZ
# a third grid step, the model step of filters 3.64 to 3.83 MHz wide
STEP_20 = GAMMA / 20
FITTED = AbsorptionProfile(alpha=0.85, width=6.7, shift=0.0, path_efficiency=0.9)


def normalized_spectrum(s0, delta=0.0, counts=1000.0):
    return one_point_spectrum(DriveParams(s0, delta), counts)


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
        assert one_point_count(spec, prof) == pytest.approx(1000.0, rel=1e-9)

    def test_off_resonant_drive_escapes_filter(self):
        spec = normalized_spectrum(0.4, delta=30.0)
        got = one_point_count(spec, FITTED, drive_detuning=30.0)
        assert got == pytest.approx(0.9 * 1000.0, abs=0.03 * 1000.0)

    def test_resonant_drive_absorbed_more(self):
        resonant = one_point_count(normalized_spectrum(0.4), FITTED)
        detuned = one_point_count(
            normalized_spectrum(0.4, delta=30.0), FITTED, drive_detuning=30.0
        )
        assert resonant < detuned

    @pytest.mark.parametrize("s0", [0.25, 1.0, 4.0])
    def test_bounded_by_path_efficiency(self, s0):
        spec = normalized_spectrum(s0)
        got = one_point_count(spec, FITTED)
        assert 0.0 < got < FITTED.path_efficiency * 1000.0

    def test_strictly_decreasing_in_alpha(self):
        spec = normalized_spectrum(1.0)
        counts = [
            one_point_count(
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
        got = one_point_count(spec, prof)
        # residual nibble on the density scales with width * peak density
        slack = float(spec.density.max()) * prof.width * 3
        assert got == pytest.approx(expected, abs=slack)


class TestCascadedCounts:
    def test_each_point_is_its_normalized_spectrum_filtered(self):
        drives = [DriveParams(0.4, -5.0), DriveParams(2.5), DriveParams(8.0, 12.0)]
        counts = [700.0, 1000.0, 1300.0]
        got = cascaded_counts(drives, counts, FITTED)
        step = model_step(GAMMA, FITTED)
        expected = [
            one_point_count(one_point_spectrum(d, n, grid_step=step), FITTED, d.delta)
            for d, n in zip(drives, counts)
        ]
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, expected)

    def test_stacks_split_at_grid_changes_and_size(self):
        # a new stack where the grid changes (here the linewidth); bit for
        # bit the one-point counts either way
        drives = ([DriveParams(0.4 + 0.3 * k, 2.0 * k - 8.0) for k in range(10)]
                  + [DriveParams(2.5, d, 6.0) for d in (-3.0, 0.0, 3.0)])
        counts = np.linspace(500.0, 1300.0, len(drives))
        np.testing.assert_array_equal(cascaded_counts(drives, counts, FITTED),
                                      pointwise_counts(drives, counts, FITTED))


class TestModelGrid:
    """The grid cascaded_counts samples: gamma / N with N steps per
    linewidth picked from the filter width, over exactly +-10 gamma, and
    never more than the 801 points of gamma/40."""

    @staticmethod
    def sampled_stacks(monkeypatch, drives, prof):
        """Every stack cascaded_counts filters, seen by its per-stack kernel
        cascade._counts (the arrays are views of buffers the call reuses;
        their shapes and the offsets are the stack's), and its counts."""
        stacks = []
        real = cascade._counts

        def spy(stack, *args):
            stacks.append(stack)
            return real(stack, *args)

        monkeypatch.setattr(cascade, "_counts", spy)
        return stacks, cascaded_counts(drives, np.full(len(drives), 1000.0), prof)

    @pytest.mark.parametrize("gamma", [5.2, 6.0])
    @pytest.mark.parametrize("width", [0.5, 0.8, 1.0, 1.5, 1.8, 2.0, 2.5, 3.0, 4.0, 5.2,
                                       6.0, 6.7, 10.0, 15.0, 30.0])
    def test_grid_spans_ten_linewidths(self, monkeypatch, gamma, width):
        # a step of width / 14 does not divide gamma: its grid would overshoot
        prof = AbsorptionProfile(20.0, width, 0.5)
        (stack,), _ = self.sampled_stacks(monkeypatch, [DriveParams(2.5, 3.0, gamma)], prof)
        offsets = stack.offsets
        assert offsets[-1] == -offsets[0] == pytest.approx(10.0 * gamma, rel=1e-15, abs=0.0)
        steps = round(10.0 * gamma / (offsets[1] - offsets[0]))
        assert len(offsets) == 2 * steps + 1 <= 801
        assert offsets[1] - offsets[0] <= 1.000001 * max(min(gamma, width) / 14.0, gamma / 40.0)

    @pytest.mark.parametrize("width, points", [(30.0, 281), (6.7, 281), (5.2, 281),
                                               (4.0, 381), (3.0, 501), (2.0, 741),
                                               (1.8, 801), (1.0, 801)])
    def test_points_per_filter(self, monkeypatch, width, points):
        # the default filter (6.7 MHz) and any filter as wide as the line
        # get gamma/14; no filter gets more than gamma/40
        stacks, _ = self.sampled_stacks(monkeypatch, [DriveParams(2.5, 3.0)],
                                        AbsorptionProfile(5.0, width))
        assert [len(s.offsets) for s in stacks] == [points]

    @pytest.mark.parametrize("width, rows", [(6.7, [45, 45, 31]), (1.0, [16] * 7 + [9])])
    def test_stacks_hold_at_most_stack_values(self, monkeypatch, width, rows):
        # a 121-point scan in stacks of 45 rows of 281 points, or of 16 rows
        # of 801 points
        drives = [DriveParams(2.5, d) for d in np.linspace(-30.0, 30.0, 121)]
        stacks, _ = self.sampled_stacks(monkeypatch, drives, AbsorptionProfile(5.0, width))
        assert [len(s.elastic) for s in stacks] == rows
        assert max(s.density.size for s in stacks) <= cascade.STACK_VALUES

    def test_a_needle_filter_costs_no_more_than_gamma_over_40(self, monkeypatch):
        # without the cap of 40, 14 gamma / width steps per linewidth would
        # ask for about 1e12 grid points at 1e-9 MHz, and overflow at the
        # smallest positive width
        drives = [DriveParams(s0, d) for s0 in (0.4, 8.0) for d in (-30.0, 0.0, 3.0)]
        stacks, counts = self.sampled_stacks(monkeypatch, drives, AbsorptionProfile(5.0, 1e-9))
        assert max(len(s.offsets) for s in stacks) <= 801
        assert np.all(np.isfinite(counts))
        assert _model_step(GAMMA, 5e-324) == GAMMA / 40.0


def pointwise_counts(drives, counts, prof):
    """Each drive's count from its own one-point spectrum, sampled at the
    step of cascaded_counts' rule, and filter."""
    return [one_point_count(one_point_spectrum(d, n, grid_step=model_step(d.gamma, prof)),
                            prof, d.delta)
            for d, n in zip(drives, counts)]


class TestCascadedCountsSharedWork:
    """cascaded_counts samples and filters consecutive runs of drives of one
    linewidth as shared stacks of at most STACK_VALUES grid values (45 rows
    of the 281-point grid of these filters): bit for bit the per-point path
    of pointwise.py, and the one-row path of the package, whatever stack a
    drive lands in."""

    SCAN = np.linspace(-30.0, 30.0, 121)
    SHIFTED = AbsorptionProfile(alpha=0.85, width=6.7, shift=-1.5, path_efficiency=0.9)
    # shift 1e-20 rounds away: the filter centers of +-3 are -3.0 and 3.0
    TINY_SHIFT = AbsorptionProfile(alpha=0.85, width=6.7, shift=1e-20, path_efficiency=0.9)
    # drive lists with equal and mirrored detunings, signed zeros, and
    # neighbours that differ only in s0, linewidth or count
    DRIVE_LISTS = {
        "plus_minus_3": ([(2.5, 3.0), (2.5, -3.0), (2.5, 3.0)], [700.0] * 3),
        "many_of_one_detuning": ([(2.5, d) for d in [3.0, -3.0] * 40 + [5.0, -5.0, -5.0]],
                                 [700.0] * 83),
        "signed_zeros": ([(2.5, 0.0), (2.5, -0.0), (0.4, -0.0)], [700.0] * 3),
        "other_linewidth": ([(2.5, 3.0), (2.5, -3.0), (2.5, -3.0, 6.0)], [700.0, 900.0, 700.0]),
        "other_s0": ([(2.5, 3.0), (2.5, -3.0), (0.4, -3.0)], [700.0, 900.0, 700.0]),
        "repeated_detunings": (
            [(2.5, d) for d in [7.0, -3.0, 1.0, 3.0, 3.0, -7.5, 1.0, -1.0, 9.0, -9.0]
             + [4.0, -4.0] * 10], [800.0] * 30),
    }

    @staticmethod
    def check_scan(scan, s0, prof):
        drives = [DriveParams(s0, d) for d in scan]
        counts = 1000.0 + scan ** 2  # even in the detuning
        expected = pointwise_counts(drives, counts, prof)
        np.testing.assert_array_equal(cascaded_counts(drives, counts, prof), expected)
        np.testing.assert_array_equal(ratio_curve(scan, s0, prof, counts),
                                      np.divide(expected, counts))

    @pytest.mark.parametrize("prof", [FITTED, SHIFTED], ids=["shift_0", "shift_-1.5"])
    @pytest.mark.parametrize("s0", [0.05, 0.4, 2.5, 8.0])
    def test_symmetric_scan(self, s0, prof):
        self.check_scan(self.SCAN, s0, prof)

    @pytest.mark.parametrize("points", [21, 120], ids=["21", "120_not_mirrored"])
    @pytest.mark.parametrize("prof", [FITTED, SHIFTED], ids=["shift_0", "shift_-1.5"])
    @pytest.mark.parametrize("s0", [0.05, 0.4, 2.5, 8.0])
    def test_other_scan_lengths(self, s0, prof, points):
        # linspace(-30, 30, 120)'s points are not exact negations of each other
        self.check_scan(np.linspace(-30.0, 30.0, points), s0, prof)

    @pytest.mark.parametrize("prof", [FITTED, SHIFTED], ids=["shift_0", "shift_-1.5"])
    def test_asymmetric_scan(self, prof):
        drives = [DriveParams(2.5, d) for d in np.linspace(-20.0, 35.0, 97)]
        counts = np.linspace(300.0, 2000.0, len(drives))
        np.testing.assert_array_equal(cascaded_counts(drives, counts, prof),
                                      pointwise_counts(drives, counts, prof))

    @pytest.mark.parametrize("prof", [FITTED, SHIFTED, TINY_SHIFT],
                             ids=["shift_0", "shift_-1.5", "shift_1e-20"])
    @pytest.mark.parametrize("name", DRIVE_LISTS)
    def test_drive_lists(self, name, prof):
        params, counts = self.DRIVE_LISTS[name]
        drives = [DriveParams(*p) for p in params]
        np.testing.assert_array_equal(cascaded_counts(drives, counts, prof),
                                      pointwise_counts(drives, counts, prof))

    @pytest.mark.parametrize("delta", [0.0, 3.0])
    @pytest.mark.parametrize("prof", [FITTED, SHIFTED], ids=["shift_0", "shift_-1.5"])
    def test_power_scan(self, prof, delta):
        drives = [DriveParams(s0, delta) for s0 in np.linspace(0.05, 10.0, 121)]
        counts = np.linspace(100.0, 3000.0, len(drives))
        np.testing.assert_array_equal(cascaded_counts(drives, counts, prof),
                                      pointwise_counts(drives, counts, prof))

    def test_mixed_linewidths(self):
        drives = [DriveParams(s0, d, gamma) for s0 in (0.4, 8.0)
                  for d in (-12.0, -3.0, 0.0, 3.0, 12.0) for gamma in (5.2, 6.0, 4.1)]
        counts = [1000.0] * len(drives)
        for prof in (FITTED, self.SHIFTED):
            np.testing.assert_array_equal(cascaded_counts(drives, counts, prof),
                                          pointwise_counts(drives, counts, prof))

    @pytest.mark.parametrize("gammas", [
        [GAMMA] * 81,  # two stacks: 45 rows and 36
        [GAMMA] * 45 + [6.0] * 3 + [GAMMA] * 41 + [4.1] * 2,
    ], ids=["81_drives", "runs_of_mixed_linewidths"])
    def test_each_count_is_the_one_row_count(self, gammas):
        rng = np.random.default_rng(len(gammas))
        drives = [DriveParams(s0, d, g) for s0, d, g in
                  zip(rng.uniform(0.05, 8.0, len(gammas)),
                      rng.uniform(-30.0, 30.0, len(gammas)), gammas)]
        counts = rng.uniform(1.0, 3000.0, len(drives))
        for prof in (FITTED, self.SHIFTED):
            alone = [filtered_counts(sample_spectrum([d], [n], model_step(d.gamma, prof)),
                                     [d.delta], prof)[0]
                     for d, n in zip(drives, counts)]
            np.testing.assert_array_equal(cascaded_counts(drives, counts, prof), alone)
            np.testing.assert_array_equal(alone, pointwise_counts(drives, counts, prof))

    def test_sampled_stack_shares_no_memory_with_later_calls(self):
        drives = [DriveParams(2.5, d) for d in (-3.0, 0.0, 3.0)]
        stack = sample_spectrum(drives, [700.0, 1000.0, 700.0])
        kept = [a.copy() for a in stack]
        later = sample_spectrum(drives[:2], [1.0, 1.0])
        cascaded_counts(drives, [700.0, 1000.0, 700.0], FITTED)
        for got, expected in zip(stack, kept):
            np.testing.assert_array_equal(got, expected)
            assert not any(np.shares_memory(got, a) for a in later)

    def test_calls_of_different_sizes_each_equal_a_fresh_call(self):
        big = [DriveParams(2.5, d) for d in self.SCAN]
        small = [DriveParams(8.0, d, 6.0) for d in (-3.0, 3.0, 7.0)]
        big_counts, small_counts = np.ones(len(big)), [500.0, 500.0, 900.0]
        for drives, counts in ((big, big_counts), (small, small_counts), (big, big_counts)):
            np.testing.assert_array_equal(cascaded_counts(drives, counts, self.SHIFTED),
                                          pointwise_counts(drives, counts, self.SHIFTED))


class TestReferenceArithmetic:
    """sample_spectrum and filtered_counts against the reference arithmetic of
    pointwise.py, which writes each formula out on the whole grid."""

    STEPS = pytest.mark.parametrize("step", [None, model_step(GAMMA, FITTED), STEP_20],
                                    ids=["spectrum_grid", "model_grid", "gamma_20_grid"])
    # the model grid of the first four filters, and the gamma/40 grid of the
    # fifth (1 MHz); a filter at shift -0.0 meets a detuning of +-0.0
    PROFILES = (FITTED, AbsorptionProfile(3.0, 12.0, -4.5, 0.6), AbsorptionProfile(0.0, 6.7),
                AbsorptionProfile(0.85, 6.7, -0.0, 0.9), AbsorptionProfile(5.0, 1.0))

    def check(self, drives, counts, step):
        deltas = [d.delta for d in drives]
        stack = sample_spectrum(drives, counts, step)
        ref = reference_stack(drives, counts, step)
        for prof in self.PROFILES:
            value, jac = filtered_counts(stack, deltas, prof, gradient=True)
            ref_value, ref_jac = reference_counts(ref, deltas, prof, gradient=True)
            np.testing.assert_array_equal(value, ref_value)
            np.testing.assert_array_equal(jac, ref_jac)
            np.testing.assert_array_equal(filtered_counts(stack, deltas, prof), ref_value)
            if (GAMMA / 40.0 if step is None else step) == model_step(GAMMA, prof):
                np.testing.assert_array_equal(cascaded_counts(drives, counts, prof),
                                              ref_value)
        # and the value and gradient calls leave the stack as sampled
        for got, expected in zip(stack, ref):
            np.testing.assert_array_equal(got, expected)

    @STEPS
    @pytest.mark.parametrize("rows", [1, 7, 8, 9, 17, 21, 45])
    def test_counts_and_jacobian_bit_for_bit(self, rows, step):
        rng = np.random.default_rng(rows)
        drives = [DriveParams(s0, d) for s0, d in
                  zip(rng.uniform(0.05, 8.0, rows), rng.uniform(-30.0, 30.0, rows))]
        self.check(drives, rng.uniform(1.0, 3000.0, rows), step)

    @STEPS
    @pytest.mark.parametrize("rows", [2, 8, 21, 45])
    @pytest.mark.parametrize("shared", [[0.0], [-7.25], [0.0, -0.0]],
                             ids=["zero", "detuned", "signed_zeros"])
    def test_shared_detuning_bit_for_bit(self, rows, step, shared):
        # rows of one detuning (a power scan) share one transmission row
        rng = np.random.default_rng(100 + rows)
        drives = [DriveParams(s0, shared[i % len(shared)])
                  for i, s0 in enumerate(rng.uniform(0.05, 8.0, rows))]
        self.check(drives, rng.uniform(1.0, 3000.0, rows), step)

    @pytest.mark.parametrize("gradient", [False, True])
    def test_zero_row_stack_gives_empty_counts(self, gradient):
        offsets = sample_spectrum([DriveParams(1.0)]).offsets
        stack = SpectrumStack(offsets, np.empty((0, len(offsets))), np.empty(0))
        got = filtered_counts(stack, [], FITTED, gradient=gradient)
        counts, jac = got if gradient else (got, np.empty((0, 4)))
        assert counts.dtype == float and counts.shape == (0,)
        assert jac.dtype == float and jac.shape == (0, 4)


class TestCascadedCountsBoundaries:
    # the stacked sampler keeps the per-point path's errors and inputs
    DRIVES = [DriveParams(0.4, -5.0), DriveParams(2.5), DriveParams(8.0, 12.0)]

    def test_undriven_point_has_no_weight(self):
        drives = self.DRIVES + [DriveParams(0.0, 3.0)]
        with pytest.raises(NormalizationError):
            cascaded_counts(drives, [1.0] * 4, FITTED)
        with pytest.raises(NormalizationError):
            ratio_curve([-3.0, 0.0], 0.0, FITTED, [1.0, 1.0])

    @pytest.mark.parametrize("weightless, bad_count, error", [
        # within one 45-row stack, and across the stacks of a 121-point scan
        (3, 10, NormalizationError), (10, 3, ValueError), (7, 7, ValueError),
        (60, 100, NormalizationError), (100, 60, ValueError),
        (44, 45, NormalizationError), (45, 44, ValueError), (None, 120, ValueError),
    ])
    def test_first_bad_drive_in_drive_order_raises(self, weightless, bad_count, error):
        # the error is that of the first drive whose count is bad or whose
        # spectrum has no weight, whichever stack either lands in
        s0 = np.full(121, 2.5)
        if weightless is not None:
            s0[weightless] = 0.0
        counts = np.ones(121)
        counts[bad_count] = -2.0
        drives = Drives.of(s0, np.linspace(-30.0, 30.0, 121))
        with pytest.raises(ValueError) as info:
            cascaded_counts(drives, counts, FITTED)
        assert info.type is error
        if error is NormalizationError:
            delta = float(drives.delta[weightless])
            assert str(info.value) == (f"spectrum has zero total weight at drive {weightless} "
                                       f"(s0=0.0, delta={delta!r})")
        else:
            assert str(info.value) == "photon count must be finite and > 0, got -2.0"

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_original_count_rejected(self, bad):
        with pytest.raises(ValueError, match="photon count"):
            cascaded_counts(self.DRIVES, [1.0, bad, 1.0], FITTED)
        with pytest.raises(ValueError, match="photon count"):
            ratio_curve([-3.0, 0.0, 3.0], 0.4, FITTED, [1.0, 1.0, bad])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cascaded_counts(self.DRIVES, [1.0, 1.0], FITTED)
        with pytest.raises(ValueError):
            cascaded_counts(self.DRIVES[:2], [1.0, 1.0, 1.0], FITTED)
        with pytest.raises(ValueError):
            ratio_curve([0.0, 1.0, 2.0], 0.4, FITTED, [1.0, 1.0])

    def test_no_drives_give_an_empty_array(self):
        empty = np.empty(0)
        for got in (cascaded_counts([], [], FITTED), ratio_curve([], 0.4, FITTED, []),
                    cascaded_counts(Drives.of([]), [], FITTED),
                    cascaded_counts(Drives(empty, empty, empty), [], FITTED)):
            assert isinstance(got, np.ndarray)
            assert got.dtype == float and got.shape == (0,)
        for drives in ([], Drives.of([])):
            with pytest.raises(ValueError, match="at least one drive"):
                sample_spectrum(drives)

    def test_generators_accepted(self):
        expected = cascaded_counts(self.DRIVES, [700.0, 1000.0, 1300.0], FITTED)
        got = cascaded_counts((d for d in self.DRIVES),
                              (n for n in (700.0, 1000.0, 1300.0)), FITTED)
        np.testing.assert_array_equal(got, expected)
        expected = ratio_curve([-3.0, 0.0, 3.0], 0.4, FITTED, [700.0, 1000.0, 1300.0])
        got = ratio_curve((d for d in (-3.0, 0.0, 3.0)), 0.4, FITTED,
                          (n for n in (700.0, 1000.0, 1300.0)))
        np.testing.assert_array_equal(got, expected)


class TestCascadedCountsMemory:
    # cascaded_counts holds its counts and output (160 KB each at 20,000
    # drives) and one buffer of three blocks of at most STACK_VALUES + rows
    # values (about 100 KB each), and computes every other drive term per
    # stack. Traced peaks of a 20,000-drive call (numpy 2.4): 0.79-0.80 MB
    # for a detuning scan and 0.69-0.71 MB for a power scan, on either
    # grid; the kernel that allocated every temporary afresh peaked at
    # 1.02-1.06 and 0.70-0.73 MB. Seven per-drive arrays kept for the whole
    # call would add 1.1 MB, and blocks sized by the drive count 135 MB.
    PEAK_BYTES = 1_000_000

    @pytest.mark.parametrize("width", [6.7, 1.0], ids=["281_points", "801_points"])
    @pytest.mark.parametrize("scan", ["detuning", "power"])
    def test_peak_of_20000_drives(self, scan, width):
        n = 20_000
        if scan == "detuning":
            drives = Drives.of(2.5, np.linspace(-30.0, 30.0, n))
        else:
            drives = Drives.of(np.linspace(0.05, 10.0, n), 3.0)
        counts = np.linspace(100.0, 3000.0, n)
        prof = AbsorptionProfile(0.85, width)
        # the grid's quadrature is built and kept by a first call
        cascaded_counts(Drives(*(a[:1] for a in drives)), counts[:1], prof)
        tracemalloc.start()
        try:
            got = cascaded_counts(drives, counts, prof)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all((0.0 < got) & (got < counts))
        assert peak <= self.PEAK_BYTES


class TestDrivesAsArrays:
    """cascaded_counts takes a Drives or a list of DriveParams: the same
    counts, bit for bit the per-point path of pointwise.py; every entry
    point checks the arrays with DriveParams' rule and messages."""

    @staticmethod
    def as_params(drives):
        return [DriveParams(*p) for p in zip(*(a.tolist() for a in drives))]

    def test_arrays_lists_and_points_agree(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        drive = st.tuples(st.floats(0.01, 10.0), st.floats(-40.0, 40.0),
                          st.sampled_from([GAMMA, 6.0, 4.1]), st.floats(1.0, 3000.0))
        # filters narrower and wider than a linewidth
        profile = st.builds(AbsorptionProfile, st.floats(0.0, 5.0), st.floats(0.5, 30.0),
                            st.floats(-5.0, 5.0), st.floats(0.1, 1.0))

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(st.lists(drive, min_size=1, max_size=100), profile)
        @hypothesis.example([(2.5, 3.0, GAMMA, 700.0)], FITTED)
        @hypothesis.example([(0.4, -3.0, 6.0, 1.0)] * 3, AbsorptionProfile(5.0, 1.0))
        def check(rows, prof):
            s0, delta, gamma, counts = (list(c) for c in zip(*rows))
            arrays = Drives.of(s0, delta, gamma)
            params = self.as_params(arrays)
            got = cascaded_counts(arrays, counts, prof)
            np.testing.assert_array_equal(got, cascaded_counts(params, counts, prof))
            np.testing.assert_array_equal(got, pointwise_counts(params, counts, prof))

        check()

    def test_of_broadcasts_scalars(self):
        drives = Drives.of(0.4, [-3.0, 0.0, 3.0])
        assert all(isinstance(a, np.ndarray) and a.dtype == float and a.shape == (3,)
                   for a in drives)
        assert self.as_params(drives) == [DriveParams(0.4, d) for d in (-3.0, 0.0, 3.0)]
        assert self.as_params(Drives.of(2.5)) == [DriveParams(2.5)]

    @pytest.mark.parametrize("arrays", [
        (np.ones(2), np.zeros(3), np.full(2, GAMMA)),
        (np.ones(3), np.zeros(3), np.full(2, GAMMA)),
        (np.ones((1, 3)), np.zeros((1, 3)), np.full((1, 3), GAMMA)),
        (np.float64(1.0), np.float64(0.0), np.float64(GAMMA)),
    ], ids=["delta", "gamma", "two_dimensional", "scalars"])
    def test_arrays_of_mismatched_shape_rejected(self, arrays):
        by_hand = Drives(*arrays)
        for call in (lambda: cascaded_counts(by_hand, [1.0, 1.0, 1.0], FITTED),
                     lambda: sample_spectrum(by_hand),
                     lambda: cascade_model_counts(by_hand, [1.0, 1.0, 1.0], 6.7, 0.85)):
            with pytest.raises(ValueError, match="one shape"):
                call()
        with pytest.raises(ValueError):
            Drives.of([1.0, 2.0], [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("field, bad", [
        ("s0", math.nan), ("s0", math.inf), ("s0", -1.0), ("delta", math.nan),
        ("delta", -math.inf), ("gamma", 0.0), ("gamma", -GAMMA), ("gamma", math.inf),
        ("gamma", math.nan),
    ])
    def test_bad_drive_gives_drive_params_message(self, field, bad):
        # drives 1 and 3 are bad: the message names drive 1, as DriveParams
        # would have
        fields = {"s0": [0.4, 0.4, 0.4, math.nan], "delta": [-3.0, -1.0, 1.0, 3.0],
                  "gamma": [GAMMA] * 4}
        fields[field][1] = bad
        with pytest.raises(ValueError) as expected:
            DriveParams(*(fields[k][1] for k in ("s0", "delta", "gamma")))
        message = str(expected.value)
        by_hand = Drives(*(np.array(fields[k]) for k in ("s0", "delta", "gamma")))
        calls = [lambda: Drives.of(fields["s0"], fields["delta"], fields["gamma"]),
                 lambda: cascaded_counts(by_hand, [1.0] * 4, FITTED),
                 lambda: sample_spectrum(by_hand),
                 lambda: cascade_model_counts(by_hand, [1.0] * 4, 6.7, 0.85)]
        if field == "s0":
            calls.append(lambda: ratio_curve(fields["delta"][1:3], bad, FITTED, [1.0, 1.0]))
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message


class TestFilteredCounts:
    S0 = [0.05, 0.4, 2.5, 8.0]
    DELTAS = [-30.0, -7.0, 0.0, 3.0, 25.0]
    LADDER = list(np.geomspace(0.25, 4.0, 8))
    # (width, alpha, shift, path_efficiency); the fit bounds the shift to
    # the +-52 MHz grid
    FILTERS = {
        "reference": (6.7, 0.85, 0.0, 0.9),
        "deep_detuned": (12.0, 3.0, -4.5, 0.6),
        "no_absorption": (6.7, 0.0, 1.0, 0.9),
        "shift_at_upper_bound": (6.7, 0.85, 52.0, 0.9),
        "shift_at_lower_bound": (6.7, 0.85, -52.0, 0.9),
    }
    # sample_spectrum's default grid, cascaded_counts' grid for the
    # reference filter and gamma/20
    STEPS = {"spectrum_grid": None, "model_grid": model_step(GAMMA, FITTED),
             "gamma_20_grid": STEP_20}

    def spectra(self, s0, step=None):
        return [one_point_spectrum(DriveParams(s0, d), 1e3, grid_step=step)
                for d in self.DELTAS]

    def power_spectra(self, step=None):
        return [one_point_spectrum(DriveParams(s), 1e3, grid_step=step)
                for s in self.LADDER]

    @staticmethod
    def plain_counts(specs, deltas, theta):
        """The filter integral in plain numpy, which also takes alpha < 0."""
        width, alpha, shift, eff = theta
        out = []
        for spec, delta in zip(specs, deltas):
            def trans(omega):
                u = (omega - (shift - delta)) / width
                return eff * np.exp(-alpha / (1.0 + 4.0 * u ** 2))
            out.append(integral(spec.density * trans(spec.offsets), spec.offsets)
                       + spec.elastic_weight * trans(0.0))
        return np.array(out)

    @pytest.mark.parametrize("s0", S0)
    @pytest.mark.parametrize("name", FILTERS)
    def test_value_is_the_old_expression_exactly(self, s0, name):
        width, alpha, shift, eff = self.FILTERS[name]
        prof = AbsorptionProfile(alpha, width, shift, eff)
        for spec, delta in zip(self.spectra(s0), self.DELTAS):
            old = float(integral(spec.density * transmission(spec.offsets, prof, delta),
                                 spec.offsets)
                        + spec.elastic_weight * transmission(0.0, prof, delta))
            assert one_point_count(spec, prof, delta) == old

    def assert_gradient_matches_central_differences(self, specs, deltas, theta,
                                                    columns=slice(None)):
        prof = AbsorptionProfile(theta[1], theta[0], theta[2], theta[3])
        stack = stack_of(specs)
        counts, jac = filtered_counts(stack, deltas, prof, gradient=True)
        np.testing.assert_array_equal(counts, filtered_counts(stack, deltas, prof))
        unbounded = (np.full(4, -np.inf), np.full(4, np.inf))
        oracle = _jacobian(lambda _x, th: self.plain_counts(specs, deltas, th),
                           np.zeros(len(specs)), theta, unbounded, np.ones(len(specs)),
                           DEFAULT_FD_STEP)
        # relative to each column's largest entry, since d/dshift vanishes
        # on a symmetric point; without absorption two columns are all zero
        jac, oracle = jac[:, columns], oracle[:, columns]
        scale = np.abs(oracle).max(axis=0)
        assert np.all(np.abs(jac - oracle) <= 1e-7 * scale)
        return jac

    @pytest.mark.parametrize("s0", S0)
    @pytest.mark.parametrize("name", FILTERS)
    def test_gradient_matches_central_differences(self, s0, name):
        self.assert_gradient_matches_central_differences(
            self.spectra(s0), self.DELTAS, np.array(self.FILTERS[name]))

    @pytest.mark.parametrize("s0", S0)
    @pytest.mark.parametrize("name", FILTERS)
    def test_gamma_20_detuning_stack_gradient(self, s0, name):
        self.assert_gradient_matches_central_differences(
            self.spectra(s0, self.STEPS["gamma_20_grid"]), self.DELTAS,
            np.array(self.FILTERS[name]))

    @pytest.mark.parametrize("name", [n for n in FILTERS if n != "reference"])
    def test_gamma_20_power_stack_gradient(self, name):
        self.assert_gradient_matches_central_differences(
            self.power_spectra(self.STEPS["gamma_20_grid"]), [0.0] * len(self.LADDER),
            np.array(self.FILTERS[name]))

    def test_gamma_20_power_stack_gradient_on_resonance(self):
        # a filter centered on resonant drives sees even spectra, so d/dshift
        # vanishes in every row and its central differences are roundoff
        theta = np.array(self.FILTERS["reference"])
        specs = self.power_spectra(self.STEPS["gamma_20_grid"])
        deltas = [0.0] * len(specs)
        jac = self.assert_gradient_matches_central_differences(specs, deltas, theta,
                                                               [0, 1, 3])
        _, full = filtered_counts(stack_of(specs), deltas,
                                  AbsorptionProfile(theta[1], theta[0], theta[2], theta[3]),
                                  gradient=True)
        assert np.all(np.abs(full[:, 2]) <= 1e-15 * np.abs(jac).max())

    def test_no_absorption_leaves_width_and_shift_unidentified(self):
        width, alpha, shift, eff = self.FILTERS["no_absorption"]
        _, jac = filtered_counts(stack_of(self.spectra(0.4)), self.DELTAS,
                                 AbsorptionProfile(alpha, width, shift, eff), gradient=True)
        assert np.all(jac[:, [0, 2]] == 0.0)
        assert np.all(jac[:, 1] < 0.0)

    @pytest.mark.parametrize("step", STEPS)
    @pytest.mark.parametrize("s0", S0)
    @pytest.mark.parametrize("name", FILTERS)
    def test_stacked_counts_are_cascaded_count_bit_for_bit(self, step, s0, name):
        # a row of the stack is computed exactly as it is alone
        width, alpha, shift, eff = self.FILTERS[name]
        prof = AbsorptionProfile(alpha, width, shift, eff)
        specs = self.spectra(s0, self.STEPS[step])
        expected = [one_point_count(s, prof, d) for s, d in zip(specs, self.DELTAS)]
        got = filtered_counts(stack_of(specs), self.DELTAS, prof)
        np.testing.assert_array_equal(got, expected)

    def test_each_count_is_cascaded_count(self):
        specs = self.spectra(2.5)
        expected = [one_point_count(s, FITTED, d) for s, d in zip(specs, self.DELTAS)]
        np.testing.assert_array_equal(
            filtered_counts(stack_of(specs), self.DELTAS, FITTED), expected)

    def test_stack_holds_the_spectra_as_rows(self):
        specs = self.spectra(2.5)
        stack = sample_spectrum([DriveParams(2.5, d) for d in self.DELTAS],
                                [1e3] * len(specs))
        np.testing.assert_array_equal(stack.offsets, specs[0].offsets)
        assert stack.density.shape == (len(specs), len(specs[0].offsets))
        np.testing.assert_array_equal(stack.density[3], specs[3].density)
        np.testing.assert_array_equal(stack.elastic, [s.elastic_weight for s in specs])

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="detunings"):
            filtered_counts(stack_of(self.spectra(0.4)), self.DELTAS[:-1], FITTED)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("gradient", [False, True])
    def test_non_finite_detuning_rejected(self, bad, gradient):
        # a NaN detuning gave a NaN count and an infinite one the count of
        # an absent filter (path_efficiency x count); rows that all share
        # the bad detuning are refused too
        specs = self.spectra(0.4)
        for deltas in ([0.0, bad, 3.0, math.nan, 7.0], [bad] * len(specs)):
            with pytest.raises(ValueError, match=f"detuning must be finite, got {bad}$"):
                filtered_counts(stack_of(specs), deltas, FITTED, gradient=gradient)


def quad_ratio(s0, delta, prof, gamma=GAMMA, span=10.0):
    """Cascaded/original ratio by adaptive quadrature over the +-span gamma
    grid range, with the Mollow density written out from the README."""
    quad = pytest.importorskip("scipy.integrate").quad
    s = s0 / (1.0 + 4.0 * (delta / gamma) ** 2)
    d = delta / gamma
    center = prof.shift - delta

    def density(w):
        x2 = (w / gamma) ** 2
        b1 = 0.25 + s0 / 4.0 + d * d - 2.0 * x2
        b2 = 1.25 + s0 / 2.0 + d * d - x2
        return (1.0 + s0 / 4.0 + x2) / (b1 * b1 + x2 * b2 * b2)

    def trans(w):
        return prof.path_efficiency * math.exp(
            -prof.alpha / (1.0 + 4.0 * ((w - center) / prof.width) ** 2))

    half = span * gamma
    opts = dict(points=[p for p in (0.0, center) if -half < p < half],
                epsabs=0.0, epsrel=1e-13, limit=500)
    scale = s0 / (8.0 * math.pi * gamma) * s / (1.0 + s)
    inelastic = scale * quad(lambda w: density(w) * trans(w), -half, half, **opts)[0]
    total = scale * quad(density, -half, half, **opts)[0]
    elastic = s / (2.0 + s) ** 2
    return (inelastic + elastic * trans(0.0)) / (total + elastic)


class TestGridAccuracy:
    """The model grid and a fixed gamma/20 grid against an adaptive-quadrature
    oracle."""

    @pytest.mark.parametrize("s0", TestFilteredCounts.S0)
    def test_gamma_20_ratio_within_1e_8_of_quadrature(self, s0):
        deltas = TestFilteredCounts.DELTAS
        stack = stack_of([
            one_point_spectrum(DriveParams(s0, d), 1.0, grid_step=STEP_20)
            for d in deltas])
        for prof in (FITTED, AbsorptionProfile(3.0, 12.0, -4.5, 0.6)):
            got = filtered_counts(stack, deltas, prof)
            expected = [quad_ratio(s0, d, prof) for d in deltas]
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-8)

    # (alpha, width, shift): (largest relative ratio error on the model
    # grid, at gamma/20), each about 5x the worst case measured over s0 in
    # {0.05, 0.4, 2.5, 8} and detunings in {0, 3, -7.5, 30} MHz (measured in
    # the comments as model; gamma/20). The model grid is gamma/14, /19, /25
    # and /37 for the first four filters and gamma/40 for the last two. The model-grid errors of the first four are the rounding of the
    # float arithmetic, mostly of the filter's exp(-alpha L), not the
    # quadrature's: the same sums in 30-digit arithmetic are within 4e-16 of
    # the integral.
    BOUNDS = {
        (0.85, 6.7, 0.0): (5.5e-15, 3.5e-15),  # 1.1e-15; 6.7e-16
        (2.0, 4.0, -1.5): (8e-15, 4.5e-15),  # 1.6e-15; 8.9e-16
        (20.0, 3.0, 0.5): (1.2e-13, 3.5e-14),  # 2.4e-14; 7.0e-15
        (5.0, 2.0, -1.0): (7e-14, 3e-12),  # 1.4e-14; 5.7e-13
        (5.0, 1.0, 0.0): (9e-12, 1.4e-6),  # 1.7e-12; 2.7e-7
        # a filter a tenth of the linewidth wide is not resolved on either grid
        (5.0, 0.5, 0.0): (5e-7, 3e-4),  # 1.0e-7; 6.0e-5
    }

    @pytest.mark.parametrize("filt", BOUNDS, ids=lambda f: "_".join(map(str, f)))
    def test_model_and_gamma_20_grid_errors(self, filt):
        model_bound, fixed_bound = self.BOUNDS[filt]
        prof = AbsorptionProfile(*filt, path_efficiency=0.9)
        deltas = [0.0, 3.0, -7.5, 30.0]
        for s0 in TestFilteredCounts.S0:
            expected = np.array([quad_ratio(s0, d, prof) for d in deltas])
            model = ratio_curve(deltas, s0, prof, np.ones(4))
            stack = sample_spectrum([DriveParams(s0, d) for d in deltas], np.ones(4),
                                    STEP_20)
            fixed = filtered_counts(stack, deltas, prof)
            np.testing.assert_allclose(model, expected, rtol=model_bound, atol=0.0)
            np.testing.assert_allclose(fixed, expected, rtol=fixed_bound, atol=0.0)


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
        h = spec.offsets[1] - spec.offsets[0]
        ends = [3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0]
        weights = h * np.array(ends + [1.0] * (len(spec.offsets) - 6) + ends[::-1])
        manual = float(np.sum(spec.density * trans * weights))
        manual += spec.elastic_weight * 0.9 * math.exp(
            -FITTED.alpha / (1.0 + 4.0 * (center / FITTED.width) ** 2)
        )
        got = ratio_curve([delta], s0, FITTED, [1.0])[0]
        assert got == pytest.approx(manual, rel=1e-12)
