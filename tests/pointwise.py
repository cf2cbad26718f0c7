"""Per-point references for the stacked spectrum and cascade model.

one_point_spectrum builds one spectrum the way the formulas read:
mollow_density on the full grid, elastic_weight, and a normalization by
the end-corrected trapezoid, whose weights gregory_weights writes out.
stack_of puts such spectra into a SpectrumStack by hand, reference_stack
builds a whole stack from fresh arrays, and reference_counts filters a
stack: the arithmetic of sample_spectrum and filtered_counts written out
on the whole grid. The package computes the same operations in the same
order, and broadcasts over the omega >= 0 half of the grid, so it must
match bit for bit. lorentzian_profile and transmission are the filter
written out on its own, as the formulas read.
"""

import math
from typing import NamedTuple

import numpy as np

from cascfluor.spectrum import (SpectrumStack, _grid, detuned_saturation, elastic_weight,
                                mollow_density)


def gregory_weights(offsets):
    """Gregory's eighth-order end-corrected trapezoid weights of a uniform
    grid: h * [e1, ..., e8, 1, ..., 1, e8, ..., e1], the ends from
    Euler-Maclaurin."""
    h = offsets[1] - offsets[0]
    ends = [h * (1070017.0 / 3628800.0), h * (5537111.0 / 3628800.0),
            h * (103613.0 / 403200.0), h * (261115.0 / 145152.0),
            h * (298951.0 / 725760.0), h * (515677.0 / 403200.0),
            h * (3349879.0 / 3628800.0), h * (3662753.0 / 3628800.0)]
    return np.array(ends + [h] * (len(offsets) - 16) + ends[::-1])


def model_step(gamma, prof):
    """cascaded_counts' grid step for linewidth gamma and the filter prof:
    gamma / N, N = min(40, ceil(14 gamma / min(gamma, width))), with
    gamma / width taken first so that a filter wider than the line gets
    exactly N = 14."""
    return gamma / min(40, math.ceil(14.0 * max(1.0, gamma / prof.width)))


def integral(y, offsets):
    """Integral of y (one row or many) over the grid offsets."""
    return np.sum(y * gregory_weights(offsets), axis=-1)


def lorentzian_profile(omega, prof, drive_detuning=0.0):
    """Unit-peak Lorentzian L(omega) = 1 / (1 + 4 ((omega - center)/width)^2).

    center = shift - drive_detuning: the lab-frame filter on the axis of a
    detuned drive. Equals 1 at the center and 1/2 one half-width away.
    """
    center = prof.shift - drive_detuning
    return 1.0 / (1.0 + 4.0 * ((np.asarray(omega, dtype=float) - center) / prof.width) ** 2)


def transmission(omega, prof, drive_detuning=0.0):
    """Beer-Lambert transmission path_efficiency * exp(-alpha * L(omega))."""
    lor = lorentzian_profile(omega, prof, drive_detuning)
    return prof.path_efficiency * np.exp(-prof.alpha * lor)


class OnePointSpectrum(NamedTuple):
    """One spectrum: the grid, its inelastic density and the elastic weight."""

    offsets: np.ndarray
    density: np.ndarray
    elastic_weight: float

    def total_weight(self):
        """Integral of the density plus the elastic weight."""
        return float(integral(self.density, self.offsets) + self.elastic_weight)


def one_point_spectrum(drive, count=None, grid_span=10.0, grid_step=None):
    """sample_spectrum([drive], [count], grid_step, grid_span) as one
    spectrum from fresh arrays: the Mollow density on the whole grid and,
    given a count, one factor that makes the integral plus the elastic
    weight equal it."""
    step, half = _grid(drive.gamma, grid_span, grid_step)
    offsets = step * np.arange(-half, half + 1)
    spec = OnePointSpectrum(offsets, mollow_density(offsets, drive),
                            elastic_weight(detuned_saturation(drive)))
    if count is None:
        return spec
    factor = count / spec.total_weight()
    return OnePointSpectrum(offsets, spec.density * factor, spec.elastic_weight * factor)


def stack_of(specs):
    """Spectra on one grid as the rows of one stack."""
    return SpectrumStack(specs[0].offsets, np.array([s.density for s in specs]),
                         np.array([s.elastic_weight for s in specs]))


def reference_stack(drives, counts, grid_step=None):
    """sample_spectrum(drives, counts, grid_step) from fresh arrays: the Mollow
    density on the omega >= 0 half, mirrored, normalized by its integral."""
    gamma = drives[0].gamma
    step, half = _grid(gamma, 10.0, grid_step)
    offsets = step * np.arange(-half, half + 1)
    x = offsets[half:] / gamma
    x2 = x * x
    rows = []
    for p in drives:
        d = p.delta / p.gamma
        # squares as products: a Python float's ** 2 calls pow
        s = p.s0 / (1.0 + 4.0 * (d * d))
        rows.append((p.s0, d * d, (p.s0 / (8.0 * math.pi * p.gamma)) * (s / (1.0 + s)),
                     s / ((2.0 + s) * (2.0 + s))))
    s0, d2, scale, elastic = np.array(rows).T
    s0, d2, scale = s0[:, None], d2[:, None], scale[:, None]
    b1 = 0.25 + s0 / 4.0 + d2 - 2.0 * x2
    b2 = 1.25 + s0 / 2.0 + d2 - x2
    right = (1.0 + s0 / 4.0 + x2) * scale / (b1 * b1 + x2 * b2 * b2)
    density = np.concatenate((right[:, :0:-1], right), axis=1)
    factor = np.asarray(counts, dtype=float) / (integral(density, offsets) + elastic)
    return SpectrumStack(offsets, density * factor[:, None], elastic * factor)


def reference_counts(stack, detunings, prof, gradient=False):
    """filtered_counts(stack, detunings, prof) from fresh arrays: the counts,
    and with gradient=True also their derivatives."""
    offsets, density, elastic = stack
    omega = np.concatenate((offsets, (0.0,)))
    u = (omega - np.subtract(prof.shift, detunings)[:, None]) / prof.width
    lor = 1.0 / (1.0 + 4.0 * u ** 2)
    trans = prof.path_efficiency * np.exp(-prof.alpha * lor)
    counts = integral(density * trans[:, :-1], offsets) + elastic * trans[:, -1]
    if not gradient:
        return counts
    weights = np.concatenate((gregory_weights(offsets), [1.0]))
    g = trans * lor
    g[:, :-1] *= density
    g[:, -1] *= elastic
    gu = g * u * lor
    k = -8.0 * prof.alpha / prof.width
    return counts, np.column_stack((k * ((gu * u) @ weights), -(g @ weights),
                                    k * (gu @ weights), counts / prof.path_efficiency))


def one_point_count(spec, prof, drive_detuning=0.0):
    """Cascaded count of one normalized spectrum, by the reference filter."""
    return float(reference_counts(stack_of([spec]), [drive_detuning], prof)[0])
