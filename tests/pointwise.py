"""Per-point reference for the stacked cascade model.

normalize_to_counts(sample_spectrum(drive), count) builds and checks one
SpectrumGrid per point. These helpers put such spectra into a
SpectrumStack by hand and filter them with reference_counts: the
arithmetic of sample_stack and filtered_counts written out with a fresh
array for every step, as the formulas read. The package computes the same
operations in the same order in place, so it must match bit for bit.
"""

import math

import numpy as np

from cascfluor.spectrum import SpectrumStack, _grid


def stack_of(specs):
    """Normalized spectra on one grid as the rows of one stack."""
    return SpectrumStack(specs[0].offsets, np.array([s.density for s in specs]),
                         np.array([s.elastic_weight for s in specs]))


def reference_stack(drives, counts, grid_step=None):
    """sample_stack(drives, counts, grid_step) from fresh arrays: the Mollow
    density on the omega >= 0 half, mirrored, normalized by np.trapezoid."""
    gamma = drives[0].gamma
    step, half = _grid(gamma, 10.0, grid_step)
    offsets = step * np.arange(-half, half + 1)
    x = offsets[half:] / gamma
    x2 = x * x
    rows = []
    for p in drives:
        d = p.delta / p.gamma
        s = p.s0 / (1.0 + 4.0 * d ** 2)
        rows.append((p.s0, d * d, (p.s0 / (8.0 * math.pi * p.gamma)) * (s / (1.0 + s)),
                     s / (2.0 + s) ** 2))
    s0, d2, scale, elastic = np.array(rows).T
    s0, d2, scale = s0[:, None], d2[:, None], scale[:, None]
    b1 = 0.25 + s0 / 4.0 + d2 - 2.0 * x2
    b2 = 1.25 + s0 / 2.0 + d2 - x2
    right = (1.0 + s0 / 4.0 + x2) * scale / (b1 * b1 + x2 * b2 * b2)
    density = np.concatenate((right[:, :0:-1], right), axis=1)
    factor = np.asarray(counts, dtype=float) / (np.trapezoid(density, offsets) + elastic)
    return SpectrumStack(offsets, density * factor[:, None], elastic * factor)


def reference_counts(stack, detunings, prof, gradient=False):
    """filtered_counts(stack, detunings, prof, gradient) from fresh arrays."""
    offsets, density, elastic = stack
    omega = np.concatenate((offsets, (0.0,)))
    u = (omega - np.subtract(prof.shift, detunings)[:, None]) / prof.width
    lor = 1.0 / (1.0 + 4.0 * u ** 2)
    trans = prof.path_efficiency * np.exp(-prof.alpha * lor)
    counts = np.trapezoid(density * trans[:, :-1], offsets) + elastic * trans[:, -1]
    if not gradient:
        return counts
    half = np.diff(offsets) / 2.0
    weights = np.concatenate((half, [0.0, 1.0]))
    weights[1:-1] += half
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
