"""Mirror round trip and Beer-Lambert absorption by the second ensemble.

The reflected fluorescence is attenuated by a Lorentzian optical-depth
profile fixed in the lab frame (the absorber is a cloud of ground-state
atoms, so its line does not move with the drive laser). Spectra, by
contrast, live on a laser-relative frequency axis, so for a drive detuned
by `delta` the filter center lands at `shift - delta` on the spectrum grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import Drives, SpectrumStack, _as_drives, _grid, _weights, sample_spectrum

# Off-resonance cascaded/original count ratio; folds fiber loss and
# imperfect mirror reflection into one number.
DEFAULT_PATH_EFFICIENCY = 0.9
# cascaded_counts samples and filters at most this many grid values (points x
# grid) at a time: from 45 rows of the 281-point grid of filters at least a
# linewidth wide to 16 rows of the 801-point grid of filters narrower than
# about 1.8 MHz. Their (rows, grid + 1) arrays of about 100 KiB stay under
# glibc's initial 128 KiB mmap threshold. Larger arrays are mapped and
# faulted in afresh while a process has not raised it: on the 801-point grid
# a 121-point detuning scan in a fresh process took 3.1 ms and 0 minor
# faults at 16 rows, 4.1 ms at 8, 4.7 ms and 1032 faults at 40 and 5.1 ms
# and 1452 faults at 121 (medians of four processes' medians of 200 calls,
# 2-vCPU Xeon, numpy 2.4). On the 281-point grid at 45 rows it took 0 or
# 109-184 faults, varying between processes of the same code, and 1.0-2.1
# ms either way.
STACK_VALUES = 12_816


@dataclass(frozen=True)
class AbsorptionProfile:
    """Second-ensemble filter parameters.

    alpha is the peak optical depth; width is the full width at half
    maximum of the Lorentzian profile in MHz (not the half-width); shift is
    the filter center in MHz relative to the unshifted atomic line
    (positive = blue of it); path_efficiency covers fiber loss and mirror
    reflection and multiplies the transmission everywhere.
    """

    alpha: float
    width: float
    shift: float = 0.0
    path_efficiency: float = DEFAULT_PATH_EFFICIENCY

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha, self.width, self.shift))):
            raise ValueError(f"filter parameters must be finite, got {self}")
        if self.alpha < 0:
            raise ValueError(f"optical depth must be >= 0, got {self.alpha}")
        if self.width <= 0:
            raise ValueError(f"filter width must be > 0, got {self.width}")
        if not 0.0 < self.path_efficiency <= 1.0:
            raise ValueError(
                f"path efficiency must be in (0, 1], got {self.path_efficiency}"
            )


def filtered_counts(stack: SpectrumStack, detunings, prof: AbsorptionProfile,
                    gradient: bool = False):
    """Cascaded count of each row of a spectrum stack, all rows at once.

    stack (from sample_spectrum) holds the shared offsets, the (n, grid)
    densities and the (n,) elastic weights of n spectra; row i is
    filtered as seen by a drive detuned by detunings[i], which must be
    finite. The Lorentzian L = 1 / (1 + 4 u^2) of
    u = (omega - shift + detuning) / width and the transmission
    T = path_efficiency * exp(-alpha L) are evaluated as (n, grid + 1)
    arrays, the elastic line being the last column at omega = 0. Each
    count is the integral of its row of density * transmission, by the
    end-corrected trapezoid of spectrum._weights, plus the attenuated
    elastic weight, so a row comes out bit for bit as it would alone. With
    gradient=True, also returns the (n, 4) closed-form derivatives of the
    counts with respect to (width, alpha, shift, path_efficiency), from the
    same arrays: dT/dalpha = -L T, dT/dwidth = -alpha T 8 u^2 L^2 / width,
    dT/dshift = -alpha T 8 u L^2 / width and dT/dpath_efficiency =
    T / path_efficiency.
    """
    offsets, density, elastic = stack
    detunings = np.asarray(detunings, dtype=float)
    if detunings.shape != elastic.shape:
        raise ValueError(f"{len(elastic)} spectra need as many detunings, "
                         f"got shape {detunings.shape}")
    bad = ~np.isfinite(detunings)
    if bad.any():
        raise ValueError(f"drive detuning must be finite, got {detunings[bad][0]}")
    axis = np.concatenate((offsets, (0.0,)))
    u = np.subtract(axis, np.subtract(prof.shift, detunings)[:, None])
    u /= prof.width
    lor = 1.0 / (1.0 + 4.0 * u ** 2)
    trans = prof.path_efficiency * np.exp(-prof.alpha * lor)
    weights = _weights(offsets)
    counts = np.add.reduce(density * trans[:, :-1] * weights, axis=-1) + elastic * trans[:, -1]
    if not gradient:
        return counts
    # minus the integrand of d/dalpha, density (elastic weight) times L T,
    # in T's array; then times u L (d/dshift) and times u again (d/dwidth);
    # the elastic line's weight is 1
    weights = np.append(weights, 1.0)
    g = np.multiply(trans, lor, out=trans)
    g[:, :-1] *= density
    g[:, -1] *= elastic
    k = -8.0 * prof.alpha / prof.width
    # the columns filled in place, in column_stack's order and C layout
    jac = np.empty((len(counts), 4))
    np.negative(g @ weights, out=jac[:, 1])
    np.multiply(k, np.multiply(np.multiply(g, u, out=g), lor, out=g) @ weights,
                out=jac[:, 2])
    np.multiply(k, np.multiply(g, u, out=g) @ weights, out=jac[:, 0])
    np.divide(counts, prof.path_efficiency, out=jac[:, 3])
    return counts, jac


def _model_step(gamma: float, width: float) -> float:
    """Step (MHz) of cascaded_counts' grid for linewidth gamma and a filter
    of this FWHM: gamma / N with N = min(40, ceil(14 gamma / min(gamma,
    width))) steps per linewidth, so that the narrower of the line and the
    filter spans at least 14 steps, down to gamma/40 for filters narrower
    than about 0.35 gamma. N is an integer, so the grid ends at +-10 gamma.
    gamma / width is taken first: 14 gamma / gamma is not 14 for every
    gamma (5.2 gives 14.000000000000002)."""
    return gamma / math.ceil(min(40.0, 14.0 * max(1.0, gamma / width)))


def cascaded_counts(drives, original_counts, prof: AbsorptionProfile) -> np.ndarray:
    """Cascaded count at each drive point, as an array.

    drives is a Drives or any sequence of DriveParams. Each point's
    spectrum is sampled over +-10 linewidths at the step _model_step picks
    from its linewidth and the filter width (gamma/14, 281 points, for
    filters at least a linewidth wide; at most 801 points), normalized to
    its original count and filtered, by the end-corrected trapezoid of
    spectrum._weights: its count is bit for bit
    filtered_counts(sample_spectrum([drive], [count], step), [delta], prof)
    alone. The drive arrays are cut where the linewidth changes, and each
    run of one linewidth into chunks of at most STACK_VALUES grid values;
    each chunk goes through sample_spectrum and filtered_counts as one
    stack. Against adaptive quadrature the largest ratio error is 2.4e-14
    for filters of 2 MHz or wider (README, "Model grid"), the
    rounding of the float arithmetic rather than the quadrature's; a
    narrower filter is sampled at gamma/40 and resolved worse (1.7e-12 at
    1 MHz, 1e-7 at 0.5 MHz).
    """
    drives = _as_drives(drives)
    counts = np.fromiter(original_counts, dtype=float)
    n = len(drives.s0)
    if len(counts) != n:
        raise ValueError(f"{n} drives need as many counts, got {len(counts)}")
    out = np.empty(n)
    if not n:
        return out
    gammas = drives.gamma
    cuts = (np.flatnonzero(gammas[1:] != gammas[:-1]) + 1).tolist()
    for start, stop in zip([0, *cuts], [*cuts, n]):
        gamma = float(gammas[start])
        step = _model_step(gamma, prof.width)
        rows = STACK_VALUES // (2 * _grid(gamma, 10.0, step)[1] + 1)
        for lo in range(start, stop, rows):
            run = slice(lo, min(lo + rows, stop))
            chunk = Drives(*(a[run] for a in drives))
            out[run] = filtered_counts(sample_spectrum(chunk, counts[run], step),
                                       chunk.delta, prof)
    return out


def ratio_curve(
    detunings,
    s0: float,
    prof: AbsorptionProfile,
    original_counts,
) -> np.ndarray:
    """Cascaded/original count ratio for each drive detuning.

    The drives are Drives.of(s0, detunings): saturation s0 and the default
    natural linewidth (DEFAULT_GAMMA_MHZ) at every detuning. Each ratio is
    the cascaded_counts of its drive, on the model grid and to the
    accuracy stated there, over its original count: bit for bit that of
    fit.cascade_model_counts, the model that fit_cascade fits. The curve
    dips where the drive sits on the filter center and the dip gets
    shallower with increasing s0 as the sidebands escape the filter.
    """
    counts = np.fromiter(original_counts, dtype=float)
    drives = Drives.of(s0, np.fromiter(detunings, dtype=float))
    return cascaded_counts(drives, counts, prof) / counts
