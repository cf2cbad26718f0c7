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

from .spectrum import (Drives, SpectrumStack, _as_drives, _quadrature, _sample, _sampling_grid,
                       _weights)

# Off-resonance cascaded/original count ratio; folds fiber loss and
# imperfect mirror reflection into one number.
DEFAULT_PATH_EFFICIENCY = 0.9
# cascaded_counts samples and filters at most this many grid values (points x
# grid) at a time: from 45 rows of the 281-point grid of filters at least a
# linewidth wide to 16 rows of the 801-point grid of filters narrower than
# about 1.8 MHz. A call allocates three flat buffers of at most (rows, grid +
# 1) values and reuses them for every stack: 101,520 bytes each at 45 x 282
# and 102,656 at 16 x 802, under glibc's initial 128 KiB mmap threshold. Larger arrays are
# mapped and faulted in afresh while a process has not raised it: when each
# stack allocated its arrays, a 121-point detuning scan on the 801-point
# grid in a fresh process took 0 minor faults at 16 rows, 1032 at 40 and
# 1452 at 121. With the buffers, the four 121-point scans of the benchmark's
# scan op (281 points) took 0 faults in 300 loops in each of three fresh
# processes (2.5-4.4 ms per loop), and 0 per op with the harness's
# calibration kernel between ops, where allocating each stack's arrays took
# 399 per op (three processes each; 2-vCPU Xeon, numpy 2.4).
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


def filtered_counts(stack: SpectrumStack, detunings, prof: AbsorptionProfile):
    """Cascaded count of each row of a spectrum stack, all rows at once, and
    the (n, 4) closed-form derivatives of the counts with respect to
    (width, alpha, shift, path_efficiency).

    stack (from sample_spectrum) holds n spectra on one grid; row i is
    filtered as seen by a drive detuned by detunings[i]. The counts are
    those of _filter, cascaded_counts' filter step, on fresh arrays; the
    derivatives integrate, from its u, L and T, dT/dalpha = -L T, dT/dwidth
    = -alpha T 8 u^2 L^2 / width, dT/dshift = -alpha T 8 u L^2 / width and
    dT/dpath_efficiency = T / path_efficiency.
    """
    density, elastic = stack.density, stack.elastic
    arrays = np.empty((3, len(elastic), len(stack.offsets) + 1))
    counts, weights, (u, lor, trans) = _filter(stack, detunings, prof,
                                               np.empty(density.shape), arrays)
    # minus the integrand of d/dalpha, density (elastic weight) times L T,
    # in T's array when it has a row per spectrum; then times u L
    # (d/dshift) and times u again (d/dwidth)
    tl = np.multiply(trans, lor, out=trans)
    g = tl if len(tl) == len(elastic) else np.empty(arrays.shape[1:])
    np.multiply(tl[:, :-1], density, out=g[:, :-1])
    np.multiply(tl[:, -1], elastic, out=g[:, -1])
    k = -8.0 * prof.alpha / prof.width
    # the columns filled in place, in column_stack's order and C layout
    jac = np.empty((len(counts), 4))
    np.negative(g @ weights, out=jac[:, 1])
    np.multiply(k, np.multiply(np.multiply(g, u, out=g), lor, out=g) @ weights,
                out=jac[:, 2])
    np.multiply(k, np.multiply(g, u, out=g) @ weights, out=jac[:, 0])
    np.divide(counts, prof.path_efficiency, out=jac[:, 3])
    return counts, jac


def _filter(stack: SpectrumStack, detunings, prof: AbsorptionProfile, work, arrays):
    """Cascaded count of each row of stack, row i filtered as seen by a
    drive detuned by detunings[i], which must be finite: the filter step of
    filtered_counts and cascaded_counts. _transmission evaluates u =
    (omega - shift + detuning) / width, L = 1 / (1 + 4 u^2) and T =
    path_efficiency * exp(-alpha L) on the filter axis (the grid, then the
    elastic line at omega = 0), one row per spectrum, or one row for all
    when they share one detuning (a power scan), which changes no bit;
    _counts integrates density * T by the grid's memoized
    spectrum._quadrature. arrays holds (at least n, grid + 1) arrays for
    u, L and T, or one for T alone, and work is of the density's shape.
    Returns the counts, the quadrature and the rows written of u, L and T.
    """
    offsets, density, elastic = stack
    detunings = np.asarray(detunings, dtype=float)
    if detunings.shape != elastic.shape:
        raise ValueError(f"{len(elastic)} spectra need as many detunings, "
                         f"got shape {detunings.shape}")
    rows = detunings
    if len(detunings):
        lo, hi = detunings.min(), detunings.max()
        # min and max see a NaN
        if not -math.inf < lo <= hi < math.inf:
            bad = detunings[~np.isfinite(detunings)][0]
            raise ValueError(f"drive detuning must be finite, got {bad}")
        if lo == hi:
            # one u, L and T row, broadcast into every row product
            rows = detunings[:1]
    axis = np.concatenate((offsets, (0.0,)))
    weights = _quadrature(float(offsets[1] - offsets[0]), len(offsets))
    views = [a[:len(rows)] for a in arrays]
    u, lor, trans = views if len(views) == 3 else views * 3
    _transmission(axis, np.subtract(prof.shift, rows), prof, u, lor, trans)
    return _counts(stack, trans, weights, work), weights, (u, lor, trans)


def _transmission(axis, centers, prof: AbsorptionProfile, u, lor, trans) -> None:
    """u = (axis - center) / width, L = 1 / (1 + 4 u^2) and the transmission
    T = path_efficiency * exp(-alpha L) of one row per filter center,
    written into u, lor and trans, (len(centers), len(axis)) arrays in the
    order of operations of those expressions; one array may stand for all
    three when only T is wanted. A center is shift - detuning on the
    spectrum's laser-relative axis."""
    np.subtract(axis, centers[:, None], out=u)
    u /= prof.width
    # what u ** 2 computes
    np.square(u, out=lor)
    lor *= 4.0
    lor += 1.0
    np.divide(1.0, lor, out=lor)
    np.multiply(-prof.alpha, lor, out=trans)
    np.exp(trans, out=trans)
    trans *= prof.path_efficiency


def _counts(stack: SpectrumStack, trans, weights, work) -> np.ndarray:
    """Cascaded count of each row of stack: the integral of density * T by
    the grid's quadrature (weights, whose last weight 1.0 is the elastic
    line's) plus the elastic weight times T at omega = 0, for trans from
    _transmission, one row per spectrum or one row for all. work is an
    array of the density's shape; each row is summed on its own
    (np.add.reduce), so it comes out bit for bit as it would alone."""
    np.multiply(stack.density, trans[:, :-1], out=work)
    work *= weights[:-1]
    return np.add.reduce(work, axis=-1) + stack.elastic * trans[:, -1]


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
    filtered_counts(sample_spectrum([drive], [count], step), [delta], prof)[0]
    alone. The drive arrays are cut where the linewidth changes, and each
    run of one linewidth into chunks of at most STACK_VALUES grid values.
    Each chunk is sampled by sample_spectrum's spectrum._sample and
    filtered by filtered_counts' _filter, as one stack, in place in three
    flat buffers of at most (rows, grid + 1) values that the call reuses.
    The first drive whose count is not finite and > 0, or whose spectrum
    has no weight, raises. Against adaptive quadrature the largest ratio
    error is 2.4e-14 for filters of 2 MHz or wider (README, "Model grid"),
    the rounding of the float arithmetic rather than the quadrature's; a
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
    # the densities, the work of _sample and _filter, and T: flat buffers
    # kept from run to run, grown when a run needs more
    buffers = [np.empty(0)] * 3
    for start, stop in zip([0, *cuts], [*cuts, n]):
        gamma = float(gammas[start])
        offsets, x2 = _sampling_grid(gamma, 10.0, _model_step(gamma, prof.width))
        grid = len(offsets)
        weights = _weights(offsets)
        rows = STACK_VALUES // grid
        block = min(rows, stop - start) * (grid + 1)
        buffers = [b if len(b) >= block else np.empty(block) for b in buffers]
        flat_density, work, flat_trans = buffers
        for lo in range(start, stop, rows):
            run = slice(lo, min(lo + rows, stop))
            m = run.stop - lo
            density = flat_density[:m * grid].reshape(m, grid)
            elastic = _sample(x2, weights, drives, run, counts, density, work)
            out[run] = _filter(SpectrumStack(offsets, density, elastic), drives.delta[run],
                               prof, work[:m * grid].reshape(m, grid),
                               flat_trans[:m * (grid + 1)].reshape(1, m, grid + 1))[0]
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
