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

from .spectrum import DriveParams, SpectrumStack, _grid, _trapezoid, sample_spectrum

# Off-resonance cascaded/original count ratio; folds fiber loss and
# imperfect mirror reflection into one number.
DEFAULT_PATH_EFFICIENCY = 0.9
# cascaded_counts samples and filters at most this many grid values (points
# x grid) per stack: eight points of the default grid, which spreads the fixed
# cost of sample_spectrum and filtered_counts while their temporaries stay in
# cache. Sampling plus filtering costs about 100 us per point alone, 52 us at
# four points, 44 us at eight and 57 us at sixteen (2-vCPU host, +-30%).
STACK_VALUES = 16384


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


def lorentzian_profile(omega, prof: AbsorptionProfile, drive_detuning: float = 0.0):
    """Unit-peak Lorentzian L(omega) = 1 / (1 + 4 ((omega - center)/width)^2).

    center = shift - drive_detuning: the lab-frame filter on the axis of a
    detuned drive. Equals 1 at the center and 1/2 one half-width away.
    """
    center = prof.shift - drive_detuning
    return 1.0 / (1.0 + 4.0 * ((np.asarray(omega, dtype=float) - center) / prof.width) ** 2)


def transmission(omega, prof: AbsorptionProfile, drive_detuning: float = 0.0):
    """Beer-Lambert transmission path_efficiency * exp(-alpha * L(omega))."""
    lor = lorentzian_profile(omega, prof, drive_detuning)
    return prof.path_efficiency * np.exp(-prof.alpha * lor)


def filtered_counts(stack: SpectrumStack, detunings, prof: AbsorptionProfile,
                    gradient: bool = False):
    """Cascaded count of each row of a spectrum stack, all rows at once.

    stack (from sample_spectrum) holds the shared offsets, the (n, grid)
    densities and the (n,) elastic weights of n spectra; row i is
    filtered as seen by a drive detuned by detunings[i]. The Lorentzian
    L and the transmission are evaluated as (n, grid + 1) arrays, the
    elastic line being the last column at omega = 0. Each count is the
    trapezoid of its row of density * transmission plus the attenuated
    elastic weight, so a row comes out bit for bit as it would alone. With
    gradient=True, also returns the (n, 4) closed-form derivatives of the
    counts with respect to (width, alpha, shift, path_efficiency), from the
    same arrays: with u = (omega - shift + detuning) / width and
    T = path_efficiency * exp(-alpha L), dT/dalpha = -L T,
    dT/dwidth = -alpha T 8 u^2 L^2 / width, dT/dshift = -alpha T 8 u L^2 /
    width and dT/dpath_efficiency = T / path_efficiency.
    """
    offsets, density, elastic = stack
    centers = np.subtract(prof.shift, detunings)
    if centers.shape != elastic.shape:
        raise ValueError(f"{len(elastic)} spectra need as many detunings, "
                         f"got shape {centers.shape}")
    u = np.subtract(np.concatenate((offsets, (0.0,))), centers[:, None])
    u /= prof.width
    # L = 1 / (1 + 4 u^2) and T = path_efficiency * exp(-alpha L), operation for
    # operation; the value path turns u into L, T and the integrand in place
    work = None if gradient else u
    lor = np.square(u, out=work)
    np.divide(1.0, np.add(1.0, np.multiply(4.0, lor, out=lor), out=lor), out=lor)
    trans = np.multiply(-prof.alpha, lor, out=work)
    np.multiply(prof.path_efficiency, np.exp(trans, out=trans), out=trans)
    inelastic = np.multiply(density, trans[:, :-1], out=None if gradient else trans[:, :-1])
    counts = _trapezoid(offsets, inelastic) + elastic * trans[:, -1]
    if not gradient:
        return counts
    # trapezoid weight of each grid point, then 1 for the elastic line
    half = (offsets[1:] - offsets[:-1]) / 2.0
    weights = np.concatenate((half, [0.0, 1.0]))
    weights[1:-1] += half
    # minus the integrand of d/dalpha, density (elastic weight) times L T,
    # in T's array; then times u L (d/dshift) and times u again (d/dwidth)
    g = np.multiply(trans, lor, out=trans)
    g[:, :-1] *= density
    g[:, -1] *= elastic
    k = -8.0 * prof.alpha / prof.width
    d_alpha = -(g @ weights)
    d_shift = k * (np.multiply(np.multiply(g, u, out=g), lor, out=g) @ weights)
    d_width = k * (np.multiply(g, u, out=g) @ weights)
    return counts, np.column_stack((d_width, d_alpha, d_shift, counts / prof.path_efficiency))


def cascaded_counts(drives, original_counts, prof: AbsorptionProfile) -> np.ndarray:
    """Cascaded count at each drive point, as an array.

    Each point's spectrum is sampled over +-10 linewidths at gamma/100 and
    normalized to its original count, as sample_spectrum([drive], [count])
    would alone. Consecutive points of one linewidth (one grid) are
    sampled by one sample_spectrum call and filtered together, at most
    STACK_VALUES grid values at a time, so only a few spectra are held at
    once.
    """
    drives = list(drives)
    counts = np.fromiter(original_counts, dtype=float)
    if len(counts) != len(drives):
        raise ValueError(f"{len(drives)} drives need as many counts, got {len(counts)}")
    out = np.empty(len(drives))
    start = 0
    while start < len(drives):
        gamma = drives[start].gamma
        _, half = _grid(gamma, 10.0, None)
        limit = min(start + max(1, STACK_VALUES // (2 * half + 1)), len(drives))
        stop = start + 1
        while stop < limit and drives[stop].gamma == gamma:
            stop += 1
        stack = sample_spectrum(drives[start:stop], counts[start:stop])
        out[start:stop] = filtered_counts(stack, [d.delta for d in drives[start:stop]], prof)
        start = stop
    return out


def ratio_curve(
    detunings,
    s0: float,
    prof: AbsorptionProfile,
    original_counts,
) -> np.ndarray:
    """Cascaded/original count ratio for each drive detuning.

    Each drive has saturation s0 and the default natural linewidth
    (DriveParams' DEFAULT_GAMMA_MHZ). The emission spectrum is recomputed
    per detuning, normalized to the measured original count there, and sent
    through the filter, all through cascaded_counts: a few detunings share
    one sample_spectrum broadcast and one filtered_counts call, bit for bit
    the per-point result. The curve dips where the drive sits on the filter
    center and the dip gets shallower with increasing s0 as the sidebands
    escape the filter.
    """
    counts = np.fromiter(original_counts, dtype=float)
    drives = [DriveParams(s0, delta) for delta in detunings]
    return cascaded_counts(drives, counts, prof) / counts
