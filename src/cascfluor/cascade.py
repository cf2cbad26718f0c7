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

from .spectrum import (
    DEFAULT_GAMMA_MHZ,
    DriveParams,
    SpectrumGrid,
    normalize_to_counts,
    sample_spectrum,
)

# Off-resonance cascaded/original count ratio; folds fiber loss and
# imperfect mirror reflection into one number.
DEFAULT_PATH_EFFICIENCY = 0.9


class UnnormalizedSpectrumError(ValueError):
    """Raised when a cascade integral is asked for a spectrum that was never
    rescaled to a measured photon number."""


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


def filtered_counts(specs, detunings, prof: AbsorptionProfile, gradient: bool = False):
    """Cascaded count of each normalized spectrum, all on one shared grid.

    specs[i] is filtered as seen by a drive detuned by detunings[i], with
    the arithmetic of cascaded_count. The grid spacing is taken once per
    call and the Lorentzian L is evaluated once per spectrum, with the
    elastic line as one more point at omega = 0. With gradient=True, also
    returns the (len(specs), 4) closed-form derivatives of the counts with
    respect to (width, alpha, shift, path_efficiency), from the same
    arrays: with u = (omega - shift + detuning) / width and
    T = path_efficiency * exp(-alpha L), dT/dalpha = -L T,
    dT/dwidth = -alpha T 8 u^2 L^2 / width,
    dT/dshift = -alpha T 8 u L^2 / width and
    dT/dpath_efficiency = T / path_efficiency.
    """
    offsets = specs[0].offsets
    omega = np.concatenate((offsets, (0.0,)))
    step = offsets[1:] - offsets[:-1]
    counts = np.empty(len(specs))
    if gradient:
        jac = np.empty((len(specs), 4))
        # trapezoid weight of each grid point, then 1 for the elastic line
        half = step / 2.0
        weights = np.concatenate((half, [0.0, 1.0]))
        weights[1:-1] += half
    for i, (spec, delta) in enumerate(zip(specs, detunings, strict=True)):
        if spec.counts is None:
            raise UnnormalizedSpectrumError(
                "spectrum was not normalized to a photon count (use normalize_to_counts)"
            )
        # uniform grids of one length and the same ends are the same grid
        grid = spec.offsets
        if len(grid) != len(offsets) or grid[0] != offsets[0] or grid[-1] != offsets[-1]:
            raise ValueError("spectra must share one frequency grid")
        u = (omega - (prof.shift - delta)) / prof.width
        lor = 1.0 / (1.0 + 4.0 * u ** 2)
        trans = prof.path_efficiency * np.exp(-prof.alpha * lor)
        y = spec.density * trans[:-1]
        counts[i] = (step * (y[1:] + y[:-1]) / 2.0).sum() + spec.elastic_weight * trans[-1]
        if gradient:
            # minus the integrand of d/dalpha, times the quadrature weights
            g = np.concatenate((spec.density, (spec.elastic_weight,))) * weights * trans * lor
            ul = u * lor
            k = -8.0 * prof.alpha / prof.width
            jac[i] = (k * ((g * ul) @ u), -g.sum(), k * (g @ ul),
                      counts[i] / prof.path_efficiency)
    return (counts, jac) if gradient else counts


def cascaded_count(
    spec: SpectrumGrid,
    prof: AbsorptionProfile,
    drive_detuning: float = 0.0,
) -> float:
    """Photon count surviving the round trip through the absorbing ensemble.

    Integrates density(omega) * transmission(omega) over the grid and adds
    the elastic weight attenuated at omega = 0, since elastic scattering
    preserves the drive frequency. The filter is pinned to the lab frame:
    on the laser-relative grid its center sits at shift - drive_detuning.
    The spectrum must have been normalized to a measured count first.
    """
    return float(filtered_counts([spec], [drive_detuning], prof)[0])


def cascaded_counts(
    drives,
    original_counts,
    prof: AbsorptionProfile,
    grid_span: float = 10.0,
    grid_step: float | None = None,
) -> np.ndarray:
    """Cascaded count at each drive point, as an array.

    Each point's spectrum is normalized to its original count and filtered
    straight away, so one spectrum is held at a time.
    """
    return np.array([
        cascaded_count(normalize_to_counts(sample_spectrum(d, grid_span, grid_step), n),
                       prof, d.delta)
        for d, n in zip(drives, original_counts, strict=True)
    ])


def ratio_curve(
    detunings,
    s0: float,
    prof: AbsorptionProfile,
    original_counts,
    gamma: float = DEFAULT_GAMMA_MHZ,
    grid_span: float = 10.0,
    grid_step: float | None = None,
) -> np.ndarray:
    """Cascaded/original count ratio for each drive detuning.

    The emission spectrum is recomputed per detuning, normalized to the
    measured original count there, and sent through the filter. The curve
    dips where the drive sits on the filter center and the dip gets
    shallower with increasing s0 as the sidebands escape the filter.
    """
    counts = np.asarray(original_counts, dtype=float)
    drives = [DriveParams(s0, delta, gamma) for delta in detunings]
    return cascaded_counts(drives, counts, prof, grid_span, grid_step) / counts
