"""Closed-form spectral physics of a driven two-level ensemble.

Saturation, Rabi frequency, and the Mollow emission spectrum (elastic line
plus inelastic triplet) tabulated on a frequency grid. All frequencies here
are ordinary frequencies in MHz; there are no angular-frequency factors
anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Cs D2 natural linewidth in MHz (1 / (2 pi * 30.4 ns) to within rounding).
DEFAULT_GAMMA_MHZ = 5.2


class NormalizationError(ValueError):
    """Raised when a spectrum has no weight to rescale."""


@dataclass(frozen=True)
class DriveParams:
    """Excitation conditions of the driven ensemble.

    s0 is the on-resonance saturation parameter, delta the drive-laser
    detuning from the unshifted atomic line in MHz, gamma the natural
    linewidth (FWHM) in MHz.
    """

    s0: float
    delta: float = 0.0
    gamma: float = DEFAULT_GAMMA_MHZ

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.s0, self.delta, self.gamma))):
            raise ValueError(f"drive parameters must be finite, got {self}")
        if self.s0 < 0:
            raise ValueError(f"saturation parameter must be >= 0, got {self.s0}")
        if self.gamma <= 0:
            raise ValueError(f"natural linewidth must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class SpectrumGrid:
    """Emission spectrum tabulated over laser-relative frequency offsets.

    `density` is the inelastic spectral density per MHz on the `offsets`
    grid; the elastic line is kept as a separate scalar weight (a delta
    line at offset zero is never rasterized onto the grid, which keeps
    integrals exact and lets a downstream filter attenuate it analytically).
    `counts` is None until the grid has been rescaled to a measured photon
    number via normalize_to_counts.
    """

    offsets: np.ndarray
    density: np.ndarray
    elastic_weight: float
    counts: float | None = None

    def __post_init__(self) -> None:
        offsets = np.asarray(self.offsets, dtype=float)
        density = np.asarray(self.density, dtype=float)
        if offsets.ndim != 1 or offsets.shape != density.shape:
            raise ValueError("offsets and density must be 1-d arrays of equal length")
        if offsets.size < 2:
            raise ValueError("spectrum grid needs at least two points")
        if not np.all(np.diff(offsets) > 0):
            raise ValueError("offsets must be strictly increasing")
        if np.any(density < 0):
            raise ValueError("density must be non-negative")
        if self.elastic_weight < 0:
            raise ValueError("elastic weight must be non-negative")
        offsets.setflags(write=False)
        density.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "density", density)

    def total_weight(self) -> float:
        """Trapezoidal integral of the density plus the elastic weight."""
        return float(np.trapezoid(self.density, self.offsets) + self.elastic_weight)


def excited_state_population(s0: float) -> float:
    """Steady-state excited fraction s0 / (2 (1 + s0)).

    Monotone in s0 and bounded by the two-level limit of one half.
    """
    if s0 < 0:
        raise ValueError(f"saturation parameter must be >= 0, got {s0}")
    return s0 / (2.0 * (1.0 + s0))


def detuned_saturation(p: DriveParams) -> float:
    """Effective saturation s0 / (1 + 4 (delta/gamma)^2) at the drive detuning."""
    return p.s0 / (1.0 + 4.0 * (p.delta / p.gamma) ** 2)


def rabi_frequency(s: float, gamma: float = DEFAULT_GAMMA_MHZ) -> float:
    """Rabi frequency gamma * sqrt(s / 2) in MHz."""
    if s < 0:
        raise ValueError(f"saturation parameter must be >= 0, got {s}")
    return gamma * math.sqrt(s / 2.0)


def elastic_weight(s: float) -> float:
    """Weight of the elastic (delta) line, s / (2 + s)^2.

    Vanishes both without drive and under strong saturation, where the
    inelastic triplet takes over.
    """
    if s < 0:
        raise ValueError(f"saturation parameter must be >= 0, got {s}")
    return s / (2.0 + s) ** 2


def mollow_density(omega, p: DriveParams):
    """Inelastic spectral density per MHz at laser-relative offset omega.

    Vectorized over omega. The two quadratic brackets in the denominator
    are the real and imaginary parts of the characteristic polynomial of
    the optical Bloch equations evaluated on the frequency axis, so the
    central line and both Rabi sidebands emerge from one rational form.
    The second bracket carries an (omega/gamma)**2 prefactor: a linear
    prefactor would flip sign at omega = 0, which is unphysical for a
    spectral density and would break the even symmetry of the resonant
    triplet (see README).

    The saturation entering the scattering weight is the detuning-reduced
    s(delta); the bracket coefficients use the on-resonance s0.
    """
    omega = np.asarray(omega, dtype=float)
    s = detuned_saturation(p)
    if p.s0 == 0.0:
        return np.zeros_like(omega)
    x = omega / p.gamma
    d = p.delta / p.gamma
    x2 = x * x
    numer = 1.0 + p.s0 / 4.0 + x2
    b1 = 0.25 + p.s0 / 4.0 + d * d - 2.0 * x2
    b2 = 1.25 + p.s0 / 2.0 + d * d - x2
    denom = b1 * b1 + x2 * b2 * b2
    scale = (p.s0 / (8.0 * math.pi * p.gamma)) * (s / (1.0 + s))
    return scale * numer / denom


def sample_spectrum(
    p: DriveParams,
    grid_span: float = 10.0,
    grid_step: float | None = None,
) -> SpectrumGrid:
    """Tabulate the emission spectrum on a uniform grid symmetric about zero.

    grid_span is in multiples of gamma and must cover at least +-10 gamma
    so the triplet tails are carried by downstream integrals; grid_step is
    in MHz (default gamma/100) and is rejected above gamma/10, which would
    undersample the triplet. The grid always contains omega = 0 exactly.
    """
    if grid_span < 10.0:
        raise ValueError(f"grid span must be >= 10 linewidths, got {grid_span}")
    step = p.gamma / 100.0 if grid_step is None else float(grid_step)
    if step <= 0:
        raise ValueError(f"grid step must be > 0, got {step}")
    if step > p.gamma / 10.0:
        raise ValueError(
            f"grid step {step} MHz undersamples the triplet (max {p.gamma / 10.0} MHz)"
        )
    half = math.ceil(grid_span * p.gamma / step - 1e-9)
    offsets = step * np.arange(-half, half + 1)
    density = mollow_density(offsets, p)
    return SpectrumGrid(offsets, density, elastic_weight(detuned_saturation(p)))


def normalize_to_counts(spec: SpectrumGrid, n_original: float) -> SpectrumGrid:
    """Rescale density and elastic weight by one common factor so that the
    trapezoidal integral of the density plus the elastic weight equals the
    measured original photon number."""
    if not (math.isfinite(n_original) and n_original > 0):
        raise ValueError(f"photon count must be finite and > 0, got {n_original}")
    total = spec.total_weight()
    if total <= 0.0:
        raise NormalizationError("spectrum has zero total weight")
    factor = n_original / total
    return SpectrumGrid(
        spec.offsets,
        spec.density * factor,
        spec.elastic_weight * factor,
        counts=float(n_original),
    )
