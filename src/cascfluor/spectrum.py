"""Closed-form spectral physics of a driven two-level ensemble.

Saturation, Rabi frequency, and the Mollow emission spectrum (elastic line
plus inelastic triplet) tabulated on a frequency grid. All frequencies here
are ordinary frequencies in MHz; there are no angular-frequency factors
anywhere in the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Cs D2 natural linewidth in MHz (1 / (2 pi * 30.4 ns) to within rounding).
DEFAULT_GAMMA_MHZ = 5.2
# most points of one sampling grid: 8 MB per array of one spectrum; the
# model grids have 281 to 801, the spectrum command's default 801
MAX_GRID_POINTS = 1_000_000


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
        if not _drive_ok(self.s0, self.delta, self.gamma):
            raise ValueError(_drive_error(self.s0, self.delta, self.gamma))


class Drives(NamedTuple):
    """Drive points as arrays: s0, delta and gamma as DriveParams reads
    them, three float arrays of one shape (n,), drive i being
    (s0[i], delta[i], gamma[i]). Drives.of builds a validated one; every
    function that takes drives takes a Drives or any sequence of
    DriveParams, and validates the arrays either way."""

    s0: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray

    @classmethod
    def of(cls, s0, delta=0.0, gamma=DEFAULT_GAMMA_MHZ) -> Drives:
        """Drives from scalars and 1-D arrays, broadcast against each other:
        Drives.of(0.4, detunings) is a detuning scan at s0 = 0.4, and
        Drives.of(2.5) one resonant drive."""
        arrays = [np.array(v, dtype=float, ndmin=1) for v in (s0, delta, gamma)]
        shape = np.broadcast(*arrays).shape
        return _as_drives(cls(*(a if a.shape == shape else np.full(shape, a)
                                for a in arrays)))


def _drive_ok(s0, delta, gamma):
    """The drive rule, elementwise on floats or arrays: all three finite
    (abs(x) < inf fails for NaN), s0 >= 0 and gamma > 0."""
    return ((0.0 <= s0) & (s0 < math.inf) & (abs(delta) < math.inf)
            & (0.0 < gamma) & (gamma < math.inf))


def _drive_error(s0, delta, gamma) -> str:
    """The message of the first part of _drive_ok that a drive breaks."""
    if not all(map(math.isfinite, (s0, delta, gamma))):
        return (f"drive parameters must be finite, got "
                f"DriveParams(s0={s0!r}, delta={delta!r}, gamma={gamma!r})")
    if s0 < 0:
        return f"saturation parameter must be >= 0, got {s0}"
    return f"natural linewidth must be > 0, got {gamma}"


def _as_drives(drives) -> Drives:
    """drives (a Drives or an iterable of DriveParams) as a Drives of float
    arrays of one shape (n,), checked by _drive_ok in one pass; a bad drive
    raises DriveParams' ValueError for the first one."""
    if isinstance(drives, Drives):
        drives = Drives(*(np.asarray(a, dtype=float) for a in drives))
    else:
        fields = [(p.s0, p.delta, p.gamma) for p in drives]
        drives = Drives(*np.array(fields, dtype=float).reshape(-1, 3).T)
    s0, delta, gamma = drives
    if s0.ndim != 1 or not s0.shape == delta.shape == gamma.shape:
        raise ValueError(f"drive arrays must share one shape (n,), got shapes "
                         f"{s0.shape}, {delta.shape} and {gamma.shape}")
    ok = _drive_ok(s0, delta, gamma)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(_drive_error(float(s0[i]), float(delta[i]), float(gamma[i])))
    return drives


class SpectrumStack(NamedTuple):
    """Emission spectra on one shared grid, one row per drive.

    offsets is the shared grid, density the (n, grid) inelastic densities
    per MHz and elastic the (n,) elastic weights. The elastic line is kept
    as a separate weight: a delta line at offset zero is never rasterized
    onto the grid, which keeps integrals exact and lets a downstream filter
    attenuate it analytically. The rows are normalized to photon counts
    only when sample_spectrum is given counts.
    """

    offsets: np.ndarray
    density: np.ndarray
    elastic: np.ndarray


def _check_offsets(offsets) -> None:
    """Grid check: offsets finite and strictly increasing."""
    # increasing offsets are finite when both ends are
    if not (np.all(offsets[1:] > offsets[:-1])
            and math.isfinite(offsets[0]) and math.isfinite(offsets[-1])):
        raise ValueError("offsets must be finite and strictly increasing")


def _check_spectrum(density, elastic) -> None:
    """Value checks of spectra on one grid: density (one row or (n, grid))
    and elastic weights finite and non-negative."""
    # min and max see a NaN
    if not 0 <= density.min() <= density.max() < math.inf:
        raise ValueError("density must be finite and non-negative")
    elastic = np.asarray(elastic)
    if not 0 <= elastic.min() <= elastic.max() < math.inf:
        raise ValueError("elastic weight must be finite and non-negative")


# Gregory's end weights to eighth order, in steps, from Euler-Maclaurin: they
# cancel the h^2, h^4 and h^6 terms of the trapezoid's error, so polynomials
# of degree 7 integrate exactly
_GREGORY_ENDS = np.array([1070017.0, 5537111.0, 103613.0, 261115.0,
                          298951.0, 515677.0, 3349879.0, 3662753.0]) / np.array(
    [3628800.0, 3628800.0, 403200.0, 145152.0, 725760.0, 403200.0, 3628800.0, 3628800.0])


# distinct (step, points) grids whose quadrature _quadrature keeps: at most 8
# arrays of MAX_GRID_POINTS + 1 values, 64 MB; the model grids (281 to 801
# points) hold under 7 KB each
@functools.lru_cache(maxsize=8)
def _quadrature(h: float, points: int) -> np.ndarray:
    """Read-only quadrature of a uniform grid of `points` points at step h,
    followed by the weight 1.0 of the elastic line: _weights' grid weights
    then 1.0, built once per grid. Every spectrum integral and every filter
    reads it from here."""
    ends = h * _GREGORY_ENDS
    weights = np.full(points + 1, h)
    weights[:8] = ends
    weights[points - 8:points] = ends[::-1]
    weights[points] = 1.0
    weights.flags.writeable = False
    return weights


def _weights(offsets):
    """Quadrature weights of the uniform grid offsets: Gregory's end-corrected
    trapezoid, h * [_GREGORY_ENDS, 1, ..., 1, _GREGORY_ENDS reversed] with h
    the step (at least 16 points; every grid of _grid's rule has 201 or
    more). It keeps the trapezoid's interior weights and cancels the end
    terms of its Euler-Maclaurin error through h^6. An integral is
    np.add.reduce(y * weights, axis=-1): each row sums to the same bits
    alone as in a stack, which y @ weights does not (its BLAS kernel depends
    on the stack's shape). The weights are a read-only view of the grid's
    _quadrature, shared by every call on a grid of the same step and
    length."""
    return _quadrature(float(offsets[1] - offsets[0]), len(offsets))[:-1]


def _check_saturation(s) -> None:
    """The scalar helpers' rule: finite and >= 0 (NaN fails the comparison)."""
    if not 0.0 <= s < math.inf:
        raise ValueError(f"saturation parameter must be finite and >= 0, got {s}")


def excited_state_population(s0: float) -> float:
    """Steady-state excited fraction s0 / (2 (1 + s0)).

    Monotone in s0 and bounded by the two-level limit of one half.
    """
    _check_saturation(s0)
    return s0 / (2.0 * (1.0 + s0))


def _drive_terms(s0, delta, gamma):
    """Each drive's terms of its spectrum, elementwise on floats or arrays:
    (delta/gamma)^2, the detuned saturation s = s0 / (1 + 4 (delta/gamma)^2),
    the scattering weight of mollow_density and the elastic weight
    (_elastic(s)). Squares are products: Python's float x ** 2 calls pow,
    which differs from x * x in the last bit for some x."""
    d = delta / gamma
    d2 = d * d
    s = s0 / (1.0 + 4.0 * d2)
    return d2, s, (s0 / (8.0 * math.pi * gamma)) * (s / (1.0 + s)), _elastic(s)


def _elastic(s):
    """Elastic weight s / (2 + s)^2, elementwise on floats or arrays."""
    return s / ((2.0 + s) * (2.0 + s))


def detuned_saturation(p: DriveParams) -> float:
    """Effective saturation s0 / (1 + 4 (delta/gamma)^2) at the drive detuning."""
    return _drive_terms(p.s0, p.delta, p.gamma)[1]


def rabi_frequency(s: float, gamma: float = DEFAULT_GAMMA_MHZ) -> float:
    """Rabi frequency gamma * sqrt(s / 2) in MHz."""
    _check_saturation(s)
    return gamma * math.sqrt(s / 2.0)


def elastic_weight(s: float) -> float:
    """Weight of the elastic (delta) line, s / (2 + s)^2.

    Vanishes both without drive and under strong saturation, where the
    inelastic triplet takes over.
    """
    _check_saturation(s)
    return _elastic(s)


def _mollow(x2, s0, d2, scale, out, work):
    """The Mollow density at x2 = (omega/gamma)^2 for s0 and the terms d2
    and scale of _drive_terms, written into out: s0, d2 and scale broadcast
    against x2, as scalars or as (n, 1) columns, into out's shape, and work
    is a pair of arrays of that shape. The brackets b1 and b2 and the
    products are those of (1 + s0/4 + x2) scale / (b1 b1 + x2 b2 b2), each
    rounded as that expression rounds it; the numerator is formed last."""
    den, scratch = work
    np.subtract(0.25 + s0 / 4.0 + d2, 2.0 * x2, out=den)
    b2 = np.subtract(1.25 + s0 / 2.0 + d2, x2, out=out)
    den *= den
    np.multiply(x2, b2, out=scratch)
    scratch *= b2
    den += scratch
    num = np.add(1.0 + s0 / 4.0, x2, out=scratch)
    num *= scale
    np.divide(num, den, out=out)


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
    if p.s0 == 0.0:
        return np.zeros_like(omega)
    x = omega / p.gamma
    d2, _, scale, _ = _drive_terms(p.s0, p.delta, p.gamma)
    out = np.empty(omega.shape)
    _mollow(x * x, p.s0, d2, scale, out, (np.empty(omega.shape), np.empty(omega.shape)))
    return out if out.ndim else out[()]


def _grid(gamma: float, grid_span: float, grid_step: float | None) -> tuple[float, int]:
    """Step (MHz) and half-width (in steps) of the uniform sampling grid
    step * arange(-half, half + 1); see sample_spectrum for the rule. A
    grid of more than MAX_GRID_POINTS points is refused before anything is
    allocated."""
    if not (math.isfinite(grid_span) and grid_span >= 10.0):
        raise ValueError(f"grid span must be finite and >= 10 linewidths, "
                         f"got {grid_span}")
    step = gamma / 40.0 if grid_step is None else float(grid_step)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"grid step must be finite and > 0, got {step}")
    if step > gamma / 10.0:
        raise ValueError(
            f"grid step {step} MHz undersamples the triplet (max {gamma / 10.0} MHz)"
        )
    steps = grid_span * gamma / step
    # an infinite or huge count never reaches math.ceil
    half = math.ceil(steps - 1e-9) if steps < MAX_GRID_POINTS else MAX_GRID_POINTS
    if 2 * half + 1 > MAX_GRID_POINTS:
        raise ValueError(
            f"grid of +-{grid_span} linewidths at step {step} MHz needs "
            f"{2.0 * steps + 1.0:.3g} points, more than MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
    return step, half


def _sampling_grid(gamma: float, grid_span: float, grid_step: float | None):
    """_grid's offsets, checked by _check_offsets, and x2 = (offsets /
    gamma)^2 on their omega >= 0 half."""
    step, half = _grid(gamma, grid_span, grid_step)
    offsets = step * np.arange(-half, half + 1)
    _check_offsets(offsets)
    x = offsets[half:] / gamma
    return offsets, x * x


def _sample(x2, weights, drives: Drives, run: slice, counts, density, work):
    """Spectra of the drives in run, which share one linewidth, written in
    place into density, an (n, grid) array: x2 is _sampling_grid's half-grid
    (omega/gamma)^2 and work a flat array of at least n * (grid + 1) floats.
    Each row is _mollow on the omega >= 0 half, mirrored onto the other half
    (the grid is symmetric to the last bit and the density depends on
    omega only through x2). Given the counts of all the drives, each row is
    rescaled by one factor so that its integral (weights, the grid's
    _weights) plus its elastic weight equals counts[run]'s entry; the
    first row whose count is not finite and > 0, or whose spectrum has no
    weight, raises, named by its index in drives, the count first when a
    row has both. Called on consecutive runs in drive order, the first bad
    drive raises. Returns the (n,) elastic weights."""
    s0, delta, gammas = (a[run] for a in drives)
    n, grid = density.shape
    half = grid // 2
    d2, _, scale, elastic = _drive_terms(s0, delta, float(gammas[0]))
    # the half-grid rows and a bracket in work, and _mollow's other scratch
    # array in density's first values: contiguous arrays, which numpy
    # computes on about twice as fast as on density's right half
    half_rows, den = work[:2 * n * (half + 1)].reshape(2, n, half + 1)
    scratch = density.reshape(-1)[:half_rows.size].reshape(half_rows.shape)
    _mollow(x2, s0[:, None], d2[:, None], scale[:, None], half_rows, (den, scratch))
    density[:, half:] = half_rows
    density[:, :half] = half_rows[:, :0:-1]
    if counts is not None:
        counts = counts[run]
        total = np.add.reduce(
            np.multiply(density, weights, out=work[:density.size].reshape(n, grid)),
            axis=-1) + elastic
        # the comparisons fail for NaN
        bad = ~((0.0 < counts) & (counts < math.inf))
        stop = bad | (total <= 0.0)
        if stop.any():
            i = int(np.argmax(stop))
            if bad[i]:
                raise ValueError(f"photon count must be finite and > 0, got {counts[i]}")
            raise NormalizationError(
                f"spectrum has zero total weight at drive {run.start + i} "
                f"(s0={float(s0[i])!r}, delta={float(delta[i])!r})")
        factor = counts / total
        density *= factor[:, None]
        elastic *= factor
    # rescaling keeps a raw value non-finite; the left half mirrors the
    # right, and the whole contiguous array is quicker to scan than a half
    _check_spectrum(density, elastic)
    return elastic


def sample_spectrum(drives, original_counts=None, grid_step: float | None = None,
                    grid_span: float = 10.0) -> SpectrumStack:
    """Emission spectra of drives that share one linewidth, as one stack.

    drives is a Drives or any sequence of DriveParams. The grid is uniform
    and symmetric about zero and always contains omega = 0 exactly.
    grid_span is in multiples of gamma and must cover at least +-10 gamma
    so the triplet tails are carried by downstream integrals; grid_step is
    in MHz (default gamma/40, the spectrum command's plotting grid;
    cascaded_counts passes the step it picks from the filter width) and is
    rejected above gamma/10, which would undersample the triplet, so every
    grid has at least the 201 points of +-10 gamma at gamma/10 (_weights
    needs 16), and at most MAX_GRID_POINTS. Row i is mollow_density on
    the grid with elastic weight
    elastic_weight(detuned_saturation(drive i)), the same expressions
    (_drive_terms and _mollow) evaluated once on the drive arrays. Given
    original_counts, row i is rescaled by one factor so that its integral
    (_weights' end-corrected trapezoid) plus its elastic weight equals
    original_counts[i]; the first drive whose count is not finite and > 0,
    or whose spectrum has no weight, raises. _sample writes the rows, as it
    does for cascaded_counts; the arrays are fresh on every call.
    """
    drives = _as_drives(drives)
    n = len(drives.s0)
    if not n:
        raise ValueError("a spectrum stack needs at least one drive")
    gamma = float(drives.gamma[0])
    if np.any(drives.gamma != gamma):
        raise ValueError("the drives of one spectrum stack must share one linewidth")
    offsets, x2 = _sampling_grid(gamma, grid_span, grid_step)
    counts, weights = None, None
    if original_counts is not None:
        counts = np.asarray(original_counts, dtype=float)
        if counts.shape != (n,):
            raise ValueError(f"{n} drives need as many counts, got shape {counts.shape}")
        weights = _weights(offsets)
    density = np.empty((n, len(offsets)))
    elastic = _sample(x2, weights, drives, slice(0, n), counts, density,
                      np.empty(density.size + n))
    return SpectrumStack(offsets, density, elastic)
