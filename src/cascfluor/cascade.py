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
from itertools import zip_longest

import numpy as np

from .spectrum import DriveParams, SpectrumStack, _sample, _sampling_grid, _trapezoid

# Off-resonance cascaded/original count ratio; folds fiber loss and
# imperfect mirror reflection into one number.
DEFAULT_PATH_EFFICIENCY = 0.9
# cascaded_counts samples and filters at most this many grid values (points x
# grid) at a time, and each of its three work arrays holds at most this many:
# 16 points of the default grid. Each stack has a fixed cost (the sampler's
# and the filter's few dozen numpy calls), so larger stacks run faster while
# the work arrays are reused from the heap. With glibc's trim and mmap
# thresholds raised in the measuring process (2-vCPU Xeon, glibc 2.36, numpy
# 2.4), a 121-point power scan took 5.6, 4.5 and 4.0 ms at 8, 16 and 32 rows
# (medians); a 32-row stack's arrays, 1.5 MiB, still fit the 2 MiB L2. The
# bound is set by the allocator. A 16-row array is 256 KiB, over glibc's
# initial 128 KiB mmap threshold, so a process whose threshold has not risen
# (it rises to the largest mapped block freed) maps the arrays afresh on every
# call: 218 minor faults per 121-point detuning scan and 93 per power scan,
# against 0 at 8 rows (getrusage ru_minflt). The scan benchmark's process has
# raised it past 256 KiB: 0 faults per op at 8 and 16 rows, but 1404 at 32
# rows, whose 512 KiB arrays lie above it.
STACK_VALUES = 32768


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


def _transmission(u, prof: AbsorptionProfile, work=None):
    """The Lorentzian L = 1 / (1 + 4 u^2) and the transmission
    T = path_efficiency * exp(-alpha L) of u = omega - center, which is
    divided by the width here in place, operation for operation as
    lorentzian_profile and transmission compute them. Given work (which
    may be u), L and then T overwrite it."""
    u /= prof.width
    lor = np.square(u, out=work)
    np.divide(1.0, np.add(1.0, np.multiply(4.0, lor, out=lor), out=lor), out=lor)
    trans = np.multiply(-prof.alpha, lor, out=work)
    np.multiply(prof.path_efficiency, np.exp(trans, out=trans), out=trans)
    return lor, trans


def _filter(axis, steps, density, elastic, centers, prof: AbsorptionProfile, work, terms):
    """filtered_counts' value path in place: the count of row i of density
    and elastic seen through the filter at centers[i], on the axis (the
    grid, then 0.0 for the elastic line), and its attenuated elastic
    weight. work and terms are flat work arrays of at least
    len(centers) * len(axis) values; row i's trapezoid terms are left in
    row i of terms' first len(centers) * (len(axis) - 2) values. When
    every center is the same, L and T are one row, broadcast."""
    n, size = len(centers), len(axis)
    if (centers == centers[0]).all():
        u = terms[:size].reshape(1, size)
        inelastic = work[:n * (size - 1)].reshape(n, -1)
    else:
        u = work[:n * size].reshape(n, size)
        inelastic = u[:, :-1]
    np.subtract(axis, centers[:len(u), None], out=u)
    _, trans = _transmission(u, prof, u)
    np.multiply(density, trans[:, :-1], out=inelastic)
    # taken before the trapezoid, whose terms overwrite a broadcast row
    tail = elastic * trans[:, -1]
    return _trapezoid(steps, inelastic, terms[:n * (size - 2)].reshape(n, -1)) + tail, tail


def filtered_counts(stack: SpectrumStack, detunings, prof: AbsorptionProfile,
                    gradient: bool = False):
    """Cascaded count of each row of a spectrum stack, all rows at once.

    stack (from sample_spectrum) holds the shared offsets, the (n, grid)
    densities and the (n,) elastic weights of n spectra; row i is
    filtered as seen by a drive detuned by detunings[i], which must be
    finite. The Lorentzian L and the transmission are evaluated as
    (n, grid + 1) arrays, the elastic line being the last column at
    omega = 0 (as one row when every detuning is the same). Each count is
    the trapezoid of its row of density * transmission plus the attenuated
    elastic weight, so a row comes out bit for bit as it would alone. With
    gradient=True, also returns the (n, 4) closed-form derivatives of the
    counts with respect to (width, alpha, shift, path_efficiency), from the
    same arrays: with u = (omega - shift + detuning) / width and
    T = path_efficiency * exp(-alpha L), dT/dalpha = -L T,
    dT/dwidth = -alpha T 8 u^2 L^2 / width, dT/dshift = -alpha T 8 u L^2 /
    width and dT/dpath_efficiency = T / path_efficiency.
    """
    offsets, density, elastic = stack
    detunings = np.asarray(detunings, dtype=float)
    if detunings.shape != elastic.shape:
        raise ValueError(f"{len(elastic)} spectra need as many detunings, "
                         f"got shape {detunings.shape}")
    bad = ~np.isfinite(detunings)
    if bad.any():
        raise ValueError(f"drive detuning must be finite, got {detunings[bad][0]}")
    centers = np.subtract(prof.shift, detunings)
    axis = np.concatenate((offsets, (0.0,)))
    steps = offsets[1:] - offsets[:-1]
    if not gradient:
        n = len(centers)
        return _filter(axis, steps, density, elastic, centers, prof,
                       np.empty(n * len(axis)), np.empty(n * len(axis)))[0]
    u = np.subtract(axis, centers[:, None])
    lor, trans = _transmission(u, prof)
    counts = _trapezoid(steps, density * trans[:, :-1]) + elastic * trans[:, -1]
    # trapezoid weight of each grid point, then 1 for the elastic line
    half = steps / 2.0
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


def _stacks(drives, counts, centers, limits):
    """The stacks of cascaded_counts, as lists of groups of drive indices.

    Drives with equal (gamma, s0, abs(delta), count) form one group and
    share one sampled row: their spectra are the same to the last bit, as
    the density and the elastic weight depend on delta only through
    (delta/gamma)^2. A group is (first, mirrors, others): its first drive,
    the later ones whose filter center is the negation of the first's, and
    the rest. The groups of one linewidth fill stacks of at most
    limits[gamma] groups in order of first appearance. Within a stack the
    groups are ordered by falling len(others)."""
    groups = {}
    for k, (p, n) in enumerate(zip(drives, counts.tolist())):
        first, mirrors, others = groups.setdefault((p.gamma, p.s0, abs(p.delta), n),
                                                   (k, [], []))
        if k != first:
            (mirrors if centers[k] == -centers[first] else others).append(k)
    filling = {}
    for (gamma, *_), group in groups.items():
        stack = filling.setdefault(gamma, [])
        stack.append(group)
        if len(stack) == limits[gamma]:
            yield sorted(filling.pop(gamma), key=lambda g: len(g[2]), reverse=True)
    for stack in filling.values():
        yield sorted(stack, key=lambda g: len(g[2]), reverse=True)


def cascaded_counts(drives, original_counts, prof: AbsorptionProfile) -> np.ndarray:
    """Cascaded count at each drive point, as an array.

    Each point's spectrum is sampled over +-10 linewidths at gamma/100 and
    normalized to its original count, as sample_spectrum([drive], [count])
    would alone, and filtered as filtered_counts would filter it; the
    counts are bit for bit theirs. The work each call shares is done once:
    one grid per linewidth and one set of work arrays, each of at most
    STACK_VALUES values, in which a stack of a few spectra is sampled and
    filtered in place. Drives that differ at most in the sign of the
    detuning (a scan symmetric about resonance) share one sampled row.
    Of those, a drive whose filter center shift - delta is the negation of
    the first one's (the mirrored drive of a symmetric scan with the filter
    on the line, shift 0) sees the mirrored filter on the mirrored grid, so
    its integrand is the first one's reversed to the last bit: its count is
    the first one's trapezoid terms, reversed into a contiguous copy and
    summed in the order its own would be, plus the same attenuated elastic
    weight. Every other drive is filtered, at most STACK_VALUES grid values
    at a time, and when those drives share one detuning (a power scan) the
    filter is evaluated as one row.
    """
    drives = list(drives)
    counts = np.fromiter(original_counts, dtype=float)
    if len(counts) != len(drives):
        raise ValueError(f"{len(drives)} drives need as many counts, got {len(counts)}")
    out = np.empty(len(drives))
    if not drives:
        return out
    grids = {}
    for p in drives:
        if p.gamma not in grids:
            grid = _sampling_grid(p.gamma)
            grids[p.gamma] = grid, np.concatenate((grid.offsets, (0.0,)))
    limits = {g: max(1, STACK_VALUES // len(grid.offsets)) for g, (grid, _) in grids.items()}
    capacity = max(limits[g] * len(axis) for g, (_, axis) in grids.items())
    density, work, terms = np.empty(capacity), np.empty(capacity), np.empty(capacity)
    elastic = np.empty(max(limits.values()))
    centers = np.subtract(prof.shift, [p.delta for p in drives])
    for stack in _stacks(drives, counts, centers, limits):
        firsts, mirrors, others = (list(part) for part in zip(*stack))
        grid, axis = grids[drives[firsts[0]].gamma]
        n, size = len(firsts), len(grid.steps)
        rows = density[:n * len(grid.offsets)].reshape(n, -1)
        _sample(grid, [drives[k] for k in firsts], counts[firsts], rows, elastic[:n],
                work, terms)
        out[firsts], tails = _filter(axis, grid.steps, rows, elastic[:n], centers[firsts],
                                     prof, work, terms)
        # the mirrored drives' count from their first's terms, reversed,
        # before the next filter call overwrites them; one row per group, as
        # its mirrors share one center. Every index is valid, and take with
        # out under the default mode="raise" copies through a buffer, 7x
        # slower on 15 default-grid rows
        source = [i for i, group in enumerate(mirrors) if group]
        if source:
            flipped = work[:len(source) * size].reshape(len(source), size)
            np.take(terms[:n * size].reshape(n, size)[:, ::-1], source, axis=0, out=flipped,
                    mode="clip")
            mirrored = np.add.reduce(flipped, axis=-1) + tails[source]
            out[[k for i in source for k in mirrors[i]]] = np.repeat(
                mirrored, [len(mirrors[i]) for i in source])
        # the j-th others of the groups that have one; the most come first
        for block in zip_longest(*others):
            block = [k for k in block if k is not None]
            m = len(block)
            out[block] = _filter(axis, grid.steps, rows[:m], elastic[:m], centers[block],
                                 prof, work, terms)[0]
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
    one stack, and a detuning and its mirror -detuning (with equal counts)
    one sampled spectrum; with the filter on the line (shift 0) the mirror
    also reuses the detuning's filtered row, reversed. Each ratio is bit
    for bit the per-point result. The curve dips where the drive sits on
    the filter center and the dip gets shallower with increasing s0 as the
    sidebands escape the filter.
    """
    counts = np.fromiter(original_counts, dtype=float)
    drives = [DriveParams(s0, delta) for delta in detunings]
    return cascaded_counts(drives, counts, prof) / counts
