"""Nonlinear least squares and the toolkit's fitting pipelines.

The engine is a damped Gauss-Newton solver with step-halving. Its model
callable returns the values and the Jacobian together, so each candidate
costs one model call. On top of it sit the four analyses used
throughout: Lorentzian line fits, the saturation-curve fit, the cascaded
absorption fit (forward model and its closed-form derivatives from one
cascade.filtered_counts call), and the power-broadening / shift-slope
fits. Every fit passes closed-form derivatives; the two linear models pass
their design matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cascade import (DEFAULT_PATH_EFFICIENCY, AbsorptionProfile, _model_step,
                      cascaded_counts, filtered_counts)
from .spectrum import DEFAULT_GAMMA_MHZ, Drives, sample_spectrum
from .table import ParseError, parse_field, read_records, read_rows, write_rows, write_table

MAX_ITERATIONS = 500
RESIDUAL_RTOL = 1e-10
GRADIENT_ATOL = 1e-8
# largest condition number of the normal matrix a Gauss-Newton step may solve
MAX_CONDITION = 1e14
# starts of fit_cascade's seeded multi-start
N_STARTS = 5
# a later fit_cascade start wins only if it lowers the residual norm by more
START_TIE_RTOL = 1e-12
# most bootstrap refits of one fit: a Lorentzian refit of 41 points takes
# about 0.22 ms (2-vCPU host, numpy 2.4), so about 22 s at the limit, and
# the refits' parameters take 8 bytes each
MAX_BOOTSTRAP = 100_000
# floor of the sum of squares that a relative drop is taken against
_TINY = np.finfo(float).tiny


class DegenerateFitError(RuntimeError):
    """The least-squares problem is underdetermined or singular."""


class BootstrapError(DegenerateFitError):
    """Fewer than two bootstrap refits succeeded: the fit itself may have
    converged, but its resampled data leave no spread to report."""


@dataclass(frozen=True)
class DataSeries:
    """Measured points: abscissae x, values y and optional 1-sigma errors
    used as inverse-variance weights."""

    x: np.ndarray
    y: np.ndarray
    y_err: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.y_err is not None:
            err = np.asarray(self.y_err, dtype=float)
            if err.shape != x.shape:
                raise ValueError("y_err must match x in length")
            if not np.all(np.isfinite(err) & (err > 0)):
                raise ValueError("y_err values must be finite and > 0")
            object.__setattr__(self, "y_err", err)

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class FitResult:
    """Named parameters, linearized 1-sigma uncertainties, the sum of
    squared (weighted) residuals, and convergence bookkeeping."""

    params: dict[str, float]
    sigmas: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int


def least_squares(
    model,
    data: DataSeries,
    init,
    bounds=None,
    names=None,
    bootstrap: int = 0,
) -> FitResult:
    """Minimize the weighted sum of squares of y - model(x, params)[0].

    model maps (x array, parameter vector) to the pair (y array, Jacobian
    of shape (len(x), n_params)); each evaluated candidate costs one call.
    bounds is an optional list of (lo, hi) pairs; init must lie inside.
    Convergence is declared when the relative drop of the squared-residual
    sum falls below 1e-10 or the gradient inf-norm falls below 1e-8;
    hitting the iteration limit MAX_ITERATIONS yields converged=False.
    Uncertainties come from the diagonal of the inverse weighted normal
    matrix scaled by the reduced chi-square; pass bootstrap=B > 0 to
    replace them with the parameter spread over B residual-resampling
    refits, drawn from a generator with the fixed seed 0; B above
    MAX_BOOTSTRAP raises ValueError before any refit. A singular normal
    matrix raises DegenerateFitError, and fewer than two non-degenerate
    refits BootstrapError, its subclass; a non-finite initial sum of squares
    raises ValueError. A candidate with non-finite values or Jacobian halves
    the step; a stall in which every candidate was so yields converged=False.
    """
    theta = np.asarray(init, dtype=float).copy()
    n_par = theta.size
    if names is None:
        names = [f"p{k}" for k in range(n_par)]
    if len(data) < n_par:
        raise DegenerateFitError(
            f"{len(data)} points cannot constrain {n_par} parameters"
        )
    if bootstrap < 0 or bootstrap == 1:
        # one refit has no spread
        raise ValueError(f"bootstrap must be 0 or >= 2, got {bootstrap}")
    if bootstrap > MAX_BOOTSTRAP:
        raise ValueError(f"bootstrap must be at most MAX_BOOTSTRAP = {MAX_BOOTSTRAP}, "
                         f"got {bootstrap}")
    if bounds is None:
        bounds = [(-np.inf, np.inf)] * n_par
    lo, hi = np.array(bounds, dtype=float).T
    if (theta < lo).any() or (theta > hi).any():
        raise ValueError("initial guess lies outside the bounds")
    pinned = np.flatnonzero(lo == hi)
    if pinned.size:
        raise DegenerateFitError(f"parameter {pinned[0]} is pinned by its bounds")
    x, y = data.x, data.y
    sigma = data.y_err if data.y_err is not None else np.ones_like(y)
    sigma_col = sigma[:, None]

    def evaluate(th):
        """Weighted residuals and weighted Jacobian at th."""
        f, jmat = model(x, th)
        if not np.isfinite(f).all():
            raise ValueError("model returned non-finite values")
        return (y - f) / sigma, jmat / sigma_col

    # finite data can still overflow the sum of squares; report that as bad
    # input instead of a fit with an infinite residual
    with np.errstate(over="ignore", invalid="ignore"):
        res, jmat = evaluate(theta)
        ssr = float(res @ res)
    if not math.isfinite(ssr):
        raise ValueError("initial weighted residual sum is not finite")
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        grad = jmat.T @ res
        if abs(grad).max() < GRADIENT_ATOL:
            converged = True
            iterations -= 1
            break
        normal = jmat.T @ jmat
        if _ill_conditioned(normal):
            raise DegenerateFitError("singular normal matrix")
        step = np.linalg.solve(normal, grad)
        accepted = False
        finite_seen = False
        for _ in range(30):
            # np.clip's values, NaN included, without its Python-level wrapper
            cand = np.minimum(np.maximum(theta + step, lo), hi)
            try:
                cand_res, cand_jmat = evaluate(cand)
            except ValueError:
                step = step / 2.0
                continue
            if not np.isfinite(cand_jmat).all():
                # no step or covariance can be taken from there
                step = step / 2.0
                continue
            finite_seen = True
            cand_ssr = float(cand_res @ cand_res)
            if cand_ssr < ssr:
                rel_drop = (ssr - cand_ssr) / max(ssr, _TINY)
                theta, res, jmat, ssr = cand, cand_res, cand_jmat, cand_ssr
                accepted = True
                if rel_drop < RESIDUAL_RTOL:
                    converged = True
                break
            step = step / 2.0
        if not accepted:
            # no direction of decrease left at float resolution; a stall
            # among non-finite model values is no optimum
            converged = finite_seen
            break
        if converged:
            break

    normal = jmat.T @ jmat
    dof = max(len(data) - n_par, 1)
    chi2_red = ssr / dof
    try:
        cov = np.linalg.inv(normal) * chi2_red
        # np.clip's values, NaN and signed zeros included
        sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("singular normal matrix at the optimum") from exc
    if bootstrap > 0:
        sig = _bootstrap_sigmas(model, data, theta, bounds, bootstrap)
    return FitResult(
        params=dict(zip(names, theta.tolist())),
        sigmas=dict(zip(names, sig.tolist())),
        residual_norm=ssr,
        converged=converged,
        iterations=iterations,
    )


def _ill_conditioned(normal) -> bool:
    """True if the symmetric normal matrix is non-finite, not positive
    definite, or has condition number above 1e14, taken as the ratio of its
    extreme eigenvalues (one eigvalsh instead of an SVD)."""
    if not np.isfinite(normal).all():
        return True
    eig = np.linalg.eigvalsh(normal)
    return not (eig[0] > 0.0 and eig[-1] <= MAX_CONDITION * eig[0])


def _bootstrap_sigmas(model, data, theta, bounds, n_resamples):
    """Parameter spread over the refits of residual-resampled data (seed 0)
    that are not degenerate; BootstrapError if fewer than two are."""
    rng = np.random.default_rng(0)
    fitted = model(data.x, theta)[0]
    resid = data.y - fitted
    n = len(resid)
    draws = np.empty((n_resamples, len(theta)))
    for b in range(n_resamples):
        # Generator.choice(resid, n)'s draws and values, without its checks
        resampled = fitted + resid[rng.integers(0, n, n)]
        try:
            refit = least_squares(
                model, DataSeries(data.x, resampled, data.y_err), theta, bounds=bounds
            )
        except DegenerateFitError:
            draws[b] = np.nan
            continue
        draws[b] = list(refit.params.values())
    good = int(np.isfinite(draws[:, 0]).sum())
    if good < 2:
        raise BootstrapError(f"{good} of {n_resamples} bootstrap refits succeeded")
    return np.nanstd(draws, axis=0, ddof=1)


# ---------------------------------------------------------------------------
# Lorentzian line fit


def lorentzian(x, center, fwhm, amplitude, offset):
    """Peak-normalized Lorentzian of full width fwhm on a flat baseline."""
    return offset + amplitude / (1.0 + 4.0 * ((np.asarray(x, float) - center) / fwhm) ** 2)


def _half_max_width(x, y, amplitude, offset):
    """Span of the x where y reaches offset + amplitude / 2, in any order of
    x; a quarter of x's range when that span is empty or zero."""
    above = x[y >= offset + amplitude / 2.0]
    width = above.max() - above.min() if above.size else 0.0
    return width if width > 0 else np.ptp(x) / 4.0


def fit_lorentzian(data: DataSeries, bootstrap: int = 0) -> FitResult:
    """Fit a Lorentzian peak; parameters (center, fwhm, amplitude, offset).

    Initial guesses come from the data: peak location, baseline from the
    minimum, width from the half-maximum crossings. Data without a usable
    peak come back flagged converged=False rather than raising; a fit whose
    bootstrap refits degenerate raises BootstrapError like every fit.
    """
    if len(data) < 5:
        raise DegenerateFitError("need at least 5 points for a Lorentzian fit")
    x, y = data.x, data.y
    offset0 = float(y.min())
    amp0 = float(y.max() - offset0)
    center0 = float(x[int(np.argmax(y))])
    fwhm0 = float(_half_max_width(x, y, amp0, offset0))
    init = [center0, fwhm0, amp0 if amp0 > 0 else 1e-6, offset0]
    bounds = [(-np.inf, np.inf), (1e-9, np.inf), (0.0, np.inf), (-np.inf, np.inf)]
    names = ["center", "fwhm", "amplitude", "offset"]
    try:
        return least_squares(_lorentzian_model, data, init, bounds, names,
                             bootstrap=bootstrap)
    except BootstrapError:
        # the fit found a peak; no start values stand in for its spread
        raise
    except DegenerateFitError:
        # the weighted sum of squares, as least_squares reports it
        err = data.y_err if data.y_err is not None else 1.0
        return FitResult(
            params=dict(zip(names, (float(v) for v in init))),
            sigmas={n: math.inf for n in names},
            residual_norm=float(np.sum(((y - lorentzian(x, *init)) / err) ** 2)),
            converged=False,
            iterations=0,
        )


def _lorentzian_model(x, th):
    """lorentzian at th = (center, fwhm, amplitude, offset) and its
    derivatives in th, operation for operation as lorentzian computes it."""
    center, fwhm, amplitude, offset = th.tolist()
    u = (np.asarray(x, float) - center) / fwhm
    denom = 1.0 + 4.0 * u**2
    shape = 1.0 / denom
    # the columns filled in place, in column_stack's order and C layout
    jac = np.empty((len(u), 4))
    d_center = np.multiply(8.0 * amplitude * u, shape**2, out=jac[:, 0])
    d_center /= fwhm
    np.multiply(d_center, u, out=jac[:, 1])
    jac[:, 2] = shape
    jac[:, 3] = 1.0
    return offset + amplitude / denom, jac


# ---------------------------------------------------------------------------
# Saturation curve


def saturation_rate(power, i0, rate_max):
    """Count rate rate_max * s0 / (1 + s0) with s0 = power / i0."""
    power = np.asarray(power, dtype=float)
    return rate_max * power / (i0 + power)


def _saturation_jac(power, th):
    """Derivatives of saturation_rate in (i0, rate_max)."""
    knee = power / (th[0] + power)
    return np.column_stack([-th[1] * knee / (th[0] + power), knee])


def fit_saturation(data: DataSeries, bootstrap: int = 0) -> FitResult:
    """Fit the saturation knee; parameters (i0, rate_max).

    The initial guess linearizes 1/rate against 1/power. Data sampled
    entirely above the knee leave i0 unconstrained and raise
    DegenerateFitError.
    """
    if len(data) < 4:
        raise DegenerateFitError("need at least 4 points for a saturation fit")
    x, y = data.x, data.y
    if np.any(x <= 0):
        raise ValueError("powers must be > 0")
    pos = y > 0
    if pos.sum() >= 2:
        # 1/y = 1/rmax + (i0/rmax) * (1/x)
        coef = np.polyfit(1.0 / x[pos], 1.0 / y[pos], 1)
        rate_max0 = 1.0 / coef[1] if coef[1] > 0 else float(y.max()) * 1.5
        i00 = coef[0] * rate_max0 if coef[0] > 0 else float(np.median(x))
    else:
        rate_max0 = float(y.max()) * 1.5 if y.max() > 0 else 1.0
        i00 = float(np.median(x))
    i00 = min(max(i00, 1e-9), 1e9)
    result = least_squares(
        lambda xx, th: (saturation_rate(xx, th[0], th[1]), _saturation_jac(xx, th)),
        data,
        [i00, max(rate_max0, 1e-9)],
        bounds=[(1e-12, np.inf), (1e-12, np.inf)],
        names=["i0", "rate_max"],
        bootstrap=bootstrap,
    )
    if result.params["i0"] < float(x.min()) / 100.0:
        raise DegenerateFitError(
            "saturation knee falls below the sampled power range; all points saturated"
        )
    return result


# ---------------------------------------------------------------------------
# Cascaded-absorption fit

# also the column order of the derivatives from cascade.filtered_counts
_CASCADE_PARAMS = ("width", "alpha", "shift", "path_efficiency")


def cascade_model_counts(
    drives,
    original_counts,
    width: float,
    alpha: float,
    shift: float = 0.0,
    path_efficiency: float = DEFAULT_PATH_EFFICIENCY,
):
    """Predicted cascaded counts at drive points: a Drives or any sequence
    of DriveParams.

    Builds the emission spectrum per point, rescales it to the measured
    original count there, and integrates it through the lab-frame filter
    (cascaded_counts, on the model grid it picks from the filter width).
    fit_cascade fits exactly this model, bit for bit.
    """
    prof = AbsorptionProfile(alpha, width, shift, path_efficiency)
    return cascaded_counts(drives, original_counts, prof)


def fit_cascade(
    original: DataSeries,
    cascaded: DataSeries,
    scan: str = "power",
    s0: float | None = None,
    gamma: float = DEFAULT_GAMMA_MHZ,
    fix_width: float | None = None,
    fix_shift: float | None = None,
    fix_efficiency: float | None = None,
    seed: int = 0,
) -> FitResult:
    """Fit the absorption filter to a power or detuning scan.

    `original` and `cascaded` share abscissae: saturation values s0 for
    scan="power" (resonant drive), detunings in MHz for scan="detuning"
    (fixed s0, required there and refused for a power scan). Free
    parameters are (width, alpha, shift, path_efficiency); each of width,
    shift and efficiency can be pinned with the fix_* arguments (fixed
    values are reported with sigma 0).
    Residuals are taken on the cascaded counts, weighted by cascaded.y_err
    when present. A seeded N_STARTS-way multi-start (seed >= 0) guards
    against local minima; when every start is degenerate, the
    DegenerateFitError names each distinct failure once with its count.
    Each candidate filter is applied on the model grid that
    cascaded_counts picks for its width (_model_step), so every model
    evaluation equals cascade_model_counts(drives, original.y, **params)
    bit for bit. All points' spectra are sampled and normalized by one
    sample_spectrum broadcast per distinct grid step, the first time a
    candidate needs it; every later start, iteration and fallback refit
    of the call filters that stack.

    Starting values are data-derived: the efficiency from the largest
    observed ratio, the optical depth from the deepest ratio against that
    efficiency, the shift from the dip location (detuning scan), and the
    width from the natural linewidth (power scan) or the dip half-depth
    span (detuning scan).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if scan not in ("power", "detuning"):
        raise ValueError(f"unknown scan type '{scan}'")
    for name, value in {"fix_width": fix_width, "fix_shift": fix_shift,
                        "fix_efficiency": fix_efficiency}.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if len(original) != len(cascaded) or not np.allclose(original.x, cascaded.x):
        raise ValueError("original and cascaded series must share abscissae")
    if np.any(original.y <= 0):
        raise ValueError("original counts must be > 0")
    if scan == "detuning":
        if s0 is None:
            raise ValueError("scan='detuning' requires the drive s0")
        drives = Drives.of(s0, original.x, gamma)
    elif s0 is not None:
        raise ValueError("the drive s0 is only for scan='detuning'")
    else:
        drives = Drives.of(original.x, 0.0, gamma)

    stacks = {}

    def filtered(prof):
        """Counts and derivatives of the points through prof, on its model grid."""
        step = _model_step(gamma, prof.width)
        if step not in stacks:
            stacks[step] = sample_spectrum(drives, original.y, step)
        return filtered_counts(stacks[step], drives.delta, prof, gradient=True)

    fixed = {"width": fix_width, "shift": fix_shift, "path_efficiency": fix_efficiency}
    fixed = {k: float(v) for k, v in fixed.items() if v is not None}
    free = [n for n in _CASCADE_PARAMS if n not in fixed]
    if len(cascaded) < len(free):
        raise DegenerateFitError(
            f"{len(cascaded)} points cannot constrain {len(free)} free parameters"
        )

    ratio = cascaded.y / original.y
    eff0 = fixed.get("path_efficiency", min(float(ratio.max()), 0.999))
    alpha0 = max(0.05, min(8.0, -math.log(max(float(ratio.min()), 1e-9) / eff0)))
    if scan == "detuning":
        shift0 = fixed.get("shift", float(original.x[int(np.argmin(ratio))]))
        dip_span = _half_max_width(original.x, -ratio, float(ratio.max() - ratio.min()),
                                   -float(ratio.max()))
        width0 = fixed.get("width", min(max(dip_span / 2.0, 0.5 * gamma), 4.0 * gamma))
    else:
        shift0 = fixed.get("shift", 0.0)
        width0 = fixed.get("width", gamma)

    init_full = {"width": width0, "alpha": alpha0, "shift": shift0,
                 "path_efficiency": eff0}
    bounds_full = {
        "width": (0.05, 100.0 * gamma),
        "alpha": (0.0, 50.0),
        "shift": (-10.0 * gamma, 10.0 * gamma),  # the ends of every model grid
        "path_efficiency": (1e-6, 1.0),
    }

    best, failures = _best_start(filtered, cascaded, init_full, bounds_full, fixed, seed)
    unidentified = best is None and "width" in free and len(free) > 1
    if unidentified:
        # with no measurable absorption the width multiplies nothing and the
        # normal matrix degenerates; refit with the width pinned and report
        # it as unidentified
        fixed["width"] = float(width0)
        best, failures = _best_start(filtered, cascaded, init_full, bounds_full,
                                     fixed, seed)
    if best is None:
        # each distinct message once, in order of first failure
        raise DegenerateFitError("; ".join(
            f"{message} ({count} of {len(failures)} starts)"
            for message, count in Counter(failures).items()))

    params = dict(best.params)
    sigmas = dict(best.sigmas)
    for name, value in fixed.items():
        params[name] = value
        sigmas[name] = 0.0
    if unidentified:
        sigmas["width"] = math.inf
    ordered = {n: params[n] for n in _CASCADE_PARAMS}
    ordered_sig = {n: sigmas[n] for n in _CASCADE_PARAMS}
    return FitResult(ordered, ordered_sig, best.residual_norm, best.converged,
                     best.iterations)


def _best_start(filtered, cascaded, init_full, bounds_full, fixed, seed):
    """Seeded N_STARTS-way least squares of the model filtered(prof) with the
    `fixed` parameters held; returns the best FitResult (None if every start
    was degenerate) and the failure messages."""
    free = [n for n in _CASCADE_PARAMS if n not in fixed]
    columns = [_CASCADE_PARAMS.index(n) for n in free]

    def profile(th):
        full = dict(zip(free, th))
        full.update(fixed)
        return AbsorptionProfile(**full)

    def model(_x, th):
        counts, grad = filtered(profile(th))
        return counts, grad[:, columns]

    rng = np.random.default_rng(seed)
    starts = [np.array([init_full[n] for n in free])]
    for _ in range(N_STARTS - 1):
        perturbed = dict(init_full)
        perturbed["width"] = init_full["width"] * rng.uniform(0.5, 2.0)
        perturbed["alpha"] = init_full["alpha"] * rng.uniform(0.6, 1.6)
        perturbed["shift"] = init_full["shift"] + rng.uniform(-2.0, 2.0)
        perturbed["path_efficiency"] = min(
            1.0, max(1e-3, init_full["path_efficiency"] * rng.uniform(0.9, 1.1))
        )
        starts.append(np.array([perturbed[n] for n in free]))

    bounds = [bounds_full[n] for n in free]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    best: FitResult | None = None
    failures: list[str] = []
    for start in starts:
        try:
            result = least_squares(model, cascaded, np.clip(start, lo, hi), bounds,
                                   list(free))
        except DegenerateFitError as exc:
            failures.append(str(exc))
            continue
        if best is None or (result.residual_norm
                            < best.residual_norm * (1.0 - START_TIE_RTOL)):
            best = result
    return best, failures


# ---------------------------------------------------------------------------
# Power broadening and shift slope


def power_broadened_width(s0, gamma, gamma0):
    """Fluorescence FWHM gamma * sqrt(s0 + 1) + gamma0."""
    return gamma * np.sqrt(np.asarray(s0, dtype=float) + 1.0) + gamma0


def _broadening_jac(s0, _th):
    """Design matrix of power_broadened_width in (gamma, gamma0)."""
    return np.column_stack([np.sqrt(s0 + 1.0), np.ones_like(s0)])


def _line_jac(x, _th):
    """Design matrix of the line slope * x + intercept."""
    return np.column_stack([x, np.ones_like(x)])


def fit_power_broadening(data: DataSeries, bootstrap: int = 0) -> FitResult:
    """Fit widths against saturation; parameters (gamma, gamma0)."""
    if len(data) < 3:
        raise DegenerateFitError("need at least 3 points for a broadening fit")
    basis = np.sqrt(data.x + 1.0)
    if np.ptp(basis) == 0:
        raise DegenerateFitError("degenerate abscissae")
    coef = np.polyfit(basis, data.y, 1)
    init = [max(float(coef[0]), 1e-6), float(coef[1])]
    return least_squares(
        lambda x, th: (power_broadened_width(x, th[0], th[1]), _broadening_jac(x, th)),
        data,
        init,
        bounds=[(0.0, np.inf), (-np.inf, np.inf)],
        names=["gamma", "gamma0"],
        bootstrap=bootstrap,
    )


def fit_shift_slope(data: DataSeries, bootstrap: int = 0) -> FitResult:
    """Weighted linear fit of center shift against s0; (slope, intercept)."""
    if len(data) < 2:
        raise DegenerateFitError("need at least 2 points for a line")
    if np.ptp(data.x) == 0:
        raise DegenerateFitError("degenerate abscissae")
    coef = np.polyfit(data.x, data.y, 1)
    return least_squares(
        lambda x, th: (th[0] * x + th[1], _line_jac(x, th)),
        data,
        [float(coef[0]), float(coef[1])],
        names=["slope", "intercept"],
        bootstrap=bootstrap,
    )


# ---------------------------------------------------------------------------
# File formats: tables in the table module's format


def read_series(path) -> DataSeries:
    """Read a data series table with header x,y or x,y,yerr; a yerr <= 0 is
    a ParseError at its line."""
    rule = (lambda d: (d[:, 2:] <= 0).any(), "yerr must be > 0, got '{2}'")
    _, rows = read_records(path, ("x,y", "x,y,yerr"), row_rule=rule)
    if not len(rows):
        raise ParseError(f"{path}: no data rows")
    return DataSeries(*(rows[k] for k in rows.dtype.names))


def write_series(path, series: DataSeries) -> None:
    """Write a data series table readable by read_series."""
    columns = {"x": series.x, "y": series.y}
    if series.y_err is not None:
        columns["yerr"] = series.y_err
    write_table(path, columns)


def write_report_csv(path, result: FitResult) -> None:
    """Fit report table name,value,sigma, lossless for read_report_csv."""
    rows = [(name, value, result.sigmas[name]) for name, value in result.params.items()]
    rows += [("residual_norm", result.residual_norm, ""),
             ("converged", int(result.converged), ""),
             ("iterations", result.iterations, "")]
    write_rows(path, ("name", "value", "sigma"), rows)


def read_report_csv(path) -> FitResult:
    """Rebuild a FitResult written by write_report_csv.

    Each row must hold what its kind can: a parameter a finite value and a
    sigma >= 0 (inf allowed: the zero-absorption fallback writes one),
    residual_norm a finite value >= 0, converged 0 or 1, iterations an
    integer >= 0, the last three with an empty sigma. Names may not repeat.
    """
    values: dict[str, float] = {}
    sigmas: dict[str, float] = {}
    for lineno, (name, value, sigma) in read_rows(path, ("name,value,sigma",))[2]:
        if not name or name in values:
            raise ParseError(f"{path}:{lineno}: empty or repeated name '{name}'")
        if name in ("converged", "iterations"):
            number = int(parse_field(value, path, lineno, np.int64))
            ok = not sigma and number >= 0 and (name == "iterations" or number <= 1)
        elif name == "residual_norm":
            number = parse_field(value, path, lineno)
            ok = not sigma and number >= 0
        else:
            number = parse_field(value, path, lineno)
            sigmas[name] = parse_field(sigma, path, lineno, allow_inf=True)
            ok = sigmas[name] >= 0
        if not ok:
            raise ParseError(f"{path}:{lineno}: out of range: '{name},{value},{sigma}'")
        values[name] = number
    for key in ("residual_norm", "converged", "iterations"):
        if key not in values:
            raise ParseError(f"{path}: missing '{key}' row")
    return FitResult({n: values[n] for n in sigmas}, sigmas, values["residual_norm"],
                     bool(values["converged"]), values["iterations"])
