"""Nonlinear least squares and the toolkit's fitting pipelines.

The engine is a damped Gauss-Newton solver with step-halving and central
finite-difference Jacobians. On top of it sit the four analyses used
throughout: Lorentzian line fits, the saturation-curve fit, the cascaded
absorption fit (forward model built from the spectrum and cascade modules),
and the power-broadening / shift-slope fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import (DEFAULT_PATH_EFFICIENCY, AbsorptionProfile, cascaded_count,
                      cascaded_counts)
from .spectrum import (
    DEFAULT_GAMMA_MHZ,
    DriveParams,
    normalize_to_counts,
    sample_spectrum,
)

MAX_ITERATIONS = 500
RESIDUAL_RTOL = 1e-10
GRADIENT_ATOL = 1e-8
# central differences: cbrt(eps) balances truncation against roundoff
DEFAULT_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


class DegenerateFitError(RuntimeError):
    """The least-squares problem is underdetermined or singular."""


class DataParseError(ValueError):
    """Malformed data-series or report file; message carries the line number."""


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
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.y_err is not None:
            err = np.asarray(self.y_err, dtype=float)
            if err.shape != x.shape:
                raise ValueError("y_err must match x in length")
            if np.any(err <= 0):
                raise ValueError("y_err values must be > 0")
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


def _jacobian(model, x, theta, bounds, sigma, fd_step):
    """Weighted model Jacobian by central differences, probes clipped to
    the bounds (one-sided at an active bound)."""
    n_par = len(theta)
    jac = np.empty((len(x), n_par))
    for k in range(n_par):
        h = fd_step * max(abs(theta[k]), 1.0)
        lo, hi = bounds[0][k], bounds[1][k]
        up = min(theta[k] + h, hi)
        dn = max(theta[k] - h, lo)
        if up == dn:
            raise DegenerateFitError(f"parameter {k} is pinned by its bounds")
        tp = theta.copy()
        tp[k] = up
        tm = theta.copy()
        tm[k] = dn
        jac[:, k] = (model(x, tp) - model(x, tm)) / ((up - dn) * sigma)
    return jac


def least_squares(
    model,
    data: DataSeries,
    init,
    bounds=None,
    names=None,
    fd_step: float = DEFAULT_FD_STEP,
    max_iterations: int = MAX_ITERATIONS,
    bootstrap: int = 0,
    bootstrap_seed: int = 0,
) -> FitResult:
    """Minimize the weighted sum of squares of y - model(x, params).

    model maps (x array, parameter vector) to a y array. bounds is an
    optional list of (lo, hi) pairs; init must lie inside. Convergence is
    declared when the relative drop of the squared-residual sum falls
    below 1e-10 or the gradient inf-norm falls below 1e-8; hitting the
    iteration limit yields converged=False. Uncertainties come from the
    diagonal of the inverse weighted normal matrix scaled by the reduced
    chi-square; pass bootstrap=B > 0 to replace them with the parameter
    spread over B seeded residual-resampling refits. A singular normal
    matrix raises DegenerateFitError.
    """
    theta = np.asarray(init, dtype=float).copy()
    n_par = theta.size
    if names is None:
        names = [f"p{k}" for k in range(n_par)]
    if len(data) < n_par:
        raise DegenerateFitError(
            f"{len(data)} points cannot constrain {n_par} parameters"
        )
    if bounds is None:
        lo = np.full(n_par, -np.inf)
        hi = np.full(n_par, np.inf)
    else:
        lo = np.array([b[0] for b in bounds], dtype=float)
        hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(theta < lo) or np.any(theta > hi):
        raise ValueError("initial guess lies outside the bounds")
    bnd = (lo, hi)
    sigma = data.y_err if data.y_err is not None else np.ones_like(data.y)

    def residuals(th):
        f = model(data.x, th)
        if not np.all(np.isfinite(f)):
            raise ValueError("model returned non-finite values")
        return (data.y - f) / sigma

    res = residuals(theta)
    ssr = float(res @ res)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        jac = _jacobian(model, data.x, theta, bnd, sigma, fd_step)
        grad = jac.T @ res
        if np.max(np.abs(grad)) < GRADIENT_ATOL:
            converged = True
            iterations -= 1
            break
        normal = jac.T @ jac
        if not np.all(np.isfinite(normal)) or np.linalg.cond(normal) > 1e14:
            raise DegenerateFitError("singular normal matrix")
        step = np.linalg.solve(normal, grad)
        accepted = False
        for _ in range(30):
            cand = np.clip(theta + step, lo, hi)
            try:
                cand_res = residuals(cand)
            except ValueError:
                step = step / 2.0
                continue
            cand_ssr = float(cand_res @ cand_res)
            if cand_ssr < ssr:
                rel_drop = (ssr - cand_ssr) / max(ssr, np.finfo(float).tiny)
                theta, res, ssr = cand, cand_res, cand_ssr
                accepted = True
                if rel_drop < RESIDUAL_RTOL:
                    converged = True
                break
            step = step / 2.0
        if not accepted:
            # no direction of decrease left at float resolution
            converged = True
            break
        if converged:
            break

    jac = _jacobian(model, data.x, theta, bnd, sigma, fd_step)
    normal = jac.T @ jac
    dof = max(len(data) - n_par, 1)
    chi2_red = ssr / dof
    try:
        cov = np.linalg.inv(normal) * chi2_red
        sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("singular normal matrix at the optimum") from exc
    if bootstrap > 0:
        sig = _bootstrap_sigmas(
            model, data, theta, bounds, fd_step, max_iterations,
            bootstrap, bootstrap_seed,
        )
    return FitResult(
        params=dict(zip(names, (float(v) for v in theta))),
        sigmas=dict(zip(names, (float(v) for v in sig))),
        residual_norm=ssr,
        converged=converged,
        iterations=iterations,
    )


def _bootstrap_sigmas(model, data, theta, bounds, fd_step, max_iterations,
                      n_resamples, seed):
    """Parameter spread over refits of residual-resampled data."""
    rng = np.random.default_rng(seed)
    fitted = model(data.x, theta)
    resid = data.y - fitted
    draws = np.empty((n_resamples, len(theta)))
    for b in range(n_resamples):
        resampled = fitted + rng.choice(resid, size=len(resid), replace=True)
        try:
            refit = least_squares(
                model, DataSeries(data.x, resampled, data.y_err), theta,
                bounds=bounds, fd_step=fd_step, max_iterations=max_iterations,
            )
        except DegenerateFitError:
            draws[b] = np.nan
            continue
        draws[b] = list(refit.params.values())
    return np.nanstd(draws, axis=0, ddof=1)


# ---------------------------------------------------------------------------
# Lorentzian line fit


def lorentzian(x, center, fwhm, amplitude, offset):
    """Peak-normalized Lorentzian of full width fwhm on a flat baseline."""
    return offset + amplitude / (1.0 + 4.0 * ((np.asarray(x, float) - center) / fwhm) ** 2)


def _half_max_width(x, y, center, amplitude, offset):
    level = offset + amplitude / 2.0
    above = y >= level
    if not above.any():
        return (x[-1] - x[0]) / 4.0
    idx = np.where(above)[0]
    left, right = x[idx[0]], x[idx[-1]]
    width = right - left
    if width <= 0:
        width = (x[-1] - x[0]) / 4.0
    return width


def fit_lorentzian(data: DataSeries, bootstrap: int = 0) -> FitResult:
    """Fit a Lorentzian peak; parameters (center, fwhm, amplitude, offset).

    Initial guesses come from the data: peak location, baseline from the
    minimum, width from the half-maximum crossings. Data without a usable
    peak come back flagged converged=False rather than raising.
    """
    if len(data) < 5:
        raise DegenerateFitError("need at least 5 points for a Lorentzian fit")
    x, y = data.x, data.y
    offset0 = float(y.min())
    amp0 = float(y.max() - offset0)
    center0 = float(x[int(np.argmax(y))])
    fwhm0 = float(_half_max_width(x, y, center0, amp0, offset0))
    init = [center0, fwhm0, amp0 if amp0 > 0 else 1e-6, offset0]
    bounds = [(-np.inf, np.inf), (1e-9, np.inf), (0.0, np.inf), (-np.inf, np.inf)]
    names = ["center", "fwhm", "amplitude", "offset"]
    try:
        return least_squares(_lorentzian_model, data, init, bounds, names,
                             bootstrap=bootstrap)
    except DegenerateFitError:
        return FitResult(
            params=dict(zip(names, (float(v) for v in init))),
            sigmas={n: math.inf for n in names},
            residual_norm=float(np.sum((y - lorentzian(x, *init)) ** 2)),
            converged=False,
            iterations=0,
        )


def _lorentzian_model(x, th):
    return lorentzian(x, th[0], th[1], th[2], th[3])


# ---------------------------------------------------------------------------
# Saturation curve


def saturation_rate(power, i0, rate_max):
    """Count rate rate_max * s0 / (1 + s0) with s0 = power / i0."""
    power = np.asarray(power, dtype=float)
    return rate_max * power / (i0 + power)


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
        lambda xx, th: saturation_rate(xx, th[0], th[1]),
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

_CASCADE_PARAMS = ("width", "alpha", "shift", "path_efficiency")


def cascade_model_counts(
    drives: list[DriveParams],
    original_counts,
    width: float,
    alpha: float,
    shift: float = 0.0,
    path_efficiency: float = DEFAULT_PATH_EFFICIENCY,
    grid_span: float = 10.0,
    grid_step: float | None = None,
):
    """Predicted cascaded counts for a list of drive points.

    Builds the emission spectrum per point, rescales it to the measured
    original count there, and integrates it through the lab-frame filter.
    """
    prof = AbsorptionProfile(alpha, width, shift, path_efficiency)
    return cascaded_counts(drives, original_counts, prof, grid_span, grid_step)


def fit_cascade(
    original: DataSeries,
    cascaded: DataSeries,
    scan: str = "power",
    s0: float | None = None,
    gamma: float = DEFAULT_GAMMA_MHZ,
    fix_width: float | None = None,
    fix_shift: float | None = None,
    fix_efficiency: float | None = None,
    n_starts: int = 5,
    seed: int = 0,
    grid_span: float = 10.0,
    grid_step: float | None = None,
) -> FitResult:
    """Fit the absorption filter to a power or detuning scan.

    `original` and `cascaded` share abscissae: saturation values s0 for
    scan="power" (resonant drive), detunings in MHz for scan="detuning"
    (fixed s0, required). Free parameters are (width, alpha, shift,
    path_efficiency); each of width, shift and efficiency can be pinned
    with the fix_* arguments (fixed values are reported with sigma 0).
    Residuals are taken on the cascaded counts, weighted by cascaded.y_err
    when present. A seeded 5-way multi-start guards against local minima.

    Starting values are data-derived: the efficiency from the largest
    observed ratio, the optical depth from the deepest ratio against that
    efficiency, the shift from the dip location (detuning scan), and the
    width from the natural linewidth (power scan) or the dip half-depth
    span (detuning scan).
    """
    if scan not in ("power", "detuning"):
        raise ValueError(f"unknown scan type '{scan}'")
    if len(original) != len(cascaded) or not np.allclose(original.x, cascaded.x):
        raise ValueError("original and cascaded series must share abscissae")
    if np.any(original.y <= 0):
        raise ValueError("original counts must be > 0")
    if scan == "detuning":
        if s0 is None:
            raise ValueError("scan='detuning' requires the drive s0")
        drives = [DriveParams(s0, float(d), gamma) for d in original.x]
    else:
        drives = [DriveParams(float(v), 0.0, gamma) for v in original.x]

    specs = [
        normalize_to_counts(sample_spectrum(d, grid_span, grid_step), n)
        for d, n in zip(drives, original.y)
    ]

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
        dip_span = _half_max_width(
            original.x, -ratio, shift0, float(ratio.max() - ratio.min()), -float(ratio.max())
        )
        width0 = fixed.get("width", min(max(dip_span / 2.0, 0.5 * gamma), 4.0 * gamma))
    else:
        shift0 = fixed.get("shift", 0.0)
        width0 = fixed.get("width", gamma)

    init_full = {"width": width0, "alpha": alpha0, "shift": shift0,
                 "path_efficiency": eff0}
    bounds_full = {
        "width": (0.05, 100.0 * gamma),
        "alpha": (0.0, 50.0),
        "shift": (float(specs[0].offsets[0]), float(specs[0].offsets[-1])),
        "path_efficiency": (1e-6, 1.0),
    }

    def model(_x, th):
        full = dict(zip(free, th))
        full.update(fixed)
        prof = AbsorptionProfile(**full)
        return np.array([cascaded_count(s, prof, d.delta) for s, d in zip(specs, drives)])

    rng = np.random.default_rng(seed)
    starts = [np.array([init_full[n] for n in free])]
    for _ in range(n_starts - 1):
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
            result = least_squares(
                model, cascaded, np.clip(start, lo, hi), bounds, list(free)
            )
        except DegenerateFitError as exc:
            failures.append(str(exc))
            continue
        if best is None or result.residual_norm < best.residual_norm:
            best = result
    if best is None and "width" in free and len(free) > 1:
        # with no measurable absorption the width multiplies nothing and the
        # normal matrix degenerates; refit with the width pinned and report
        # it as unidentified
        reduced = fit_cascade(
            original, cascaded, scan=scan, s0=s0, gamma=gamma,
            fix_width=width0, fix_shift=fix_shift, fix_efficiency=fix_efficiency,
            n_starts=n_starts, seed=seed, grid_span=grid_span, grid_step=grid_step,
        )
        sigmas = dict(reduced.sigmas)
        sigmas["width"] = math.inf
        return FitResult(reduced.params, sigmas, reduced.residual_norm,
                         reduced.converged, reduced.iterations)
    if best is None:
        raise DegenerateFitError("; ".join(failures) or "all starts failed")

    params = dict(best.params)
    sigmas = dict(best.sigmas)
    for name, value in fixed.items():
        params[name] = value
        sigmas[name] = 0.0
    ordered = {n: params[n] for n in _CASCADE_PARAMS}
    ordered_sig = {n: sigmas[n] for n in _CASCADE_PARAMS}
    return FitResult(ordered, ordered_sig, best.residual_norm, best.converged,
                     best.iterations)


def cascade_profile(result: FitResult) -> AbsorptionProfile:
    """AbsorptionProfile from a fit_cascade result."""
    p = result.params
    return AbsorptionProfile(
        alpha=p["alpha"], width=p["width"], shift=p["shift"],
        path_efficiency=p["path_efficiency"],
    )


# ---------------------------------------------------------------------------
# Power broadening and shift slope


def power_broadened_width(s0, gamma, gamma0):
    """Fluorescence FWHM gamma * sqrt(s0 + 1) + gamma0."""
    return gamma * np.sqrt(np.asarray(s0, dtype=float) + 1.0) + gamma0


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
        lambda x, th: power_broadened_width(x, th[0], th[1]),
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
        lambda x, th: th[0] * x + th[1],
        data,
        [float(coef[0]), float(coef[1])],
        names=["slope", "intercept"],
        bootstrap=bootstrap,
    )


# ---------------------------------------------------------------------------
# File formats


def read_series(path) -> DataSeries:
    """Read a data series CSV with header x,y or x,y,yerr."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header not in ("x,y", "x,y,yerr"):
            raise DataParseError(
                f"{path}:1: expected header 'x,y' or 'x,y,yerr', got '{header}'"
            )
        n_cols = 3 if header == "x,y,yerr" else 2
        xs, ys, errs = [], [], []
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_cols:
                raise DataParseError(
                    f"{path}:{lineno}: expected {n_cols} fields, got {len(parts)}"
                )
            try:
                xs.append(float(parts[0]))
                ys.append(float(parts[1]))
                if n_cols == 3:
                    errs.append(float(parts[2]))
            except ValueError as exc:
                raise DataParseError(f"{path}:{lineno}: {exc}") from exc
    if not xs:
        raise DataParseError(f"{path}: no data rows")
    try:
        return DataSeries(
            np.array(xs), np.array(ys), np.array(errs) if errs else None
        )
    except ValueError as exc:
        raise DataParseError(f"{path}: {exc}") from exc


def write_series(path, series: DataSeries) -> None:
    """Write a data series CSV readable by read_series."""
    with open(path, "w", encoding="utf-8") as f:
        if series.y_err is None:
            f.write("x,y\n")
            for x, y in zip(series.x, series.y):
                f.write(f"{x:.17g},{y:.17g}\n")
        else:
            f.write("x,y,yerr\n")
            for x, y, e in zip(series.x, series.y, series.y_err):
                f.write(f"{x:.17g},{y:.17g},{e:.17g}\n")


def write_report(path, result: FitResult) -> None:
    """Human-readable fit report: one 'name  value  sigma' line per
    parameter plus the fit diagnostics."""
    with open(path, "w", encoding="utf-8") as f:
        for name, value in result.params.items():
            f.write(f"{name}  {value:.10g}  {result.sigmas[name]:.4g}\n")
        f.write(f"residual_norm  {result.residual_norm:.10g}\n")
        f.write(f"converged  {result.converged}\n")
        f.write(f"iterations  {result.iterations}\n")


def write_report_csv(path, result: FitResult) -> None:
    """Machine-readable fit report, lossless for read_report_csv."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("name,value,sigma\n")
        for name, value in result.params.items():
            f.write(f"{name},{value:.17g},{result.sigmas[name]:.17g}\n")
        f.write(f"residual_norm,{result.residual_norm:.17g},\n")
        f.write(f"converged,{int(result.converged)},\n")
        f.write(f"iterations,{result.iterations},\n")


def read_report_csv(path) -> FitResult:
    """Rebuild a FitResult written by write_report_csv."""
    params: dict[str, float] = {}
    sigmas: dict[str, float] = {}
    meta: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "name,value,sigma":
            raise DataParseError(f"{path}:1: expected header 'name,value,sigma'")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataParseError(f"{path}:{lineno}: expected 3 fields")
            name, value, sigma = parts
            try:
                if name in ("residual_norm", "converged", "iterations"):
                    meta[name] = float(value)
                else:
                    params[name] = float(value)
                    sigmas[name] = float(sigma)
            except ValueError as exc:
                raise DataParseError(f"{path}:{lineno}: {exc}") from exc
    for key in ("residual_norm", "converged", "iterations"):
        if key not in meta:
            raise DataParseError(f"{path}: missing '{key}' row")
    return FitResult(
        params=params,
        sigmas=sigmas,
        residual_norm=meta["residual_norm"],
        converged=bool(meta["converged"]),
        iterations=int(meta["iterations"]),
    )
