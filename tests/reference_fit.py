"""The fit engine with the model and its Jacobian as two callables.

least_squares is the damped Gauss-Newton solver as it read before the
model returned its Jacobian: it calls the model at every candidate, the
Jacobian again at every accepted one and once more for the covariance.
fused_least_squares gives it the signature of cascfluor.fit.least_squares
by splitting a fused model into its two halves, so a fit of the package
can run on this engine unchanged. lorentzian_jac is the Lorentzian's
Jacobian as a callable of its own. The package evaluates each candidate
once and keeps the Jacobian that came with it, so it must match bit for
bit.
"""

import math

import numpy as np

from cascfluor.fit import (GRADIENT_ATOL, MAX_ITERATIONS, RESIDUAL_RTOL, BootstrapError,
                           DataSeries, DegenerateFitError, FitResult, _ill_conditioned)


def least_squares(model, data, init, bounds=None, names=None, bootstrap=0, *, jac):
    """Weighted least squares of y - model(x, params) with the Jacobian from jac."""
    theta = np.asarray(init, dtype=float).copy()
    n_par = theta.size
    if names is None:
        names = [f"p{k}" for k in range(n_par)]
    if len(data) < n_par:
        raise DegenerateFitError(
            f"{len(data)} points cannot constrain {n_par} parameters"
        )
    if bootstrap < 0 or bootstrap == 1:
        raise ValueError(f"bootstrap must be 0 or >= 2, got {bootstrap}")
    if bounds is None:
        bounds = [(-np.inf, np.inf)] * n_par
    lo, hi = np.array(bounds, dtype=float).T
    if np.any(theta < lo) or np.any(theta > hi):
        raise ValueError("initial guess lies outside the bounds")
    pinned = np.flatnonzero(lo == hi)
    if pinned.size:
        raise DegenerateFitError(f"parameter {pinned[0]} is pinned by its bounds")
    sigma = data.y_err if data.y_err is not None else np.ones_like(data.y)

    def residuals(th):
        f = model(data.x, th)
        if not np.all(np.isfinite(f)):
            raise ValueError("model returned non-finite values")
        return (data.y - f) / sigma

    with np.errstate(over="ignore", invalid="ignore"):
        res = residuals(theta)
        ssr = float(res @ res)
    if not math.isfinite(ssr):
        raise ValueError("initial weighted residual sum is not finite")
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        jmat = jac(data.x, theta) / sigma[:, None]
        grad = jmat.T @ res
        if np.max(np.abs(grad)) < GRADIENT_ATOL:
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
            cand = np.clip(theta + step, lo, hi)
            try:
                cand_res = residuals(cand)
            except ValueError:
                step = step / 2.0
                continue
            finite_seen = True
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
            converged = finite_seen
            break
        if converged:
            break

    jmat = jac(data.x, theta) / sigma[:, None]
    normal = jmat.T @ jmat
    dof = max(len(data) - n_par, 1)
    chi2_red = ssr / dof
    try:
        cov = np.linalg.inv(normal) * chi2_red
        sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("singular normal matrix at the optimum") from exc
    if bootstrap > 0:
        sig = _bootstrap_sigmas(model, data, theta, bounds, bootstrap, jac)
    return FitResult(
        params=dict(zip(names, (float(v) for v in theta))),
        sigmas=dict(zip(names, (float(v) for v in sig))),
        residual_norm=ssr,
        converged=converged,
        iterations=iterations,
    )


def _bootstrap_sigmas(model, data, theta, bounds, n_resamples, jac):
    """Parameter spread over the non-degenerate refits of residual-resampled
    data (seed 0); BootstrapError if fewer than two are."""
    rng = np.random.default_rng(0)
    fitted = model(data.x, theta)
    resid = data.y - fitted
    draws = np.empty((n_resamples, len(theta)))
    for b in range(n_resamples):
        resampled = fitted + rng.choice(resid, size=len(resid), replace=True)
        try:
            refit = least_squares(
                model, DataSeries(data.x, resampled, data.y_err), theta,
                bounds=bounds, jac=jac,
            )
        except DegenerateFitError:
            draws[b] = np.nan
            continue
        draws[b] = list(refit.params.values())
    good = int(np.isfinite(draws[:, 0]).sum())
    if good < 2:
        raise BootstrapError(f"{good} of {n_resamples} bootstrap refits succeeded")
    return np.nanstd(draws, axis=0, ddof=1)


def fused_least_squares(model, data, init, bounds=None, names=None, bootstrap=0):
    """least_squares above, called as cascfluor.fit.least_squares is: the
    values and the Jacobian of the fused model go in as two callables."""
    return least_squares(lambda x, th: model(x, th)[0], data, init, bounds, names,
                         bootstrap, jac=lambda x, th: model(x, th)[1])


def lorentzian_jac(x, th):
    """Derivatives of fit.lorentzian in (center, fwhm, amplitude, offset)."""
    u = (np.asarray(x, float) - th[0]) / th[1]
    shape = 1.0 / (1.0 + 4.0 * u**2)
    d_center = 8.0 * th[2] * u * shape**2 / th[1]
    return np.column_stack([d_center, d_center * u, shape, np.ones_like(u)])
