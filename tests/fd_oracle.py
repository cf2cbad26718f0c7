"""Central-difference Jacobians: the test oracle for the closed-form
derivatives that every fit returns to `least_squares` with its values."""

import numpy as np

from cascfluor.fit import DegenerateFitError

# central differences: cbrt(eps) balances truncation against roundoff
DEFAULT_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


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


def fd_jac(model):
    """A model for least_squares: the values of `model` and its unweighted,
    unbounded central differences at the default step."""
    def fused(x, th):
        unbounded = (np.full(len(th), -np.inf), np.full(len(th), np.inf))
        return model(x, th), _jacobian(model, x, np.asarray(th, float), unbounded,
                                       np.ones(len(x)), DEFAULT_FD_STEP)
    return fused
