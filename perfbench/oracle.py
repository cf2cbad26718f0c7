"""Adaptive-quadrature reference for the cascaded/original count ratio.

    python3 perfbench/oracle.py < points.json > ratios.json

Each input point is [s0, delta, alpha, width, shift, path_efficiency, gamma];
the output is one ratio per point. The Mollow density is written out here
independently of `cascfluor.spectrum`, and both integrals are taken by
`scipy.integrate.quad` over the same +-10 gamma span the package's grid
covers, split at the filter center and at zero. It runs in a process of its
own so that scipy is never loaded into a measured workload process.
"""

from __future__ import annotations

import json
import math
import sys

from scipy.integrate import quad

SPAN_GAMMAS = 10.0


def mollow_density(omega: float, s0: float, delta: float, gamma: float) -> float:
    """Inelastic Mollow density per MHz (the closed form of the README)."""
    s = s0 / (1.0 + 4.0 * (delta / gamma) ** 2)
    x = omega / gamma
    d = delta / gamma
    x2 = x * x
    b1 = 0.25 + s0 / 4.0 + d * d - 2.0 * x2
    b2 = 1.25 + s0 / 2.0 + d * d - x2
    scale = s0 / (8.0 * math.pi * gamma) * s / (1.0 + s)
    return scale * (1.0 + s0 / 4.0 + x2) / (b1 * b1 + x2 * b2 * b2)


def reference_ratio(s0, delta, alpha, width, shift, efficiency, gamma) -> float:
    """(inelastic * transmission + elastic * transmission(0)) / total."""
    center = shift - delta
    half = SPAN_GAMMAS * gamma

    def trans(w):
        return efficiency * math.exp(-alpha / (1.0 + 4.0 * ((w - center) / width) ** 2))

    opts = dict(points=[p for p in (0.0, center) if -half < p < half],
                epsabs=0.0, epsrel=1e-13, limit=500)
    inelastic = quad(lambda w: mollow_density(w, s0, delta, gamma) * trans(w),
                     -half, half, **opts)[0]
    total = quad(lambda w: mollow_density(w, s0, delta, gamma), -half, half, **opts)[0]
    s = s0 / (1.0 + 4.0 * (delta / gamma) ** 2)
    elastic = s / (2.0 + s) ** 2
    return (inelastic + elastic * trans(0.0)) / (total + elastic)


if __name__ == "__main__":
    json.dump([reference_ratio(*p) for p in json.load(sys.stdin)], sys.stdout)
