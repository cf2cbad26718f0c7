"""Acceptance gate.

Every numbered criterion runs at its stated tolerance (including the
runtime bound) and prints one pass/fail line; run with `pytest -s` to see
the lines as they appear.

Two checks encode expectations the exact model cannot meet; they are
implemented verbatim and fail honestly rather than being loosened:

* criterion 2: with 3% point noise on an 8-point power scan over
  s0 = 0.25..4, the Fisher information bounds the width scatter at about
  1 MHz (0.7 MHz even for the best possible 8-point design), so no
  estimator can land within +-0.6 MHz in 90% of trials; that would need
  noise below roughly 0.7%.
* criterion 6 (sideband position): the exact emission spectrum at s0 = 8
  has its sideband maxima at +-1.58 linewidths (8.216 MHz), pulled inside
  the Rabi frequency 10.4 MHz by the overlapping central line; the maxima
  approach +-Rabi only asymptotically with increasing drive. Verified
  against an independent optical-Bloch-equation computation
  (tests/test_spectrum.py).
"""

import time

import numpy as np
import pytest

from cascfluor.cascade import AbsorptionProfile, ratio_curve
from cascfluor.fit import (
    DataSeries,
    cascade_model_counts,
    fit_cascade,
    fit_power_broadening,
    fit_saturation,
    fit_shift_slope,
    least_squares,
    lorentzian,
    fit_lorentzian,
    power_broadened_width,
    saturation_rate,
)
from cascfluor.spectrum import (
    DEFAULT_GAMMA_MHZ,
    DriveParams,
    mollow_density,
    sample_spectrum,
)
from cascfluor.timetag import RunConfig, histogram, peak_separation, simulate_run, window_counts

GAMMA = DEFAULT_GAMMA_MHZ
FITTED = AbsorptionProfile(alpha=0.85, width=6.7, shift=0.0, path_efficiency=0.9)


def report(num: int, ok: bool, detail: str, elapsed: float, limit: float) -> str:
    line = (f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail} "
            f"[{elapsed:.2f}s / limit {limit:.0f}s]")
    print(line)
    return line


def test_criterion_1_off_resonance_ratio():
    limit = 1.0
    start = time.perf_counter()
    ratio = ratio_curve([30.0], 0.4, FITTED, [1.0])[0]
    elapsed = time.perf_counter() - start
    ok = abs(ratio - 0.90) <= 0.03 and elapsed < limit
    line = report(1, ok, f"off-resonance ratio {ratio:.4f} vs 0.90 +- 0.03",
                  elapsed, limit)
    assert ok, line


def test_criterion_2_cascade_fit_roundtrip():
    limit = 60.0
    start = time.perf_counter()
    ladder = np.geomspace(0.25, 4.0, 8)
    n_orig = 1200.0 * ladder / (1.0 + ladder)
    drives = [DriveParams(float(s)) for s in ladder]
    truth = cascade_model_counts(drives, n_orig, 6.7, 0.85, 0.0, 0.9)
    original = DataSeries(ladder, n_orig)
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        noisy = truth * (1.0 + 0.03 * rng.standard_normal(len(truth)))
        res = fit_cascade(
            original,
            DataSeries(ladder, noisy, 0.03 * truth),
            scan="power",
            fix_shift=0.0,
            fix_efficiency=0.9,
        )
        if abs(res.params["width"] - 6.7) <= 0.6 and abs(res.params["alpha"] - 0.85) <= 0.04:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 90 and elapsed < limit
    line = report(
        2, ok,
        f"width within 0.6 MHz and alpha within 0.04 in {hits}/100 trials "
        f"(needs >= 90; 3% noise caps the attainable rate near 30, "
        f"see module docstring)",
        elapsed, limit,
    )
    assert ok, line


def test_criterion_3_power_broadening_recovery():
    limit = 10.0
    start = time.perf_counter()
    s0 = np.array([0.4, 0.8, 1.6, 2.5])
    clean = power_broadened_width(s0, 6.45, 8.44)
    noise = 0.12  # measurement scatter implied by the quoted uncertainties
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        data = DataSeries(s0, clean + rng.normal(0.0, noise, len(s0)),
                          np.full(len(s0), noise))
        res = fit_power_broadening(data)
        if abs(res.params["gamma"] - 6.45) <= 1.17 and abs(res.params["gamma0"] - 8.44) <= 0.80:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 90 and elapsed < limit
    line = report(3, ok, f"gamma within 1.17 and gamma0 within 0.80 MHz in "
                  f"{hits}/100 trials (needs >= 90)", elapsed, limit)
    assert ok, line


def test_criterion_4_saturation_knee():
    limit = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    powers = np.array([10.0, 20.0, 40.0, 80.0, 121.0, 160.0, 240.0, 400.0, 600.0])
    clean = saturation_rate(powers, 121.0, 3.0)
    data = DataSeries(powers, clean * (1.0 + 0.02 * rng.standard_normal(len(powers))))
    res = fit_saturation(data)
    elapsed = time.perf_counter() - start
    i0 = res.params["i0"]
    ok = abs(i0 - 121.0) <= 10.0 and res.converged and elapsed < limit
    line = report(4, ok, f"saturation power {i0:.1f} uW vs 121 +- 10", elapsed, limit)
    assert ok, line


def test_criterion_5_histogram_protocol():
    limit = 30.0
    start = time.perf_counter()
    # default acquisition: 120 runs, capped records
    cfg = RunConfig(mean_photons_per_pulse=0.75, seed=123)
    tags = np.concatenate([simulate_run(cfg, run_id) for run_id in range(cfg.runs)])
    sep = peak_separation(histogram(tags, cfg.tick, cfg))
    # windowed ratio at one million detected photons
    big = RunConfig(mean_photons_per_pulse=1.0, pulses_per_run=550_000,
                    runs=1, cap=10**9, ratio_model=0.9, seed=321)
    big_tags = simulate_run(big)
    original, cascaded = window_counts(histogram(big_tags, big.tick, big), big)
    ratio = cascaded / original
    elapsed = time.perf_counter() - start
    ok = (abs(sep - 310.0) <= 5.0 and abs(ratio - 0.90) <= 0.02
          and len(big_tags) >= 10**6 and elapsed < limit)
    line = report(5, ok, f"peak separation {sep:.1f} ns vs 310 +- 5; windowed "
                  f"ratio {ratio:.4f} vs 0.90 +- 0.02 at {len(big_tags)} photons",
                  elapsed, limit)
    assert ok, line


def test_criterion_6_spectral_properties():
    limit = 10.0
    start = time.perf_counter()
    failures = []

    # non-negativity over the parameter grid
    omega = np.linspace(-20 * GAMMA, 20 * GAMMA, 4001)
    for s0 in (0.1, 0.4, 1.0, 2.5, 8.0):
        for delta in (0.0, GAMMA, -GAMMA, 30.0, -30.0):
            if np.any(mollow_density(omega, DriveParams(s0, delta)) < 0):
                failures.append(f"negative density at s0={s0}, delta={delta}")

    # exact symmetry on resonance
    half = np.arange(0.0, 10 * GAMMA, 0.01 * GAMMA)
    for s0 in (0.4, 2.5, 8.0):
        p = DriveParams(s0, 0.0)
        asym = np.max(np.abs(mollow_density(half, p) - mollow_density(-half, p)))
        if asym > 1e-12 * mollow_density(0.0, p):
            failures.append(f"asymmetry {asym:.2e} at s0={s0}")

    # triplet structure: three maxima, sidebands at +-Gamma*sqrt(s0/2)
    # within one grid step
    step = 0.01 * GAMMA
    n = int(round(10 * GAMMA / step))
    grid = step * np.arange(-n, n + 1)
    dens = mollow_density(grid, DriveParams(8.0, 0.0))
    interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:])
    peaks = grid[np.where(interior)[0] + 1]
    rabi = GAMMA * np.sqrt(8.0 / 2.0)
    if len(peaks) != 3:
        failures.append(f"{len(peaks)} local maxima, expected 3")
    else:
        outer = max(abs(peaks[0]), abs(peaks[2]))
        if abs(outer - rabi) > 1.5 * step:
            failures.append(
                f"sidebands at +-{outer:.3f} MHz, required {rabi:.1f} +- {step:.3f}"
            )

    # normalization closure
    offsets, density, elastic = sample_spectrum([DriveParams(0.4)], [1500.0])
    closure = abs(np.trapezoid(density[0], offsets) + elastic[0] - 1500.0)
    if closure > 1e-6:
        failures.append(f"normalization closure {closure:.2e}")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < limit
    detail = "all spectral properties hold" if not failures else "; ".join(failures)
    line = report(6, ok, detail, elapsed, limit)
    assert ok, line


def test_criterion_7_monotone_dip():
    limit = 5.0
    start = time.perf_counter()
    ladder = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    ratios = [ratio_curve([0.0], s0, FITTED, [1.0])[0] for s0 in ladder]
    elapsed = time.perf_counter() - start
    ok = all(b > a for a, b in zip(ratios, ratios[1:])) and elapsed < limit
    pretty = ", ".join(f"{r:.3f}" for r in ratios)
    line = report(7, ok, f"on-resonance ratio over s0 ladder: {pretty}", elapsed, limit)
    assert ok, line


def test_criterion_8_fit_engine_oracles():
    limit = 5.0
    start = time.perf_counter()
    failures = []

    # linear model against the closed-form weighted normal equations
    rng = np.random.default_rng(8)
    x = np.linspace(0.0, 10.0, 40)
    y = 1.3 * x - 0.7 + rng.normal(0, 0.25, len(x))
    err = rng.uniform(0.2, 0.4, len(x))
    res = least_squares(lambda xx, th: (th[0] * xx + th[1],
                                        np.column_stack([xx, np.ones_like(xx)])),
                        DataSeries(x, y, err), [0.0, 0.0], names=["a", "b"])
    w = 1.0 / err**2
    design = np.column_stack([x, np.ones_like(x)])
    expected = np.linalg.solve(design.T @ (w[:, None] * design), design.T @ (w * y))
    if abs(res.params["a"] - expected[0]) > 1e-10 * abs(expected[0]):
        failures.append("linear slope off closed form")
    if abs(res.params["b"] - expected[1]) > 1e-10 * abs(expected[1]):
        failures.append("linear intercept off closed form")

    # noiseless nonlinear round trips at 1e-4 relative
    xs = np.linspace(-30.0, 30.0, 41)
    lor = fit_lorentzian(DataSeries(xs, lorentzian(xs, 2.0, 16.0, 1.5, 0.1)))
    for name, truth in (("center", 2.0), ("fwhm", 16.0), ("amplitude", 1.5),
                        ("offset", 0.1)):
        if abs(lor.params[name] - truth) > 1e-4 * max(abs(truth), 1e-6):
            failures.append(f"lorentzian {name} round trip")

    powers = np.array([5.0, 20.0, 60.0, 121.0, 300.0, 700.0])
    sat = fit_saturation(DataSeries(powers, saturation_rate(powers, 121.0, 2.0)))
    if abs(sat.params["i0"] - 121.0) > 1e-4 * 121.0:
        failures.append("saturation i0 round trip")

    s0 = np.array([0.3, 0.8, 1.5, 2.5, 4.0])
    brd = fit_power_broadening(DataSeries(s0, power_broadened_width(s0, 6.45, 8.44)))
    if abs(brd.params["gamma"] - 6.45) > 1e-4 * 6.45:
        failures.append("broadening gamma round trip")

    shf = fit_shift_slope(DataSeries(s0, 0.25 * s0 + 0.5))
    if abs(shf.params["slope"] - 0.25) > 1e-4 * 0.25:
        failures.append("slope round trip")

    ladder = np.geomspace(0.25, 4.0, 8)
    n_orig = np.full(len(ladder), 1000.0)
    truth_counts = cascade_model_counts(
        [DriveParams(float(s)) for s in ladder], n_orig, 6.7, 0.85, 0.0, 0.9
    )
    cas = fit_cascade(DataSeries(ladder, n_orig), DataSeries(ladder, truth_counts),
                      scan="power", fix_shift=0.0, fix_efficiency=0.9)
    if abs(cas.params["width"] - 6.7) > 1e-4 * 6.7:
        failures.append("cascade width round trip")
    if abs(cas.params["alpha"] - 0.85) > 1e-4 * 0.85:
        failures.append("cascade alpha round trip")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < limit
    detail = "closed-form and round-trip oracles agree" if not failures else "; ".join(failures)
    line = report(8, ok, detail, elapsed, limit)
    assert ok, line
