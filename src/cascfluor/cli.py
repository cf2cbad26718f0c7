"""Command-line front end.

Subcommands tie the simulator, the spectral model and the fitting
pipelines together and emit plot-ready CSV tables. All output is
deterministic for a fixed seed and bit-identical across repeated runs.

Exit codes: 0 success, 2 usage, 3 parse error, 4 non-convergence,
5 degenerate fit.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import cascade, fit, spectrum, timetag

# Reference model parameters used by the `reproduce` command: the fitted
# absorption filter, the saturation power, the broadening law and the
# blue-shift trend of the cascaded line.
REFERENCE_FILTER = cascade.AbsorptionProfile(
    alpha=0.85, width=6.7, shift=0.0, path_efficiency=0.9
)
SATURATION_POWER_UW = 121.0
BROADENING_GAMMA_MHZ = 6.45
BROADENING_GAMMA0_MHZ = 8.44
SHIFT_SLOPE_MHZ = 0.25
SHIFT_INTERCEPT_MHZ = 0.5
LOW_POWER_LINEWIDTH_MHZ = 16.0

FIGURES = ("fig3", "fig4a", "fig4b", "fig5a", "fig5b")


def write_table(path, columns: dict, meta: dict | None = None) -> None:
    """Write named float columns as CSV, optional '# key=value' metadata
    lines first. Lossless for read_table."""
    keys = list(columns)
    arrays = [np.asarray(columns[k], dtype=float) for k in keys]
    with open(path, "w", encoding="utf-8") as f:
        for k, v in (meta or {}).items():
            f.write(f"# {k}={float(v):.17g}\n")
        f.write(",".join(keys) + "\n")
        for row in zip(*arrays):
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_table(path) -> tuple[dict, dict]:
    """Read a CSV written by write_table; returns (meta, columns)."""
    meta: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as f:
        line = f.readline()
        lineno = 1
        while line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition("=")
            try:
                meta[key.strip()] = float(value)
            except ValueError as exc:
                raise fit.DataParseError(f"{path}:{lineno}: bad metadata line") from exc
            line = f.readline()
            lineno += 1
        header = line.strip()
        if not header:
            raise fit.DataParseError(f"{path}:{lineno}: missing header")
        keys = header.split(",")
        rows = []
        for lineno, line in enumerate(f, start=lineno + 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(keys):
                raise fit.DataParseError(
                    f"{path}:{lineno}: expected {len(keys)} fields, got {len(parts)}"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise fit.DataParseError(f"{path}:{lineno}: {exc}") from exc
    data = np.array(rows) if rows else np.empty((0, len(keys)))
    return meta, {k: data[:, i] for i, k in enumerate(keys)}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = timetag.read_config(args.config) if args.config else timetag.RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = _out_dir(args)
    tags: list[timetag.TimeTagRecord] = []
    for run_id in range(cfg.runs):
        tags.extend(timetag.simulate_run(cfg, run_id))
    timetag.write_timetags(out / "timetags.csv", tags)
    bin_ns = args.bin if args.bin else cfg.tick
    hist = timetag.histogram(tags, bin_ns, cfg)
    write_table(
        out / "histogram.csv",
        {"bin_start_ns": hist.bin_starts, "count": hist.counts},
        meta={"bin_ns": hist.bin_ns, "period_ns": hist.period_ns},
    )
    original, cascaded_n = timetag.window_counts(hist, cfg)
    ratio = cascaded_n / original if original else math.nan
    print(f"runs: {cfg.runs}  photons: {len(tags)}")
    print(f"original window: {original}  cascaded window: {cascaded_n}  "
          f"ratio: {ratio:.4f}")
    return 0


def cmd_spectrum(args) -> int:
    params = spectrum.DriveParams(args.s0, args.delta, args.gamma)
    spec = spectrum.sample_spectrum(params, args.span, args.step)
    if args.counts is not None:
        spec = spectrum.normalize_to_counts(spec, args.counts)
    out = _out_dir(args)
    write_table(
        out / "spectrum.csv",
        {"omega_mhz": spec.offsets, "density_per_mhz": spec.density},
        meta={"elastic_weight": spec.elastic_weight, "s0": args.s0,
              "delta_mhz": args.delta, "gamma_mhz": args.gamma},
    )
    print(f"grid points: {len(spec.offsets)}  elastic weight: "
          f"{spec.elastic_weight:.6g}  total weight: {spec.total_weight():.6g}")
    return 0


def _profile_from_args(args) -> cascade.AbsorptionProfile:
    return cascade.AbsorptionProfile(
        alpha=args.alpha, width=args.width, shift=args.shift,
        path_efficiency=args.efficiency,
    )


def cmd_cascade(args) -> int:
    prof = _profile_from_args(args)
    params = spectrum.DriveParams(args.s0, args.delta, args.gamma)
    spec = spectrum.normalize_to_counts(
        spectrum.sample_spectrum(params), args.counts
    )
    casc = cascade.cascaded_count(spec, prof, drive_detuning=args.delta)
    out = _out_dir(args)
    write_table(
        out / "cascade.csv",
        {"s0": [args.s0], "delta_mhz": [args.delta], "original": [args.counts],
         "cascaded": [casc], "ratio": [casc / args.counts]},
    )
    print(f"original: {args.counts:.6g}  cascaded: {casc:.6g}  "
          f"ratio: {casc / args.counts:.6f}")
    return 0


def cmd_ratio(args) -> int:
    prof = _profile_from_args(args)
    grid = np.linspace(args.start, args.stop, args.points)
    if args.scan == "detuning":
        drives = [spectrum.DriveParams(args.s0, d, args.gamma) for d in grid]
        key = "delta_mhz"
    else:
        drives = [spectrum.DriveParams(s0, 0.0, args.gamma) for s0 in grid]
        key = "s0"
    ratios = cascade.cascaded_counts(drives, np.ones_like(grid), prof)
    out = _out_dir(args)
    write_table(out / "ratio.csv", {key: grid, "ratio": ratios})
    print(f"wrote {len(grid)} points; min ratio {ratios.min():.4f} "
          f"at {key}={grid[int(np.argmin(ratios))]:.4g}")
    return 0


def _run_fit(args):
    if args.model == "cascade":
        if not args.original or not args.cascaded:
            raise ValueError("cascade fit needs --original and --cascaded")
        original = fit.read_series(args.original)
        cascaded_series = fit.read_series(args.cascaded)
        return fit.fit_cascade(
            original,
            cascaded_series,
            scan=args.scan,
            s0=args.s0,
            gamma=args.gamma,
            fix_width=args.fix_width,
            fix_shift=args.fix_shift,
            fix_efficiency=args.fix_efficiency,
            seed=args.seed if args.seed is not None else 0,
        )
    if not args.data:
        raise ValueError(f"{args.model} fit needs --data")
    series = fit.read_series(args.data)
    runners = {
        "lorentzian": fit.fit_lorentzian,
        "saturation": fit.fit_saturation,
        "broadening": fit.fit_power_broadening,
        "slope": fit.fit_shift_slope,
    }
    return runners[args.model](series, bootstrap=args.bootstrap)


def cmd_fit(args) -> int:
    result = _run_fit(args)
    out = _out_dir(args)
    fit.write_report(out / "fit_report.txt", result)
    fit.write_report_csv(out / "fit_report.csv", result)
    for name, value in result.params.items():
        print(f"{name} = {value:.6g} +- {result.sigmas[name]:.3g}")
    print(f"residual_norm = {result.residual_norm:.6g}  "
          f"converged = {result.converged}  iterations = {result.iterations}")
    return 0 if result.converged else 4


def _reproduce_fig3(out: Path, rng) -> None:
    s0_grid = np.linspace(0.05, 10.0, 200)
    original = s0_grid / (1.0 + s0_grid)
    resonant = [spectrum.DriveParams(s) for s in s0_grid]
    ratios = cascade.cascaded_counts(resonant, np.ones_like(s0_grid), REFERENCE_FILTER)
    write_table(
        out / "fig3_model.csv",
        {"s0": s0_grid, "original_rate": original,
         "cascaded_rate": original * ratios, "ratio": ratios},
    )
    s0_pts = np.geomspace(0.25, 4.0, 8)
    n_orig = 1200.0 * s0_pts / (1.0 + s0_pts)
    resonant = [spectrum.DriveParams(s) for s in s0_pts]
    model = cascade.cascaded_counts(resonant, np.ones_like(s0_pts), REFERENCE_FILTER) * n_orig
    noisy = model * (1.0 + 0.03 * rng.standard_normal(len(model)))
    orig_series = fit.DataSeries(s0_pts, n_orig)
    casc_series = fit.DataSeries(s0_pts, noisy, 0.03 * model)
    fit.write_series(out / "fig3_points_original.csv", orig_series)
    fit.write_series(out / "fig3_points_cascaded.csv", casc_series)
    refit = fit.fit_cascade(
        orig_series, casc_series, scan="power",
        fix_shift=0.0, fix_efficiency=0.9,
    )
    fit.write_report_csv(out / "fig3_refit.csv", refit)
    print(f"fig3 refit: width = {refit.params['width']:.3f} "
          f"+- {refit.sigmas['width']:.3f} MHz (model 6.7), "
          f"alpha = {refit.params['alpha']:.3f} "
          f"+- {refit.sigmas['alpha']:.3f} (model 0.85)")


def _lorentz_rate(delta, s0):
    width = fit.power_broadened_width(s0, BROADENING_GAMMA_MHZ, BROADENING_GAMMA0_MHZ)
    amp = 2.0 * spectrum.excited_state_population(s0)
    return fit.lorentzian(delta, 0.0, width, amp, 0.0)


def _reproduce_fig4(out: Path, rng, which: str) -> None:
    grid = np.linspace(-30.0, 30.0, 121)
    cols = {"delta_mhz": grid}
    for s0, tag in ((0.4, "s0p4"), (2.5, "s2p5")):
        original = _lorentz_rate(grid, s0)
        ratios = cascade.ratio_curve(grid, s0, REFERENCE_FILTER, np.ones_like(grid))
        if which == "fig4a":
            cols[f"original_rate_{tag}"] = original
            cols[f"cascaded_rate_{tag}"] = original * ratios
        else:
            cols[f"ratio_{tag}"] = ratios
    write_table(out / f"{which}_model.csv", cols)

    pts = np.linspace(-25.0, 25.0, 21)
    s0 = 0.4
    n_orig = 1000.0 * _lorentz_rate(pts, s0) + 50.0
    model = cascade.ratio_curve(pts, s0, REFERENCE_FILTER, n_orig) * n_orig
    noisy = model * (1.0 + 0.03 * rng.standard_normal(len(model)))
    orig_series = fit.DataSeries(pts, n_orig)
    casc_series = fit.DataSeries(pts, noisy, 0.03 * model)
    fit.write_series(out / f"{which}_points_original.csv", orig_series)
    fit.write_series(out / f"{which}_points_cascaded.csv", casc_series)
    refit = fit.fit_cascade(
        orig_series, casc_series, scan="detuning", s0=s0, fix_efficiency=0.9
    )
    fit.write_report_csv(out / f"{which}_refit.csv", refit)
    print(f"{which} refit: width = {refit.params['width']:.3f} MHz (model 6.7), "
          f"alpha = {refit.params['alpha']:.3f} (model 0.85), "
          f"shift = {refit.params['shift']:.3f} MHz (model 0.0)")


def _reproduce_fig5a(out: Path, rng) -> None:
    s0_grid = np.linspace(0.0, 4.0, 161)
    write_table(
        out / "fig5a_model.csv",
        {"s0": s0_grid,
         "fwhm_mhz": fit.power_broadened_width(
             s0_grid, BROADENING_GAMMA_MHZ, BROADENING_GAMMA0_MHZ)},
    )
    pts = np.array([0.4, 0.8, 1.6, 2.5])
    noise = 0.12
    widths = fit.power_broadened_width(
        pts, BROADENING_GAMMA_MHZ, BROADENING_GAMMA0_MHZ
    ) + noise * rng.standard_normal(len(pts))
    series = fit.DataSeries(pts, widths, np.full(len(pts), noise))
    fit.write_series(out / "fig5a_points.csv", series)
    refit = fit.fit_power_broadening(series)
    fit.write_report_csv(out / "fig5a_refit.csv", refit)
    print(f"fig5a refit: gamma = {refit.params['gamma']:.2f} "
          f"+- {refit.sigmas['gamma']:.2f} MHz (model {BROADENING_GAMMA_MHZ}), "
          f"gamma0 = {refit.params['gamma0']:.2f} "
          f"+- {refit.sigmas['gamma0']:.2f} MHz (model {BROADENING_GAMMA0_MHZ})")


def _reproduce_fig5b(out: Path, rng) -> None:
    s0_grid = np.linspace(0.0, 4.0, 161)
    write_table(
        out / "fig5b_model.csv",
        {"s0": s0_grid,
         "shift_mhz": SHIFT_SLOPE_MHZ * s0_grid + SHIFT_INTERCEPT_MHZ},
    )
    pts = np.array([0.4, 0.8, 1.2, 1.6, 2.0, 2.5])
    noise = 0.1
    shifts = (SHIFT_SLOPE_MHZ * pts + SHIFT_INTERCEPT_MHZ
              + noise * rng.standard_normal(len(pts)))
    series = fit.DataSeries(pts, shifts, np.full(len(pts), noise))
    fit.write_series(out / "fig5b_points.csv", series)
    refit = fit.fit_shift_slope(series)
    fit.write_report_csv(out / "fig5b_refit.csv", refit)
    print(f"fig5b refit: slope = {refit.params['slope']:.3f} "
          f"+- {refit.sigmas['slope']:.3f} MHz per unit s0 "
          f"(model {SHIFT_SLOPE_MHZ})")


def cmd_reproduce(args) -> int:
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed if args.seed is not None else 1)
    if args.figure == "fig3":
        _reproduce_fig3(out, rng)
    elif args.figure in ("fig4a", "fig4b"):
        _reproduce_fig4(out, rng, args.figure)
    elif args.figure == "fig5a":
        _reproduce_fig5a(out, rng)
    else:
        _reproduce_fig5b(out, rng)
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")


def _add_profile_args(parser) -> None:
    parser.add_argument("--alpha", type=float, default=REFERENCE_FILTER.alpha)
    parser.add_argument("--width", type=float, default=REFERENCE_FILTER.width)
    parser.add_argument("--shift", type=float, default=REFERENCE_FILTER.shift)
    parser.add_argument("--efficiency", type=float,
                        default=REFERENCE_FILTER.path_efficiency)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascfluor",
        description="Cascaded resonance fluorescence: simulate, model, fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the time-tag Monte Carlo")
    p.add_argument("--config", help="key = value run configuration file")
    p.add_argument("--bin", type=int, default=None, help="histogram bin in ns")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("spectrum", help="tabulate an emission spectrum")
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=spectrum.DEFAULT_GAMMA_MHZ)
    p.add_argument("--span", type=float, default=10.0,
                   help="grid half-span in linewidths")
    p.add_argument("--step", type=float, default=None, help="grid step in MHz")
    p.add_argument("--counts", type=float, default=None,
                   help="normalize the spectrum to this photon number")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("cascade", help="predict one cascaded count")
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=spectrum.DEFAULT_GAMMA_MHZ)
    p.add_argument("--counts", type=float, default=1000.0,
                   help="original photon count")
    _add_profile_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("ratio", help="cascaded/original ratio curve")
    p.add_argument("--scan", choices=("detuning", "power"), default="detuning")
    p.add_argument("--s0", type=float, default=0.4,
                   help="drive s0 for the detuning scan")
    p.add_argument("--gamma", type=float, default=spectrum.DEFAULT_GAMMA_MHZ)
    p.add_argument("--start", type=float, default=-30.0)
    p.add_argument("--stop", type=float, default=30.0)
    p.add_argument("--points", type=int, default=121)
    _add_profile_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("fit", help="fit a model to CSV data")
    p.add_argument("model",
                   choices=("lorentzian", "saturation", "broadening", "slope",
                            "cascade"))
    p.add_argument("--data", help="x,y[,yerr] CSV for single-series models")
    p.add_argument("--original", help="original-counts CSV (cascade fit)")
    p.add_argument("--cascaded", help="cascaded-counts CSV (cascade fit)")
    p.add_argument("--scan", choices=("power", "detuning"), default="power")
    p.add_argument("--s0", type=float, default=None,
                   help="drive s0 for the detuning scan")
    p.add_argument("--gamma", type=float, default=spectrum.DEFAULT_GAMMA_MHZ)
    p.add_argument("--fix-width", type=float, default=None)
    p.add_argument("--fix-shift", type=float, default=None)
    p.add_argument("--fix-efficiency", type=float, default=None)
    p.add_argument("--bootstrap", type=int, default=0,
                   help="resampling refits for the uncertainties of "
                        "single-series fits (default: linearized)")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("reproduce", help="emit reference model curves, "
                       "synthetic data and a closing refit")
    p.add_argument("figure", choices=FIGURES)
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (timetag.ParseError, fit.DataParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except fit.DegenerateFitError as exc:
        print(f"error: degenerate fit: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
