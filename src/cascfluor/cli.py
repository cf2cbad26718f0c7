"""Command-line front end.

Subcommands tie the simulator, the spectral model and the fitting
pipelines together and emit plot-ready CSV tables. All output is
deterministic for a fixed seed and bit-identical across repeated runs.
Each command, and each `fit` model, takes only the options it uses.

Exit codes: 0 success, 2 usage (argparse's SystemExit for an unknown or
missing option) or numeric overflow, 3 parse error, 4 non-convergence,
5 degenerate fit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import cascade, fit, spectrum, timetag
from .table import ParseError, read_table, write_table

# Reference model parameters used by the `reproduce` command: the fitted
# absorption filter, the broadening law and the blue-shift trend of the
# cascaded line.
REFERENCE_FILTER = cascade.AbsorptionProfile(
    alpha=0.85, width=6.7, shift=0.0, path_efficiency=0.9
)
BROADENING_GAMMA_MHZ = 6.45
BROADENING_GAMMA0_MHZ = 8.44
SHIFT_SLOPE_MHZ = 0.25
SHIFT_INTERCEPT_MHZ = 0.5
# most points of one `ratio` scan: about 1 s of model and a 4 MB table
MAX_RATIO_POINTS = 100_000


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = timetag.read_config(args.config) if args.config else timetag.RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    bin_ns = args.bin if args.bin is not None else cfg.tick
    # the bin and the windows are checked before any file is opened
    hist = timetag.histogram(np.empty(0, timetag.TIMETAG_DTYPE), bin_ns, cfg)
    timetag.window_counts(hist, cfg)
    counts = hist.counts  # the running total: integer sums, so exact

    def runs():
        # each run is drawn, histogrammed and written before the next
        for run_id in range(cfg.runs):
            tags = timetag.simulate_run(cfg, run_id)
            np.add(counts, timetag.histogram(tags, bin_ns, cfg).counts, out=counts)
            yield tags

    out = _out_dir(args)
    timetag.write_timetags(out / "timetags.csv", runs())
    original, cascaded_n = timetag.window_counts(hist, cfg)
    write_table(out / "histogram.csv", {"bin_start_ns": hist.bin_starts, "count": hist.counts},
                meta={"bin_ns": hist.bin_ns, "period_ns": hist.period_ns})
    ratio = cascaded_n / original if original else math.nan
    print(f"runs: {cfg.runs}  photons: {counts.sum()}")
    print(f"original window: {original}  cascaded window: {cascaded_n}  "
          f"ratio: {ratio:.4f}")
    return 0


def cmd_spectrum(args) -> int:
    params = spectrum.DriveParams(args.s0, args.delta, args.gamma)
    counts = None if args.counts is None else [args.counts]
    stack = spectrum.sample_spectrum([params], counts, args.step, args.span)
    offsets, density, elastic = stack.offsets, stack.density[0], float(stack.elastic[0])
    out = _out_dir(args)
    write_table(
        out / "spectrum.csv",
        {"omega_mhz": offsets, "density_per_mhz": density},
        meta={"elastic_weight": elastic, "s0": args.s0,
              "delta_mhz": args.delta, "gamma_mhz": args.gamma},
    )
    total = np.add.reduce(density * spectrum._weights(offsets)) + elastic
    print(f"grid points: {len(offsets)}  elastic weight: "
          f"{elastic:.6g}  total weight: {total:.6g}")
    return 0


def _profile_from_args(args) -> cascade.AbsorptionProfile:
    return cascade.AbsorptionProfile(
        alpha=args.alpha, width=args.width, shift=args.shift,
        path_efficiency=args.efficiency,
    )


def cmd_cascade(args) -> int:
    prof = _profile_from_args(args)
    params = spectrum.DriveParams(args.s0, args.delta, args.gamma)
    casc = cascade.cascaded_counts([params], [args.counts], prof)[0]
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
    if not 1 <= args.points <= MAX_RATIO_POINTS:
        raise ValueError(f"--points must be in [1, {MAX_RATIO_POINTS}], got {args.points}")
    for name in ("start", "stop"):
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite, got {getattr(args, name)}")
    prof = _profile_from_args(args)
    grid = np.linspace(args.start, args.stop, args.points)
    if args.scan == "detuning":
        s0 = 0.4 if args.s0 is None else args.s0
        drives = spectrum.Drives.of(s0, grid, args.gamma)
        key = "delta_mhz"
    elif args.s0 is not None:
        raise ValueError("--s0 is only for --scan detuning")
    else:
        drives = spectrum.Drives.of(grid, 0.0, args.gamma)
        key = "s0"
    ratios = cascade.cascaded_counts(drives, np.ones_like(grid), prof)
    out = _out_dir(args)
    write_table(out / "ratio.csv", {key: grid, "ratio": ratios})
    print(f"wrote {len(grid)} points; min ratio {ratios.min():.4f} "
          f"at {key}={grid[int(np.argmin(ratios))]:.4g}")
    return 0


# the single-series `fit` models; they share one parser
_SERIES_FITS = {
    "lorentzian": fit.fit_lorentzian,
    "saturation": fit.fit_saturation,
    "broadening": fit.fit_power_broadening,
    "slope": fit.fit_shift_slope,
}


def cmd_fit(args) -> int:
    if args.model == "cascade":
        result = fit.fit_cascade(
            fit.read_series(args.original), fit.read_series(args.cascaded),
            scan=args.scan, s0=args.s0, gamma=args.gamma, fix_width=args.fix_width,
            fix_shift=args.fix_shift, fix_efficiency=args.fix_efficiency, seed=args.seed,
        )
    else:
        result = _SERIES_FITS[args.model](fit.read_series(args.data), bootstrap=args.bootstrap)
    out = _out_dir(args)
    fit.write_report_csv(out / "fit_report.csv", result)
    for name, value in result.params.items():
        print(f"{name} = {value:.6g} +- {result.sigmas[name]:.3g}")
    print(f"residual_norm = {result.residual_norm:.6g}  "
          f"converged = {result.converged}  iterations = {result.iterations}")
    return 0 if result.converged else 4


def _refit(out: Path, fig: str, fitter, *series, **options) -> fit.FitResult:
    """Write a figure's synthetic points, fit them as the `fit` command
    would and write the report: {fig}_points.csv, or for a cascade fit
    {fig}_points_original.csv and {fig}_points_cascaded.csv, then
    {fig}_refit.csv. Returns the fit, for the figure's summary line."""
    names = ["points"] if len(series) == 1 else ["points_original", "points_cascaded"]
    for name, points in zip(names, series):
        fit.write_series(out / f"{fig}_{name}.csv", points)
    result = fitter(*series, **options)
    fit.write_report_csv(out / f"{fig}_refit.csv", result)
    return result


def _refit_cascade(out: Path, fig: str, rng, x, n_orig, model, **options) -> fit.FitResult:
    """_refit of cascaded counts: the model with 3% multiplicative noise and
    3% error bars, against the original counts n_orig."""
    noisy = model * (1.0 + 0.03 * rng.standard_normal(len(model)))
    return _refit(out, fig, fit.fit_cascade, fit.DataSeries(x, n_orig),
                  fit.DataSeries(x, noisy, 0.03 * model), **options)


def _reproduce_fig3(out: Path, rng) -> None:
    s0_grid = np.linspace(0.05, 10.0, 200)
    original = s0_grid / (1.0 + s0_grid)
    ratios = cascade.cascaded_counts(spectrum.Drives.of(s0_grid), np.ones_like(s0_grid),
                                     REFERENCE_FILTER)
    write_table(
        out / "fig3_model.csv",
        {"s0": s0_grid, "original_rate": original,
         "cascaded_rate": original * ratios, "ratio": ratios},
    )
    s0_pts = np.geomspace(0.25, 4.0, 8)
    n_orig = 1200.0 * s0_pts / (1.0 + s0_pts)
    model = cascade.cascaded_counts(spectrum.Drives.of(s0_pts), np.ones_like(s0_pts),
                                    REFERENCE_FILTER) * n_orig
    refit = _refit_cascade(out, "fig3", rng, s0_pts, n_orig, model, scan="power",
                           fix_shift=0.0, fix_efficiency=0.9)
    print(f"fig3 refit: width = {refit.params['width']:.3f} "
          f"+- {refit.sigmas['width']:.3f} MHz (model 6.7), "
          f"alpha = {refit.params['alpha']:.3f} "
          f"+- {refit.sigmas['alpha']:.3f} (model 0.85)")


def _lorentz_rate(delta, s0):
    width = fit.power_broadened_width(s0, BROADENING_GAMMA_MHZ, BROADENING_GAMMA0_MHZ)
    amp = 2.0 * spectrum.excited_state_population(s0)
    return fit.lorentzian(delta, 0.0, width, amp, 0.0)


def _fig4_ratio_curves():
    """fig4's detuning grid and, per drive, (s0, column tag, ratio curve)."""
    grid = np.linspace(-30.0, 30.0, 121)
    ones = np.ones_like(grid)
    return grid, [(s0, tag, cascade.ratio_curve(grid, s0, REFERENCE_FILTER, ones))
                  for s0, tag in ((0.4, "s0p4"), (2.5, "s2p5"))]


def _reproduce_fig4a(out: Path, rng) -> None:
    grid, curves = _fig4_ratio_curves()
    cols = {"delta_mhz": grid}
    for s0, tag, ratios in curves:
        original = _lorentz_rate(grid, s0)
        cols[f"original_rate_{tag}"] = original
        cols[f"cascaded_rate_{tag}"] = original * ratios
    write_table(out / "fig4a_model.csv", cols)

    pts = np.linspace(-25.0, 25.0, 21)
    s0 = 0.4
    n_orig = 1000.0 * _lorentz_rate(pts, s0) + 50.0
    model = cascade.ratio_curve(pts, s0, REFERENCE_FILTER, n_orig) * n_orig
    refit = _refit_cascade(out, "fig4a", rng, pts, n_orig, model, scan="detuning", s0=s0,
                           fix_efficiency=0.9)
    print(f"fig4a refit: width = {refit.params['width']:.3f} MHz (model 6.7), "
          f"alpha = {refit.params['alpha']:.3f} (model 0.85), "
          f"shift = {refit.params['shift']:.3f} MHz (model 0.0)")


def _reproduce_fig4b(out: Path, _rng) -> None:
    # the ratio model only: fig4a holds the synthetic points and their refit
    grid, curves = _fig4_ratio_curves()
    cols = {"delta_mhz": grid}
    cols.update((f"ratio_{tag}", ratios) for _, tag, ratios in curves)
    write_table(out / "fig4b_model.csv", cols)


def _refit_fig5(out: Path, fig: str, rng, column: str, law, pts, noise, fitter):
    """A fig5 panel: the law on an s0 grid as {fig}_model.csv, then _refit of
    the law at pts plus Gaussian noise of sigma noise, with error bars noise."""
    s0_grid = np.linspace(0.0, 4.0, 161)
    write_table(out / f"{fig}_model.csv", {"s0": s0_grid, column: law(s0_grid)})
    values = law(pts) + noise * rng.standard_normal(len(pts))
    return _refit(out, fig, fitter, fit.DataSeries(pts, values, np.full(len(pts), noise)))


def _reproduce_fig5a(out: Path, rng) -> None:
    refit = _refit_fig5(
        out, "fig5a", rng, "fwhm_mhz",
        lambda s0: fit.power_broadened_width(s0, BROADENING_GAMMA_MHZ, BROADENING_GAMMA0_MHZ),
        np.array([0.4, 0.8, 1.6, 2.5]), 0.12, fit.fit_power_broadening)
    print(f"fig5a refit: gamma = {refit.params['gamma']:.2f} "
          f"+- {refit.sigmas['gamma']:.2f} MHz (model {BROADENING_GAMMA_MHZ}), "
          f"gamma0 = {refit.params['gamma0']:.2f} "
          f"+- {refit.sigmas['gamma0']:.2f} MHz (model {BROADENING_GAMMA0_MHZ})")


def _reproduce_fig5b(out: Path, rng) -> None:
    refit = _refit_fig5(
        out, "fig5b", rng, "shift_mhz", lambda s0: SHIFT_SLOPE_MHZ * s0 + SHIFT_INTERCEPT_MHZ,
        np.array([0.4, 0.8, 1.2, 1.6, 2.0, 2.5]), 0.1, fit.fit_shift_slope)
    print(f"fig5b refit: slope = {refit.params['slope']:.3f} "
          f"+- {refit.sigmas['slope']:.3f} MHz per unit s0 "
          f"(model {SHIFT_SLOPE_MHZ})")


# `reproduce` figures, each called with the output directory and the noise rng
FIGURES = {"fig3": _reproduce_fig3, "fig4a": _reproduce_fig4a, "fig4b": _reproduce_fig4b,
           "fig5a": _reproduce_fig5a, "fig5b": _reproduce_fig5b}


def cmd_reproduce(args) -> int:
    if args.figure == "fig4b" and args.seed is not None:
        raise ValueError("--seed is not for fig4b, which draws no noise")
    seed = 1 if args.seed is None else args.seed
    if seed < 0:
        # before the output directory is made
        raise ValueError(f"seed must be >= 0, got {seed}")
    FIGURES[args.figure](_out_dir(args), np.random.default_rng(seed))
    return 0


def _add_out(parser) -> None:
    parser.add_argument("--out", default=".", help="output directory")


def _add_profile_args(parser) -> None:
    parser.add_argument("--alpha", type=float, default=REFERENCE_FILTER.alpha)
    parser.add_argument("--width", type=float, default=REFERENCE_FILTER.width)
    parser.add_argument("--shift", type=float, default=REFERENCE_FILTER.shift)
    parser.add_argument("--efficiency", type=float,
                        default=REFERENCE_FILTER.path_efficiency)


def _simulate_args(p) -> None:
    p.add_argument("--config", help="key = value run configuration file")
    p.add_argument("--bin", type=int, default=None, help="histogram bin in ns")
    p.add_argument("--seed", type=int, default=None,
                   help="seed override (default: the config's seed)")
    _add_out(p)
    p.set_defaults(func=cmd_simulate)


def _spectrum_args(p) -> None:
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=spectrum.DEFAULT_GAMMA_MHZ)
    p.add_argument("--span", type=float, default=10.0,
                   help="grid half-span in linewidths")
    p.add_argument("--step", type=float, default=None, help="grid step in MHz")
    p.add_argument("--counts", type=float, default=None,
                   help="normalize the spectrum to this photon number")
    _add_out(p)
    p.set_defaults(func=cmd_spectrum)


def _cascade_args(p) -> None:
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=spectrum.DEFAULT_GAMMA_MHZ)
    p.add_argument("--counts", type=float, default=1000.0,
                   help="original photon count")
    _add_profile_args(p)
    _add_out(p)
    p.set_defaults(func=cmd_cascade)


def _ratio_args(p) -> None:
    p.add_argument("--scan", choices=("detuning", "power"), default="detuning")
    p.add_argument("--s0", type=float, default=None,
                   help="drive s0 of a detuning scan (default 0.4)")
    p.add_argument("--gamma", type=float, default=spectrum.DEFAULT_GAMMA_MHZ)
    p.add_argument("--start", type=float, default=-30.0)
    p.add_argument("--stop", type=float, default=30.0)
    p.add_argument("--points", type=int, default=121)
    _add_profile_args(p)
    _add_out(p)
    p.set_defaults(func=cmd_ratio)


def _fit_args(p) -> None:
    p.set_defaults(func=cmd_fit)
    models = p.add_subparsers(dest="model", required=True)
    m = models.add_parser("cascade", help="absorption filter of a power or detuning scan")
    m.add_argument("--original", required=True, help="original-counts CSV")
    m.add_argument("--cascaded", required=True, help="cascaded-counts CSV")
    m.add_argument("--scan", choices=("power", "detuning"), default="power")
    m.add_argument("--s0", type=float, default=None, help="drive s0 of a detuning scan")
    m.add_argument("--gamma", type=float, default=spectrum.DEFAULT_GAMMA_MHZ)
    m.add_argument("--fix-width", type=float, default=None)
    m.add_argument("--fix-shift", type=float, default=None)
    m.add_argument("--fix-efficiency", type=float, default=None)
    m.add_argument("--seed", type=int, default=0, help="multi-start seed")
    _add_out(m)
    first, *others = _SERIES_FITS
    m = models.add_parser(first, aliases=others, help="single-series fit",
                          prog=f"{p.prog} {{{','.join(_SERIES_FITS)}}}")
    m.add_argument("--data", required=True, help="x,y[,yerr] CSV")
    m.add_argument("--bootstrap", type=int, default=0,
                   help="resampling refits for the uncertainties "
                        "(default: linearized)")
    _add_out(m)


def _reproduce_args(p) -> None:
    p.add_argument("figure", choices=FIGURES)
    p.add_argument("--seed", type=int, default=None, help="synthetic-noise seed")
    _add_out(p)
    p.set_defaults(func=cmd_reproduce)


# each subcommand's one-line help and the function that adds its arguments
_COMMANDS = {
    "simulate": ("run the time-tag Monte Carlo", _simulate_args),
    "spectrum": ("tabulate an emission spectrum", _spectrum_args),
    "cascade": ("predict one cascaded count", _cascade_args),
    "ratio": ("cascaded/original ratio curve", _ratio_args),
    "fit": ("fit a model to CSV data", _fit_args),
    "reproduce": ("emit a figure's model curves and, but for fig4b, synthetic data "
                  "and their refit", _reproduce_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The full command tree, for help and for usage errors."""
    parser = argparse.ArgumentParser(
        prog="cascfluor",
        description="Cascaded resonance fluorescence: simulate, model, fit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command alone, built once per process."""
    parser = argparse.ArgumentParser(prog=f"cascfluor {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse(argv) -> argparse.Namespace:
    """Parse argv with only the named command's parser; the full tree
    parses it instead, to report top-level usage or leftover arguments."""
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        # data that overflow the fit arithmetic stop it as bad input
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except fit.DegenerateFitError as exc:
        print(f"error: degenerate fit: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
