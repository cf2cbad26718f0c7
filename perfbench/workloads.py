"""The four workloads: each op, the items it does, and its output checks.

Each op goes through the package's public API or `cascfluor.cli.main`,
in-process. `run(i)` is the timed part; `check(i, out)` runs afterwards,
untimed and untraced, and returns a list of failures. Op i uses input
variant i % VARIANTS and writes into a fresh directory, and every repeat of
a variant must write (or, for replay, compute) byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import cascfluor.cli
from cascfluor import fit, timetag

from make_inputs import VARIANTS, variant_seeds

HERE = Path(__file__).resolve().parent
# the CLI's default filter, as alpha, width, shift, path_efficiency
REFERENCE_FILTER = dataclasses.asdict(cascfluor.cli.REFERENCE_FILTER)
PEAK_TOLERANCE_NS = 5  # one 5 ns bin


def cli(argv) -> int:
    """Run `cascfluor argv` in-process, its summary lines discarded so that
    the benchmark's stdout stays its own; return the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cascfluor.cli.main([str(a) for a in argv])


def digest(root: Path) -> str:
    """sha256 over every file under root, by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def reference_ratios(points) -> list[float]:
    """Quadrature ratios for [s0, delta, alpha, width, shift, eff, gamma] points."""
    proc = subprocess.run([sys.executable, str(HERE / "oracle.py")],
                          input=json.dumps(points), capture_output=True,
                          text=True, timeout=170, check=True)
    return json.loads(proc.stdout)


class Workload:
    """Base: subclasses set `name`, `item` and `items_per_op` and define
    run(i) and check(i, out)."""

    name = ""
    item = ""

    def __init__(self, seed: int, inputs: Path, work: Path, small: bool):
        self.inputs = inputs
        self.work = work
        self.small = small
        self.variants = variant_seeds(seed)
        self.items_per_op = 1
        self._digests: dict[int, str] = {}

    def prepare(self) -> None:
        """Untimed work between set-up and the first op."""

    def op_dir(self, i: int) -> Path:
        """Where op i writes; the harness removes it after the check."""
        return self.work / f"op{i}"

    def same_as_before(self, i: int, value: str) -> list[str]:
        """Determinism: a repeated variant must reproduce the first digest."""
        first = self._digests.setdefault(i % VARIANTS, value)
        return [] if first == value else [f"op {i}: outputs differ from an earlier op with the same seed"]

    def model_err(self) -> float:
        """Largest |ratio - quadrature| of the forward model at fixed points.

        Only scan's op computes ratios; elsewhere this probes ratio_curve on
        the detuning grid of the scan workload, outside the timed loop, so
        every workload reports the metric.
        """
        grid = np.linspace(-30.0, 30.0, 121)[::20]
        prof = cascfluor.AbsorptionProfile(**REFERENCE_FILTER)
        got = cascfluor.ratio_curve(grid, 2.5, prof, np.ones_like(grid))
        ref = reference_ratios([[2.5, float(d), *REFERENCE_FILTER.values(),
                                 cascfluor.DEFAULT_GAMMA_MHZ] for d in grid])
        return float(np.max(np.abs(np.asarray(got) - ref)))


class Acquire(Workload):
    """`cascfluor simulate` with the default RunConfig."""

    name = "acquire"
    item = "photons"

    def prepare(self):
        self.cfg = timetag.read_config(self.inputs / "run.cfg")
        self.items_per_op = self.cfg.runs * self.cfg.cap

    def run(self, i):
        return cli(["simulate", "--config", self.inputs / "run.cfg",
                    "--seed", self.variants[i % VARIANTS], "--out", self.op_dir(i)])

    def check(self, i, out):
        if out != 0:
            return [f"op {i}: simulate exited {out}"]
        d = self.op_dir(i)
        photons = (d / "timetags.csv").read_bytes().count(b"\n") - 1
        meta, cols = cascfluor.cli.read_table(d / "histogram.csv")
        hist = timetag.Histogram(cols["bin_start_ns"].astype(np.int64),
                                 cols["count"].astype(np.int64),
                                 int(meta["bin_ns"]), int(meta["period_ns"]))
        errors = []
        if photons != self.items_per_op:
            errors.append(f"op {i}: {photons} photons, expected runs x cap = {self.items_per_op}")
        if hist.counts.sum() != photons:
            errors.append(f"op {i}: histogram holds {hist.counts.sum()} of {photons} photons")
        sep = timetag.peak_separation(hist)
        if abs(sep - self.cfg.delay) > PEAK_TOLERANCE_NS:
            errors.append(f"op {i}: peak separation {sep:.2f} ns, delay {self.cfg.delay} ns")
        return errors + self.same_as_before(i, digest(d))


class Replay(Workload):
    """Read back a recorded uncapped acquisition and analyse it."""

    name = "replay"
    item = "photons"

    def prepare(self):
        self.cfg = timetag.read_config(self.inputs / "run.cfg")
        self.path = self.inputs / "timetags.csv"
        self.items_per_op = self.path.read_bytes().count(b"\n") - 1

    def run(self, i):
        tags = timetag.read_timetags(self.path)
        h5 = timetag.histogram(tags, 5, self.cfg)
        h20 = timetag.histogram(tags, 20, self.cfg)
        windows = timetag.window_counts(h5, self.cfg)
        sep = timetag.peak_separation(h5)
        rate = timetag.count_rate(tags, self.cfg)
        return len(tags), h5, h20, windows, sep, rate

    def check(self, i, out):
        n, h5, h20, windows, sep, rate = out
        errors = []
        if n != self.items_per_op:
            errors.append(f"op {i}: read {n} of {self.items_per_op} rows")
        for h in (h5, h20):
            if h.counts.sum() != n:
                errors.append(f"op {i}: {h.bin_ns} ns histogram holds {h.counts.sum()} of {n}")
        if abs(sep - self.cfg.delay) > PEAK_TOLERANCE_NS:
            errors.append(f"op {i}: peak separation {sep:.2f} ns, delay {self.cfg.delay} ns")
        summary = h5.counts.tobytes() + h20.counts.tobytes() + repr((windows, sep, rate)).encode()
        return errors + self.same_as_before(0, hashlib.sha256(summary).hexdigest())


class Scan(Workload):
    """Three detuning scans and a power scan of `cascfluor ratio`."""

    name = "scan"
    item = "ratio points"
    DETUNING_S0 = (0.4, 2.5, 8.0)
    JITTER = 0.02  # seeded relative spread of the filter's alpha and width

    def prepare(self):
        self.points = 11 if self.small else 121
        self.items_per_op = self.points * (len(self.DETUNING_S0) + 1)
        self.every = 2 if self.small else 20  # the model_err subset
        rng = np.random.default_rng(self.variants)
        self.filters = [
            dict(REFERENCE_FILTER,
                 alpha=REFERENCE_FILTER["alpha"] * (1 + rng.uniform(-self.JITTER, self.JITTER)),
                 width=REFERENCE_FILTER["width"] * (1 + rng.uniform(-self.JITTER, self.JITTER)))
            for _ in range(VARIANTS)
        ]
        gamma = cascfluor.DEFAULT_GAMMA_MHZ
        points = []
        for f in self.filters:
            filt = [f["alpha"], f["width"], f["shift"], f["path_efficiency"], gamma]
            for s0 in self.DETUNING_S0:
                points += [[s0, float(d), *filt] for d in self.subset(-30.0, 30.0)]
            points += [[float(s0), 0.0, *filt] for s0 in self.subset(0.05, 10.0)]
        ref = np.array(reference_ratios(points))
        self.reference = ref.reshape(VARIANTS, len(self.DETUNING_S0) + 1, -1)
        self.worst = 0.0

    def subset(self, start, stop):
        return np.linspace(start, stop, self.points)[::self.every]

    def scans(self):
        for s0 in self.DETUNING_S0:
            yield f"s0_{s0:g}", ["--scan", "detuning", "--s0", s0]
        yield "power", ["--scan", "power", "--start", 0.05, "--stop", 10.0]

    def run(self, i):
        f = self.filters[i % VARIANTS]
        return [cli(["ratio", *args, "--points", self.points, "--alpha", repr(f["alpha"]),
                     "--width", repr(f["width"]), "--out", self.op_dir(i) / tag])
                for tag, args in self.scans()]

    def check(self, i, out):
        f = self.filters[i % VARIANTS]
        errors = []
        for k, ((tag, _), code) in enumerate(zip(self.scans(), out)):
            if code != 0:
                errors.append(f"op {i}: ratio scan {tag} exited {code}")
                continue
            _, cols = cascfluor.cli.read_table(self.op_dir(i) / tag / "ratio.csv")
            ratio = cols["ratio"]
            if not np.all((ratio > 0) & (ratio <= f["path_efficiency"])):
                errors.append(f"op {i}: scan {tag} has a ratio outside (0, efficiency]")
            if tag != "power" and not np.all(np.abs(ratio[[0, -1]] - 0.90) <= 0.03):
                errors.append(f"op {i}: scan {tag} ratio at 30 MHz is {ratio[[0, -1]]}")
            err = np.max(np.abs(ratio[::self.every] - self.reference[i % VARIANTS, k]))
            self.worst = max(self.worst, float(err))
        return errors + self.same_as_before(i, digest(self.op_dir(i)))

    def model_err(self):
        return self.worst


class Refit(Workload):
    """fig3 and fig4a reproductions, a cascade fit of the fig4a points and a
    bootstrapped Lorentzian fit."""

    name = "refit"
    item = "fits"
    REPORTS = ("fig3_refit.csv", "fig4a_refit.csv",
               "fit_cascade/fit_report.csv", "fit_lorentzian/fit_report.csv")

    def prepare(self):
        self.items_per_op = len(self.REPORTS)
        self.bootstrap = 5 if self.small else 50

    def run(self, i):
        d, seed = self.op_dir(i), self.variants[i % VARIANTS]
        return [
            cli(["reproduce", "fig3", "--seed", seed, "--out", d]),
            cli(["reproduce", "fig4a", "--seed", seed, "--out", d]),
            cli(["fit", "cascade", "--original", d / "fig4a_points_original.csv",
                 "--cascaded", d / "fig4a_points_cascaded.csv", "--scan", "detuning",
                 "--s0", 0.4, "--fix-efficiency", 0.9, "--out", d / "fit_cascade"]),
            cli(["fit", "lorentzian", "--data", self.inputs / f"line_{i % VARIANTS}.csv",
                 "--bootstrap", self.bootstrap, "--out", d / "fit_lorentzian"]),
        ]

    def check(self, i, out):
        errors = [f"op {i}: call {k} exited {code}" for k, code in enumerate(out) if code]
        for report in self.REPORTS:
            path = self.op_dir(i) / report
            if not path.exists() or not fit.read_report_csv(path).converged:
                errors.append(f"op {i}: {report} is missing or not converged")
        if i == 0:
            errors += self.closure()
        return errors + self.same_as_before(i, digest(self.op_dir(i)))

    @staticmethod
    def closure() -> list[str]:
        """A noiseless fig4a-style detuning scan refits to its true filter."""
        x = np.linspace(-25.0, 25.0, 21)
        s0 = 0.4
        drives = [cascfluor.DriveParams(s0, float(d)) for d in x]
        original = 1000.0 / (1.0 + 4.0 * (x / 10.0) ** 2) + 50.0
        cascaded = fit.cascade_model_counts(drives, original, **REFERENCE_FILTER)
        result = fit.fit_cascade(fit.DataSeries(x, original), fit.DataSeries(x, cascaded),
                                 scan="detuning", s0=s0,
                                 fix_efficiency=REFERENCE_FILTER["path_efficiency"])
        return [f"noiseless closure: {k} = {result.params[k]!r}, true {v}"
                for k, v in REFERENCE_FILTER.items()
                if not abs(result.params[k] - v) <= 1e-6 * max(abs(v), 1.0)]


WORKLOADS = {w.name: w for w in (Acquire, Replay, Scan, Refit)}
