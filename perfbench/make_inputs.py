"""Generate one workload's inputs in a fresh process; its wall time is setup_s.

    python3 perfbench/make_inputs.py WORKLOAD SEED OUT_DIR [--small]

The harness runs this script with `src` on PYTHONPATH, several times per run,
and times each process from start to exit: interpreter start, the import of
`cascfluor.cli` and the package calls that write the inputs. Running it in a
child keeps the set-up's memory out of the workload process's peak RSS.
After writing, the child times the calibration kernel on the CPU it ran on
and prints that time; the harness takes it out of the child's wall time.
The harness imports the same module for the sizes and seeds it shares.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import cascfluor.cli  # noqa: F401  (in the child, this import is part of setup_s)
from cascfluor import fit, timetag

from calibration import calibrate

# Input variants per run: op i uses variant i % VARIANTS, so every op after
# the first VARIANTS repeats an earlier op's inputs and must write the same
# bytes. Eight, because a refit op's cost depends on its data, and a run's
# median should not hang on a few seeds.
VARIANTS = 8

# replay: one uncapped run of about 300k photons (about 1.9 detected photons
# per pulse at the default mean).
REPLAY_PULSES = {False: 158_000, True: 4_000}
# refit: the seeded Lorentzian line that `fit lorentzian --bootstrap` fits.
LINE_POINTS = 81
LINE_NOISE = 2.0


def variant_seeds(seed: int) -> list[int]:
    """The per-variant seeds of a run, derived from the run seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, VARIANTS)]


def line_series(seed: int) -> fit.DataSeries:
    """An 81-point Lorentzian line with Gaussian noise and error bars."""
    rng = np.random.default_rng(seed)
    x = np.linspace(-20.0, 20.0, LINE_POINTS)
    y = fit.lorentzian(x, rng.uniform(-2.0, 2.0), rng.uniform(5.0, 9.0), 100.0, 5.0)
    y = y + rng.normal(0.0, LINE_NOISE, x.size)
    return fit.DataSeries(x, y, np.full(x.size, LINE_NOISE))


def write_inputs(workload: str, seed: int, out: Path, small: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "acquire":
        # the default acquisition: 120 runs x 2000 pulses, cap 1500
        cfg = timetag.RunConfig(runs=4) if small else timetag.RunConfig()
        timetag.write_config(out / "run.cfg", cfg)
    elif workload == "replay":
        cfg = timetag.RunConfig(pulses_per_run=REPLAY_PULSES[small], runs=1,
                                cap=10**9, seed=seed)
        timetag.write_config(out / "run.cfg", cfg)
        timetag.write_timetags(out / "timetags.csv", timetag.simulate_run(cfg))
    elif workload == "refit":
        for j, v in enumerate(variant_seeds(seed)):
            fit.write_series(out / f"line_{j}.csv", line_series(v))
    elif workload != "scan":  # scan's inputs are command-line arguments
        raise ValueError(f"unknown workload '{workload}'")


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), "--small" in sys.argv[4:])
    print(calibrate())
