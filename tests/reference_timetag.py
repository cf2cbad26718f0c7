"""Plain references for the time-tag generator and the integer table writer.

reference_run draws the whole stream, every value of every photon in the
order simulate_run takes them, and builds the arrivals with fresh arrays as
the model reads: it floors every photon to the tick as a float, sorts them
all and keeps the first cap. simulate_run draws only the photons of the
pulses that can hold the cap earliest arrivals and advances the generator
past the values of the rest, which the cap discards.
reference_write formats every field of every row with %d, one block of
rows at a time. The package floors only the cap earliest arrivals, in
int64, and formats the digits of integers in numpy, so it must match these
bit for bit and byte for byte.
"""

import numpy as np

from cascfluor.table import _WRITE_BLOCK_ROWS
from cascfluor.timetag import CS_LIFETIME_NS, TIMETAG_DTYPE


def reference_run(cfg, run_id=0):
    """simulate_run(cfg, run_id) from fresh arrays."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(run_id,))
    )
    means = np.full(cfg.pulses_per_run, cfg.mean_photons_per_pulse)
    if cfg.heating_tau_pulses > 0:
        means *= np.exp(-np.arange(cfg.pulses_per_run) / cfg.heating_tau_pulses)
    pairs = rng.poisson(means)
    n = int(2 * pairs.sum())

    pulse_start = np.repeat(
        np.arange(cfg.pulses_per_run, dtype=np.int64) * cfg.pulse_period, 2 * pairs
    )
    emit = rng.uniform(0.0, cfg.pulse_length, n) + rng.exponential(CS_LIFETIME_NS, n)
    toward_detector = rng.random(n) < 0.5
    survives_cascade = rng.random(n) < cfg.ratio_model
    arrival = pulse_start + emit + np.where(toward_detector, 0, cfg.delay)
    detected = arrival[toward_detector | survives_cascade]

    total_ns = cfg.pulses_per_run * cfg.pulse_period
    n_bg = rng.poisson(cfg.background_rate * total_ns / 1000.0)
    if n_bg:
        detected = np.concatenate([detected, rng.uniform(0.0, total_ns, n_bg)])

    ticks = (detected // cfg.tick).astype(np.int64) * cfg.tick
    ticks.sort()
    ticks = ticks[: cfg.cap]
    tags = np.empty(len(ticks), TIMETAG_DTYPE)
    tags["run_id"] = run_id
    tags["arrival"] = ticks
    return tags


def reference_write(path, columns):
    """write_table(path, columns) for integer columns: every field with %d."""
    arrays = [np.asarray(v) for v in columns.values()]
    row = ",".join(["%d"] * len(arrays)) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, len(arrays[0]), _WRITE_BLOCK_ROWS):
            block = np.column_stack([a[start:start + _WRITE_BLOCK_ROWS] for a in arrays])
            f.write((row * len(block)) % tuple(block.ravel().tolist()))
