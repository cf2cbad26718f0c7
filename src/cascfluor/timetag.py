"""Monte Carlo photon time tags for the pulsed acquisition protocol.

One run is one atom cloud: a train of excitation pulses, photons emitted
into the fiber either toward the detector (original fluorescence) or toward
the mirror (detected later as cascaded fluorescence, thinned by the cascade
transmission), time-tagged on a coarse clock and truncated at a photon cap.
Includes folded histogramming, windowed peak counting, count-rate
estimation, and plain-text I/O for time tags and run configuration.
"""

from __future__ import annotations

import contextlib
import math
import os
import typing
from dataclasses import dataclass, fields

import numpy as np

from .table import ParseError, parse_field, read_lines, read_records, write_blocks, write_lines

# Cs excited-state lifetime; sets the exponential emission lag after a
# pulse and the decay tail of each histogram peak.
CS_LIFETIME_NS = 30.4

# A capped run draws the photons of its first pulses, as many as make the
# expected detections exceed the cap by this many times sqrt(cap)
# (simulate_run). Measured: 0 of 24,000 default runs are drawn again in
# full, and 1 of 24,000 at ratio_model 0, where half the photons are lost
# (at ratio_model 0, a margin of 2 redraws 2 of 1,320 runs and 1 redraws 95).
PREFIX_MARGIN = 3.0

# Most values a run may draw at its expected counts: one pair count per
# pulse, two emission times per pair and the background (RunConfig). An
# uncapped run of 1.5 million draws peaked at about 26 bytes per draw, so
# about 260 MB at the limit; the largest runs the tests and the benchmark
# make draw 1.65 million.
MAX_RUN_DRAWS = 10_000_000

# Most values all runs of an acquisition may draw at their expected counts,
# runs x (a run's draws + RUN_FIXED_DRAWS) (RunConfig). simulate holds one
# run and one written block at a time, so this bounds the time and the
# time-tag file, not memory. Uncapped acquisitions of 1.2 and 3 million
# draws took 0.07-0.11 s and wrote 6.9-9.3 MB per million draws (2-vCPU
# host, numpy 2.4), so 7-11 s and 0.7-0.9 GB at the limit; capped runs draw
# and write less. A run also costs about 50 us whatever it draws (20,000
# one-pulse runs), far more than the RUN_FIXED_DRAWS it counts for, so runs
# of a few pulses reach the limit at about 7 million runs and 6 minutes.
# The largest acquisition configs in the tests count 36 million (120 runs
# of 100,000 pulses, of which they simulate one), the default 721,440.
MAX_ACQUISITION_DRAWS = 100_000_000
RUN_FIXED_DRAWS = 12

TIMETAG_HEADER = "run_id,arrival_ns"
# One row per detected photon; arrival is in ns since run start.
TIMETAG_DTYPE = np.dtype([("run_id", np.int64), ("arrival", np.int64)])


@dataclass(frozen=True)
class RunConfig:
    """Acquisition settings for one simulated dataset.

    Times are in ns. mean_photons_per_pulse is the expected number of
    detected original photons per pulse; ratio_model is the cascade
    transmission fraction applied to mirror-path photons;
    background_rate is in dark counts per microsecond. A positive
    heating_tau_pulses makes the per-pulse mean decay exponentially with
    that constant (in pulses), mimicking probe heating; zero disables it.
    """

    pulse_length: int = 150
    pulse_period: int = 600
    pulses_per_run: int = 2000
    runs: int = 120
    tick: int = 5
    delay: int = 310
    window: int = 180
    cap: int = 1500
    mean_photons_per_pulse: float = 1.0
    ratio_model: float = 0.9
    background_rate: float = 0.0
    heating_tau_pulses: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _INT64.min <= value <= _INT64.max:
                raise ValueError(f"{name} must fit int64, got {value}")
        if self.tick <= 0 or self.pulse_period % self.tick != 0:
            raise ValueError(
                f"tick ({self.tick} ns) must divide the pulse period "
                f"({self.pulse_period} ns) evenly"
            )
        if not 0 < self.pulse_length < self.pulse_period:
            raise ValueError("pulse length must lie inside the pulse period")
        if self.window > self.delay:
            raise ValueError(
                f"analysis window ({self.window} ns) may not exceed the "
                f"cascade delay ({self.delay} ns); the peaks would overlap"
            )
        if self.pulses_per_run <= 0 or self.runs <= 0 or self.cap <= 0:
            raise ValueError("pulses_per_run, runs and cap must be positive")
        if self.delay < 0 or self.window <= 0:
            raise ValueError("delay must be >= 0 and window > 0")
        for name in ("mean_photons_per_pulse", "background_rate", "heating_tau_pulses"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.ratio_model <= 1.0:
            raise ValueError(f"ratio_model must be in [0, 1], got {self.ratio_model}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        draws = self.pulses_per_run * (1 + 2 * self.mean_photons_per_pulse
                                       + self.background_rate * self.pulse_period / 1000)
        if draws > MAX_RUN_DRAWS:
            raise ValueError(
                f"a run would draw about {draws:.3g} values, more than MAX_RUN_DRAWS = "
                f"{MAX_RUN_DRAWS}: pulses_per_run x (1 + 2 x mean_photons_per_pulse + "
                f"background_rate x pulse_period / 1000)")
        if self.runs * (draws + RUN_FIXED_DRAWS) > MAX_ACQUISITION_DRAWS:
            raise ValueError(
                f"an acquisition would draw about {self.runs * (draws + RUN_FIXED_DRAWS):.3g} "
                f"values, more than MAX_ACQUISITION_DRAWS = {MAX_ACQUISITION_DRAWS}: runs x "
                f"(pulses_per_run x (1 + 2 x mean_photons_per_pulse + background_rate x "
                f"pulse_period / 1000) + RUN_FIXED_DRAWS = {RUN_FIXED_DRAWS})")


# int fields are read, and must fit, as int64 (read_config)
_INT_FIELDS = tuple(k for k, v in typing.get_type_hints(RunConfig).items() if v is int)
_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class Histogram:
    """Arrival-time histogram folded modulo the pulse period."""

    bin_starts: np.ndarray
    counts: np.ndarray
    bin_ns: int
    period_ns: int


def simulate_run(cfg: RunConfig, run_id: int = 0) -> np.ndarray:
    """Simulate the detected photons of one atom cloud.

    Per pulse, a Poisson number of photon pairs is emitted with the
    configured mean; each photon independently heads toward the detector or
    the mirror with probability 1/2. Emission times are uniform over the
    pulse plus an exponential lag of one lifetime, so the histogram peak
    rises across the pulse and decays after it. Mirror-path photons survive
    with probability ratio_model and arrive one round-trip delay later.
    Arrivals are floored to the tick; the TIMETAG_DTYPE array is time-ordered
    and truncated at the cap. Deterministic for a fixed (cfg.seed, run_id).

    The cap keeps photons of the first pulses only, so the per-photon
    values of the later pulses are skipped rather than drawn: the
    generator is advanced past their uniform emission times and their two
    detection variates, which take one 64-bit word per value. The pair
    counts, the exponential lags (a variable number of words each) and
    the background are drawn in full. So the stream, and every output, is
    the one a draw of every photon gives. When the first pulses cannot be
    shown to hold the cap earliest arrivals, the run is drawn again in
    full; an uncapped run, or one whose cap its pair counts cannot reach,
    is drawn in full at once.
    """
    detected = _cap_earliest(cfg, run_id, prefix=True)
    if detected is None:
        detected = _cap_earliest(cfg, run_id, prefix=False)
    detected.sort()
    ticks = detected.astype(np.int64)  # the floor, as every arrival is >= 0
    ticks //= cfg.tick
    ticks *= cfg.tick
    tags = np.empty(len(ticks), TIMETAG_DTYPE)
    tags["run_id"] = run_id
    tags["arrival"] = ticks
    return tags


def _cap_earliest(cfg: RunConfig, run_id: int, prefix: bool) -> np.ndarray | None:
    """The cap earliest detected arrivals of one run (all of them if fewer),
    unordered. With prefix set, only the photons of the first k pulses are
    drawn, k enough for PREFIX_MARGIN, and None is returned unless the
    cap-th earliest of them and the background precedes pulse k: every
    photon of a later pulse arrives at or after its start."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(run_id,))
    )
    means = cfg.mean_photons_per_pulse
    if cfg.heating_tau_pulses > 0:
        means = means * np.exp(-np.arange(cfg.pulses_per_run) / cfg.heating_tau_pulses)
    # a scalar mean draws the same stream as an array of it, and faster
    pairs = rng.poisson(means, cfg.pulses_per_run)
    photons = np.zeros(cfg.pulses_per_run + 1, np.int64)  # [k]: emitted by pulses < k
    np.cumsum(2 * pairs, out=photons[1:])
    n = int(photons[-1])
    k = cfg.pulses_per_run
    if prefix:
        detected_share = 0.5 + 0.5 * cfg.ratio_model
        need = (cfg.cap + PREFIX_MARGIN * math.sqrt(cfg.cap)) / detected_share
        k = min(int(np.searchsorted(photons, need)), k)
    m = int(photons[k])

    arrival = rng.uniform(0.0, cfg.pulse_length, m)
    rng.bit_generator.advance(n - m)
    arrival += rng.exponential(CS_LIFETIME_NS, n)[:m]
    toward_detector = rng.random(m) < 0.5
    rng.bit_generator.advance(n - m)
    survives_cascade = rng.random(m) < cfg.ratio_model
    rng.bit_generator.advance(n - m)
    arrival += np.repeat(np.arange(k, dtype=np.int64) * cfg.pulse_period, 2 * pairs[:k])
    arrival += cfg.delay * ~toward_detector  # adding 0.0 keeps the value
    detected = arrival[toward_detector | survives_cascade]

    total_ns = cfg.pulses_per_run * cfg.pulse_period
    n_bg = rng.poisson(cfg.background_rate * total_ns / 1000.0)
    if n_bg:
        detected = np.concatenate([detected, rng.uniform(0.0, total_ns, n_bg)])

    # flooring is monotone, so the cap earliest arrivals give the cap earliest ticks
    if len(detected) > cfg.cap:
        detected = np.partition(detected, cfg.cap - 1)[: cfg.cap]
    if k == cfg.pulses_per_run or (
            len(detected) == cfg.cap and detected.max() < k * cfg.pulse_period):
        return detected
    return None


def histogram(tags: np.ndarray, bin_ns: int, cfg: RunConfig) -> Histogram:
    """Fold arrivals modulo the pulse period and bin them.

    The bin width must be a multiple of the tick. With enough photons the
    two peak maxima sit one cascade delay apart.
    """
    if bin_ns <= 0 or bin_ns % cfg.tick != 0:
        raise ValueError(
            f"bin ({bin_ns} ns) must be a positive multiple of the tick ({cfg.tick} ns)"
        )
    n_bins = -(-cfg.pulse_period // bin_ns)  # ceil
    folded = (tags["arrival"] % cfg.pulse_period) // bin_ns
    counts = np.bincount(folded, minlength=n_bins)
    starts = np.arange(n_bins, dtype=np.int64) * bin_ns
    return Histogram(starts, counts, bin_ns, cfg.pulse_period)


def peak_separation(hist: Histogram) -> float:
    """Spacing of the two folded peaks in ns.

    The emission profile saturates toward the pulse end, so the top of each
    peak is flat to a fraction of a percent and the raw argmax bin wanders
    with counting noise. The circular histogram is instead cut at the two
    count minima between the coarse peak positions (where the mass is
    negligible, so the cut placement barely matters) and each peak is
    located by the centroid of its segment. The two peaks share one shape,
    so the centroid spacing equals the cascade delay, stable to about a bin
    from 1e4 photons up. The forward/backward ambiguity is resolved by
    taking the heavier peak as the original one and measuring forward from
    it, since the cascaded peak is the attenuated copy arriving later.
    """
    counts = hist.counts.astype(float)
    # with no negative count, each peak's segment holds its peak's count
    negative = np.flatnonzero(counts < 0)
    if len(negative):
        i = int(negative[0])
        raise ValueError(f"histogram count must be >= 0, got {hist.counts[i]} in bin {i}")
    if counts.sum() == 0:
        raise ValueError("peak separation is undefined for an empty histogram")
    n_bins = len(counts)
    period = hist.period_ns
    starts = hist.bin_starts

    first = int(np.argmax(counts))
    rel = (starts - starts[first] + period / 2) % period - period / 2
    away = np.abs(rel) > period / 4
    if not away.any() or counts[away].sum() == 0:
        raise ValueError("no second peak in the histogram")
    second = int(np.where(away)[0][int(np.argmax(counts[away]))])

    def valley_between(a: int, b: int) -> int:
        gap = (b - a) % n_bins
        if gap < 2:
            raise ValueError("peaks are not separated")
        idx = (a + 1 + np.arange(gap - 1)) % n_bins
        return int(idx[int(np.argmin(counts[idx]))])

    cut_ab = valley_between(first, second)
    cut_ba = valley_between(second, first)

    def centroid_and_mass(cut_from: int, cut_to: int) -> tuple[float, float]:
        length = (cut_to - cut_from) % n_bins
        idx = (cut_from + np.arange(length)) % n_bins
        mass = counts[idx].sum()
        pos = starts[cut_from] + np.arange(length) * hist.bin_ns
        center = float((pos * counts[idx]).sum() / mass) % period
        return center, float(mass)

    c1, m1 = centroid_and_mass(cut_ba, cut_ab)
    c2, m2 = centroid_and_mass(cut_ab, cut_ba)
    original, cascaded = (c1, c2) if m1 >= m2 else (c2, c1)
    return (cascaded - original) % period


def window_counts(hist: Histogram, cfg: RunConfig) -> tuple[int, int]:
    """Sum the histogram inside the two analysis windows.

    Windows are anchored at the leading edge of each peak, which for this
    emission model is the pulse start (original) and one cascade delay
    later (cascaded): [0, window) and [delay, delay + window). A bin counts
    toward a window when its start lies inside. Windows must be disjoint
    and must not wrap past the period.
    """
    if cfg.delay + cfg.window > cfg.pulse_period:
        raise ValueError(
            "cascaded window wraps past the pulse period; shrink the window"
        )
    starts = hist.bin_starts
    original = int(hist.counts[(starts >= 0) & (starts < cfg.window)].sum())
    cascaded = int(
        hist.counts[(starts >= cfg.delay) & (starts < cfg.delay + cfg.window)].sum()
    )
    return original, cascaded


def count_rate(tags: np.ndarray, cfg: RunConfig) -> float:
    """Detected photons (capped) divided by the arrival time of the last
    counted photon, in counts per microsecond."""
    if len(tags) == 0:
        raise ValueError("count rate is undefined for an empty set of time tags")
    arrival = tags["arrival"]
    n = min(len(arrival), cfg.cap)
    # the n-th earliest arrival, without sorting them all
    last = arrival.max() if n == len(arrival) else np.partition(arrival, n - 1)[n - 1]
    last_us = last / 1000.0
    if last_us <= 0:
        raise ValueError("count rate is undefined when the last photon is at t = 0")
    return n / last_us


def write_timetags(path, tags) -> None:
    """Write time tags as a table of integers with header run_id,arrival_ns:
    one TIMETAG_DTYPE array, or an iterable of them, such as the runs of an
    acquisition, each written as it is drawn. The file is written to
    path + ".partial" and renamed to path after its last array; if drawing
    or writing any of it raises, that file is removed and path is left as
    it was, never truncated."""
    tags = [tags] if isinstance(tags, np.ndarray) else tags
    partial = f"{os.fspath(path)}.partial"
    try:
        write_blocks(partial, TIMETAG_HEADER.split(","),
                     ((run["run_id"], run["arrival"]) for run in tags))
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


def read_timetags(path) -> np.ndarray:
    """Read time tags written by write_timetags into a TIMETAG_DTYPE array;
    metadata or a negative value is a ParseError at its line."""
    _, rows = read_records(path, (TIMETAG_HEADER,), np.int64, "time tags take no metadata lines",
                           (lambda d: d.min(initial=0) < 0, "negative run_id or arrival_ns"))
    return rows.view(TIMETAG_DTYPE)


def read_config(path) -> RunConfig:
    """Read a key = value config file mirroring RunConfig field names; each
    value obeys the tables' field rule (table.parse_field)."""
    types = typing.get_type_hints(RunConfig)
    values: dict[str, object] = {}
    for lineno, raw in read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
        key, _, value = (s.strip() for s in line.partition("="))
        if key not in types or key in values:
            raise ParseError(f"{path}:{lineno}: unknown or repeated config key '{key}'")
        dtype = np.int64 if types[key] is int else float
        try:
            values[key] = types[key](parse_field(value, path, lineno, dtype))
        except ParseError as exc:
            raise ParseError(f"{exc} for '{key}'") from None
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_config(path, cfg: RunConfig) -> None:
    """Write a config file readable by read_config."""
    write_lines(path, (f"{fld.name} = {getattr(cfg, fld.name)}" for fld in fields(RunConfig)))
