"""Time-tag Monte Carlo, histogramming, windows, rates and file formats."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cascfluor import timetag
from cascfluor.cascade import AbsorptionProfile
from cascfluor.timetag import (
    ParseError,
    TIMETAG_DTYPE,
    RunConfig,
    count_rate,
    histogram,
    peak_separation,
    read_config,
    read_timetags,
    simulate_run,
    window_counts,
    write_config,
    write_timetags,
)
from cascfluor.cascade import ratio_curve
from reference_timetag import reference_run


def record_passes(monkeypatch):
    """The prefix flag of each pass simulate_run makes from now on."""
    passes = []
    draw = timetag._cap_earliest

    def recorded(cfg, run_id, prefix):
        passes.append(prefix)
        return draw(cfg, run_id, prefix)

    monkeypatch.setattr(timetag, "_cap_earliest", recorded)
    return passes


def run0(arrivals):
    """Time tags of run 0 at the given arrivals."""
    return np.array([(0, a) for a in arrivals], dtype=TIMETAG_DTYPE)


class TestRunConfig:
    def test_defaults_follow_protocol(self):
        cfg = RunConfig()
        assert (cfg.pulse_length, cfg.pulse_period) == (150, 600)
        assert (cfg.pulses_per_run, cfg.runs) == (2000, 120)
        assert (cfg.tick, cfg.delay, cfg.window, cfg.cap) == (5, 310, 180, 1500)

    def test_tick_must_divide_period(self):
        with pytest.raises(ValueError):
            RunConfig(tick=7)

    def test_window_may_not_exceed_delay(self):
        with pytest.raises(ValueError):
            RunConfig(window=400)

    def test_pulse_inside_period(self):
        with pytest.raises(ValueError):
            RunConfig(pulse_length=600)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["mean_photons_per_pulse", "background_rate", "heating_tau_pulses"]
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("kwargs, message", [
        (dict(runs=0), "pulses_per_run, runs and cap must be positive"),
        (dict(window=0), "delay must be >= 0 and window > 0"),
        (dict(ratio_model=1.5), r"ratio_model must be in \[0, 1\], got 1.5"),
    ], ids=["no_runs", "no_window", "ratio_above_1"])
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig(**kwargs)

    def test_negative_seed_rejected(self):
        # numpy's SeedSequence would refuse it only when a run is simulated
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=-3)

    def test_seed_at_int64_max_round_trips(self, tmp_path):
        cfg = RunConfig(seed=2**63 - 1)
        write_config(tmp_path / "run.cfg", cfg)
        assert read_config(tmp_path / "run.cfg") == cfg

    @pytest.mark.parametrize("value", [2**63, -2**63 - 1], ids=["above", "below"])
    @pytest.mark.parametrize("field", timetag._INT_FIELDS)
    def test_int_fields_must_fit_int64(self, field, value):
        # read_config reads every int field as an int64
        with pytest.raises(ValueError, match=f"^{field} must fit int64, got {value}$"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("kwargs, draws", [
        (dict(pulses_per_run=2**40), "3.3e\\+12"),
        (dict(mean_photons_per_pulse=1e300), "4e\\+303"),
        (dict(mean_photons_per_pulse=1e308), "inf"),
        (dict(background_rate=1e9), "1.2e\\+12"),
    ], ids=["pulses", "mean", "mean_overflows", "background"])
    def test_run_draws_are_bounded(self, kwargs, draws):
        # refused when constructed, so nothing is drawn
        with pytest.raises(ValueError, match=(
                f"^a run would draw about {draws} values, more than MAX_RUN_DRAWS = "
                r"10000000: pulses_per_run x \(1 \+ 2 x mean_photons_per_pulse \+ "
                r"background_rate x pulse_period / 1000\)$")):
            RunConfig(**kwargs)

    def test_draw_limit_is_inclusive(self, monkeypatch):
        # the default run draws 2000 x (1 + 2 x 1.0) = 6000 values
        monkeypatch.setattr(timetag, "MAX_RUN_DRAWS", 6000)
        RunConfig()
        with pytest.raises(ValueError, match="MAX_RUN_DRAWS = 6000"):
            RunConfig(pulses_per_run=2001)

    @pytest.mark.parametrize("kwargs, count", [
        # 10**9 uncapped runs of 6000 draws each
        (dict(runs=10**9, cap=10**9), r"6\.01e\+12"),
        # 10**8 runs of one pulse that draw one value each, but hold about
        # 400 bytes each whatever they draw
        (dict(pulses_per_run=1, runs=10**8, mean_photons_per_pulse=0.0), r"1\.3e\+09"),
    ], ids=["dense_runs", "one_pulse_runs"])
    def test_acquisition_draws_are_bounded(self, kwargs, count):
        # refused when constructed, so no run is drawn and no row is held
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=(
                    rf"^an acquisition would draw about {count} values, more than "
                    r"MAX_ACQUISITION_DRAWS = 100000000: runs x \(pulses_per_run x \(1 \+ 2 x "
                    r"mean_photons_per_pulse \+ background_rate x pulse_period / 1000\) \+ "
                    r"RUN_FIXED_DRAWS = 12\)$")):
                RunConfig(**kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_acquisition_limit_is_inclusive(self, monkeypatch):
        # the default acquisition counts 120 x (6000 + 12) = 721,440 draws
        monkeypatch.setattr(timetag, "MAX_ACQUISITION_DRAWS", 721_440)
        RunConfig()
        monkeypatch.setattr(timetag, "MAX_ACQUISITION_DRAWS", 721_439)
        with pytest.raises(ValueError, match="about 7.21e\\+05 values, .* = 721439:"):
            RunConfig()

    def test_delay_consistency_with_fiber_length(self):
        # 2 x 32 m of fiber at group index 1.47 is a 313.8 ns round trip,
        # within two ticks of the configured delay
        round_trip_ns = 2 * 32.0 * 1.47 / 299792458.0 * 1e9
        cfg = RunConfig()
        assert abs(round_trip_ns - cfg.delay) <= 2 * cfg.tick


class TestSimulateRun:
    def test_zero_mean_gives_no_records(self):
        assert len(simulate_run(RunConfig(mean_photons_per_pulse=0.0))) == 0

    def test_deterministic_for_fixed_seed(self):
        cfg = RunConfig(mean_photons_per_pulse=0.6, seed=77)
        assert np.array_equal(simulate_run(cfg, 3), simulate_run(cfg, 3))

    def test_distinct_runs_differ(self):
        cfg = RunConfig(mean_photons_per_pulse=0.6, seed=77)
        assert not np.array_equal(simulate_run(cfg, 0), simulate_run(cfg, 1))

    def test_cap_enforced_exactly(self):
        # ~2850 detected photons expected, well past the 1500 cap
        cfg = RunConfig(mean_photons_per_pulse=0.75, seed=5)
        tags = simulate_run(cfg)
        assert len(tags) == cfg.cap

    def test_records_quantized_and_ordered(self):
        cfg = RunConfig(mean_photons_per_pulse=0.3, seed=11)
        tags = simulate_run(cfg, 2)
        arrivals = tags["arrival"]
        assert tags.dtype == TIMETAG_DTYPE
        assert np.all(arrivals % cfg.tick == 0)
        assert np.all(arrivals >= 0)
        assert np.array_equal(arrivals, np.sort(arrivals))
        assert np.all(tags["run_id"] == 2)

    def test_detected_mean_tracks_configuration(self):
        cfg = RunConfig(
            mean_photons_per_pulse=0.2, ratio_model=0.8, cap=10**9, seed=21
        )
        tags = simulate_run(cfg)
        expected = cfg.pulses_per_run * cfg.mean_photons_per_pulse * (1 + 0.8)
        assert len(tags) == pytest.approx(expected, rel=0.1)

    def test_background_only(self):
        cfg = RunConfig(
            mean_photons_per_pulse=0.0, background_rate=0.5, seed=9, cap=10**9
        )
        tags = simulate_run(cfg)
        total_us = cfg.pulses_per_run * cfg.pulse_period / 1000.0
        assert len(tags) == pytest.approx(0.5 * total_us, rel=0.15)

    def test_heating_decay_shifts_counts_early(self):
        cfg = RunConfig(
            mean_photons_per_pulse=0.5, heating_tau_pulses=300.0, seed=4, cap=10**9
        )
        tags = simulate_run(cfg)
        half_ns = cfg.pulses_per_run * cfg.pulse_period / 2
        early = np.count_nonzero(tags["arrival"] < half_ns)
        assert early > 0.9 * len(tags)

    @pytest.mark.parametrize("settings", [
        pytest.param({}, id="default"),
        pytest.param({"background_rate": 50.0}, id="background"),
        pytest.param({"heating_tau_pulses": 400.0, "tick": 3}, id="heating_tick3"),
        pytest.param({"tick": 1}, id="tick1"),
        pytest.param({"cap": 1}, id="cap1"),
        pytest.param({"cap": 10**9}, id="uncapped"),
        pytest.param({"mean_photons_per_pulse": 0.0}, id="mean0"),
        pytest.param({"mean_photons_per_pulse": 0.01}, id="mean_0.01"),
        pytest.param({"ratio_model": 0.0}, id="ratio0"),
        pytest.param({"ratio_model": 1.0}, id="ratio1"),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 123])
    def test_bit_identical_to_the_reference(self, settings, seed):
        cfg = RunConfig(seed=seed, **settings)
        for run_id in (0, 7, 119):
            tags = simulate_run(cfg, run_id)
            expected = reference_run(cfg, run_id)
            assert tags.dtype == expected.dtype
            assert tags.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("settings", [
        pytest.param({}, id="default"),
        pytest.param({"background_rate": 50.0}, id="background"),
        pytest.param({"heating_tau_pulses": 2000.0}, id="heating"),
        pytest.param({"cap": 1}, id="cap1"),
    ])
    def test_full_redraw_is_bit_identical_to_the_reference(self, settings, monkeypatch):
        # an empty prefix never holds the cap, so every run is drawn twice
        monkeypatch.setattr(timetag, "PREFIX_MARGIN", -math.inf)
        passes = record_passes(monkeypatch)
        cfg = RunConfig(seed=5, **settings)
        for run_id in (0, 7, 119):
            assert simulate_run(cfg, run_id).tobytes() == reference_run(cfg, run_id).tobytes()
        assert passes == [True, False] * 3

    @pytest.mark.parametrize("settings", [
        pytest.param({}, id="default"),
        # mirror photons of the prefix's last pulses arrive after later pulses start
        pytest.param({"delay": 700, "ratio_model": 1.0}, id="delay_past_period"),
    ])
    def test_prefix_at_the_edge_is_bit_identical_to_the_reference(self, settings,
                                                                  monkeypatch):
        # at margin 0 the prefix's expected detections are the cap, so
        # many runs keep the prefix and many are drawn again
        monkeypatch.setattr(timetag, "PREFIX_MARGIN", 0.0)
        passes = record_passes(monkeypatch)
        cfg = RunConfig(seed=2, **settings)
        for run_id in range(24):
            assert simulate_run(cfg, run_id).tobytes() == reference_run(cfg, run_id).tobytes()
        assert 0 < passes.count(False) < 24

    def test_default_runs_keep_their_prefix(self):
        cfg = RunConfig()
        assert all(timetag._cap_earliest(cfg, run_id, prefix=True) is not None
                   for run_id in range(cfg.runs))

    def test_bit_identical_to_the_reference_for_random_configs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ticks = [d for d in range(1, 601) if 600 % d == 0]

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            seed=st.integers(0, 2**63 - 1), run_id=st.integers(0, 10**6),
            mean=st.floats(0.0, 3.0), ratio=st.floats(0.0, 1.0),
            cap=st.integers(1, 5000), tick=st.sampled_from(ticks),
            delay=st.integers(180, 3000),
            background=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
            heating=st.one_of(st.just(0.0), st.floats(1.0, 5000.0)))
        def check(seed, run_id, mean, ratio, cap, tick, delay, background, heating):
            cfg = RunConfig(seed=seed, mean_photons_per_pulse=mean, ratio_model=ratio,
                            cap=cap, tick=tick, delay=delay, background_rate=background,
                            heating_tau_pulses=heating)
            assert simulate_run(cfg, run_id).tobytes() == reference_run(cfg, run_id).tobytes()

        check()


class TestHistogram:
    def test_empty_tags(self):
        cfg = RunConfig()
        hist = histogram(run0([]), 5, cfg)
        assert np.all(hist.counts == 0)
        assert len(hist.counts) == cfg.pulse_period // 5

    def test_bin_must_be_tick_multiple(self):
        with pytest.raises(ValueError):
            histogram(run0([]), 7, RunConfig())

    def test_folding(self):
        cfg = RunConfig()
        tags = run0([5, 605, 1210])
        hist = histogram(tags, 5, cfg)
        assert hist.counts[1] == 2  # 5 and 605 fold together
        assert hist.counts[2] == 1  # 1210 folds to 10

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_peak_separation_matches_delay(self, seed):
        # one-bin agreement from ~1e4 detected photons
        cfg = RunConfig(
            mean_photons_per_pulse=0.27, pulses_per_run=20000, cap=10**9, seed=seed
        )
        tags = simulate_run(cfg)
        assert len(tags) >= 10**4
        hist = histogram(tags, 5, cfg)
        assert abs(peak_separation(hist) - cfg.delay) <= 5

    def test_peak_separation_needs_two_peaks(self):
        cfg = RunConfig()
        lone = run0([50] * 10)
        with pytest.raises(ValueError):
            peak_separation(histogram(lone, 5, cfg))
        with pytest.raises(ValueError):
            peak_separation(histogram(run0([]), 5, cfg))

    def test_peak_separation_refuses_a_negative_count(self):
        # a hand-built histogram whose negative bin cancels its first peak's
        # segment: refused at the bin, not divided by a zero mass
        counts = np.zeros(120, dtype=np.int64)
        counts[[9, 10, 70]] = [-10, 10, 5]
        hist = timetag.Histogram(np.arange(120, dtype=np.int64) * 5, counts, 5, 600)
        with pytest.raises(ValueError, match="^histogram count must be >= 0, got -10 in bin 9$"):
            peak_separation(hist)

    def test_peak_separation_needs_a_bin_between_the_peaks(self):
        # 300 ns bins fold the 600 ns period into two, with no valley
        hist = histogram(run0([0, 0, 300]), 300, RunConfig())
        with pytest.raises(ValueError, match="^peaks are not separated$"):
            peak_separation(hist)


class TestWindowCounts:
    def test_all_in_first_window(self):
        cfg = RunConfig()
        tags = run0(range(0, 180, 5))
        original, cascaded = window_counts(histogram(tags, 5, cfg), cfg)
        assert original == len(tags)
        assert cascaded == 0

    def test_wrapping_window_rejected(self):
        cfg = RunConfig(delay=500, window=150)
        with pytest.raises(ValueError):
            window_counts(histogram(run0([]), 5, cfg), cfg)

    def test_ratio_converges_to_ratio_model(self):
        cfg = RunConfig(
            mean_photons_per_pulse=1.0,
            pulses_per_run=100000,
            cap=10**9,
            ratio_model=0.9,
            seed=12,
        )
        tags = simulate_run(cfg)
        original, cascaded = window_counts(histogram(tags, 5, cfg), cfg)
        assert cascaded / original == pytest.approx(0.9, abs=0.02)

    def test_resonant_transmission_feeds_through(self):
        # route the modeled on-resonance transmission into the simulator
        prof = AbsorptionProfile(alpha=0.85, width=6.7, path_efficiency=0.9)
        resonant_ratio = ratio_curve([0.0], 0.4, prof, [1.0])[0]
        cfg = RunConfig(
            mean_photons_per_pulse=1.0,
            pulses_per_run=30000,
            cap=10**9,
            ratio_model=resonant_ratio,
            seed=8,
        )
        tags = simulate_run(cfg)
        original, cascaded = window_counts(histogram(tags, 5, cfg), cfg)
        assert cascaded / original < 0.6


class TestCountRate:
    def test_simple_division(self):
        cfg = RunConfig()
        tags = run0([5] * 1499 + [750000])
        assert count_rate(tags, cfg) == pytest.approx(2.0)

    @pytest.mark.parametrize("arrivals, message", [
        ([], "count rate is undefined for an empty set of time tags"),
        ([0, 0, 0], "count rate is undefined when the last photon is at t = 0"),
    ], ids=["empty", "all_at_zero"])
    def test_undefined_rejected(self, arrivals, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            count_rate(run0(arrivals), RunConfig())

    def test_invariant_beyond_cap(self):
        cfg = RunConfig()
        base = run0([5 * (i + 1) for i in range(cfg.cap)])
        extra = np.concatenate([base, run0([10**6, 2 * 10**6])])
        assert count_rate(base, cfg) == count_rate(extra, cfg)

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 40], ids=lambda n: f"{n}_tags_cap_10")
    def test_is_the_sorted_definition(self, n):
        # the cap-th earliest arrival, found without a full sort; arrivals
        # drawn from a few values, so they tie
        cfg = RunConfig(cap=10)
        rng = np.random.default_rng(n)
        for _ in range(20):
            arrivals = rng.integers(1, 30, n, dtype=np.int64)
            counted = np.sort(arrivals)[: cfg.cap]
            assert count_rate(run0(arrivals), cfg) == len(counted) / (counted[-1] / 1000.0)

    def test_rate_scales_with_mean(self):
        slow = RunConfig(mean_photons_per_pulse=0.5, seed=14)
        fast = RunConfig(mean_photons_per_pulse=1.0, seed=14)
        r_slow = count_rate(simulate_run(slow), slow)
        r_fast = count_rate(simulate_run(fast), fast)
        assert r_fast / r_slow == pytest.approx(2.0, rel=0.1)


class TestFileFormats:
    def test_timetag_roundtrip(self, tmp_path):
        cfg = RunConfig(mean_photons_per_pulse=0.2, seed=6)
        tags = simulate_run(cfg, 7)
        path = tmp_path / "tags.csv"
        write_timetags(path, tags)
        assert np.array_equal(read_timetags(path), tags)
        assert path.read_text().splitlines()[0] == "run_id,arrival_ns"

    def test_runs_write_as_their_concatenation(self, tmp_path):
        cfg = RunConfig(pulses_per_run=400, runs=30, seed=3)
        runs = [simulate_run(cfg, run_id) for run_id in range(cfg.runs)]
        write_timetags(tmp_path / "runs.csv", iter(runs))
        write_timetags(tmp_path / "one.csv", np.concatenate(runs))
        assert (tmp_path / "runs.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "runs.csv"]

    @pytest.mark.parametrize("failing_run", [0, 2, 9])
    def test_failed_runs_leave_the_file_as_it_was(self, tmp_path, failing_run):
        # run 9 fails after more than one block of rows is written
        cfg = RunConfig(runs=12, seed=4)
        path = tmp_path / "tags.csv"
        path.write_bytes(b"run_id,arrival_ns\n0,5\n")

        def runs():
            for run_id in range(cfg.runs):
                if run_id == failing_run:
                    raise ValueError(f"run {run_id} failed")
                yield simulate_run(cfg, run_id)

        with pytest.raises(ValueError, match=f"^run {failing_run} failed$"):
            write_timetags(path, runs())
        assert [p.name for p in tmp_path.iterdir()] == ["tags.csv"]
        assert path.read_bytes() == b"run_id,arrival_ns\n0,5\n"

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_timetag_header_only_reads_empty(self, tmp_path, body):
        path = tmp_path / "tags.csv"
        path.write_text("run_id,arrival_ns\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tags = read_timetags(path)
        assert tags.dtype == TIMETAG_DTYPE
        assert len(tags) == 0

    def test_timetag_bad_header(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("run,arrival\n0,5\n")
        with pytest.raises(ParseError):
            read_timetags(path)

    @pytest.mark.parametrize("body, lineno", [
        pytest.param("0,5\n0,abc\n", 3, id="non_integer"),
        pytest.param("0,5\n0,5.5\n", 3, id="float"),
        pytest.param("0,5,7\n", 2, id="three_fields"),
        pytest.param("0,5\n1,6\n0,5 # c\n", 4, id="comment"),
        pytest.param("0,5\n\n0,abc\n", 4, id="after_blank_line"),
        pytest.param("0,5\n   \n1,6\n", 3, id="whitespace_only"),
        pytest.param("0,5\n0,99999999999999999999\n", 3, id="beyond_int64"),
    ])
    def test_timetag_bad_row_reports_line(self, tmp_path, body, lineno):
        path = tmp_path / "tags.csv"
        path.write_text("run_id,arrival_ns\n" + body)
        with pytest.raises(ParseError, match=f":{lineno}:"):
            read_timetags(path)

    def test_timetag_float_row_rejected_with_warnings_ignored(self, tmp_path):
        # numpy versions that still parse "5.5" as an int64 through a float
        # only warn; the reader must reject the row whatever the filters say
        path = tmp_path / "tags.csv"
        path.write_text("run_id,arrival_ns\n0,5\n0,5.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError, match=":3:"):
                read_timetags(path)

    def test_timetag_underscore_digits_rejected(self, tmp_path):
        # int() accepts "1_000" but the array parser does not; the re-scan
        # must reject it too, to name the line
        path = tmp_path / "tags.csv"
        path.write_text("run_id,arrival_ns\n0,5\n0,1_000\n")
        with pytest.raises(ParseError, match=":3: .*1_000"):
            read_timetags(path)

    @pytest.mark.parametrize("digits", ["\u0663", "\uff15", "1\u0660"],
                             ids=["arabic_indic", "fullwidth", "mixed"])
    def test_timetag_non_ascii_digits_rejected(self, tmp_path, digits):
        path = tmp_path / "tags.csv"
        path.write_text(f"run_id,arrival_ns\n0,5\n0,{digits}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3:"):
            read_timetags(path)

    @pytest.mark.parametrize("field", [" 5", "5\t", "+5", "-5", "05", "\xa05", "5\x1c"])
    def test_timetag_padded_and_signed_integers_read(self, tmp_path, field):
        # what the array parser accepts must not trip the re-scan when a
        # later row is bad; a negative value is itself the first bad row
        path = tmp_path / "tags.csv"
        path.write_text(f"run_id,arrival_ns\n0,{field}\n0,abc\n", encoding="utf-8")
        match = ":2: negative" if field == "-5" else ":3: not an int64"
        with pytest.raises(ParseError, match=match):
            read_timetags(path)

    @pytest.mark.parametrize("body, lineno", [
        pytest.param("-1,-20\n", 2, id="both"),
        pytest.param("0,5\n-1,20\n", 3, id="run_id"),
        pytest.param("0,5\n\n1,-5\n0,-5\n", 4, id="arrival_after_blank_line"),
        pytest.param(f"0,5\n0,{-2**63}\n", 3, id="int64_min"),
    ])
    def test_timetag_negative_value_rejected_at_its_line(self, tmp_path, body, lineno):
        path = tmp_path / "tags.csv"
        path.write_text("run_id,arrival_ns\n" + body)
        with pytest.raises(ParseError, match=f":{lineno}: negative"):
            read_timetags(path)

    @pytest.mark.parametrize("body, lineno, error", [
        pytest.param("-1,5\n0,abc\n", 2, "negative", id="negative_then_non_integer"),
        pytest.param("0,5\n0,-5\n0,5.5\n0,abc\n", 3, "negative", id="after_good_row"),
        pytest.param("0,abc\n-1,5\n", 2, "not an int64", id="non_integer_then_negative"),
        pytest.param("-1,abc\n", 2, "not an int64", id="both_on_one_line"),
    ])
    def test_timetag_first_bad_line_is_named(self, tmp_path, body, lineno, error):
        # a negative value before an unparseable field is the first bad line
        path = tmp_path / "tags.csv"
        path.write_text("run_id,arrival_ns\n" + body)
        with pytest.raises(ParseError, match=f":{lineno}: {error}"):
            read_timetags(path)

    def test_timetag_metadata_rejected_at_line_1(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text("# k=1\nrun_id,arrival_ns\n0,5\n")
        with pytest.raises(ParseError, match=":1: "):
            read_timetags(path)

    def test_config_roundtrip(self, tmp_path):
        cfg = RunConfig(mean_photons_per_pulse=0.35, ratio_model=0.42, seed=99)
        path = tmp_path / "run.cfg"
        write_config(path, cfg)
        assert read_config(path) == cfg

    def test_config_partial_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# protocol tweaks\nmean_photons_per_pulse = 0.5\nseed = 3\n")
        cfg = read_config(path)
        assert cfg.mean_photons_per_pulse == 0.5
        assert cfg.seed == 3 and type(cfg.seed) is int
        assert cfg.pulse_period == 600

    def test_config_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pulse_len = 100\n")
        with pytest.raises(ParseError, match=":1:"):
            read_config(path)

    def test_config_repeated_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n# again\nseed = 2\n")
        with pytest.raises(ParseError, match="run.cfg:3: .*'seed'"):
            read_config(path)

    @pytest.mark.parametrize("line", ["runs = 5.0", "ratio_model = 0,5",
                                      "mean_photons_per_pulse = inf"])
    def test_config_value_error_names_line_and_key(self, tmp_path, line):
        # int and float fields follow the tables' field rule
        path = tmp_path / "run.cfg"
        path.write_text("# values\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"run.cfg:2: .* for '{line.split()[0]}'"):
            read_config(path)

    def test_config_invalid_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window = 400\n")
        with pytest.raises(ParseError):
            read_config(path)

    def test_config_non_finite_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("background_rate = nan\n")
        with pytest.raises(ParseError, match="background_rate"):
            read_config(path)

    def test_config_negative_seed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = -3\n")
        with pytest.raises(ParseError, match="run.cfg: seed must be >= 0"):
            read_config(path)
