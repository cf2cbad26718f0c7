"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import json
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import cascfluor  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def bench_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


@pytest.mark.parametrize("n, p, rank", [(100, 90, 90), (25, 60, 15), (20, 50, 10), (1000, 99, 990)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p, rank):
    samples = list(range(n, 0, -1))  # order must not matter
    assert run.tail_percentile(samples) == (p, rank)


def test_tail_falls_back_to_median_below_twenty_samples():
    assert run.tail_percentile([5.0, 1.0, 3.0]) == (50, 3.0)
    assert run.tail_percentile(range(19))[0] == 50


def test_op_cost_is_time_over_the_kernel_times_either_side(monkeypatch):
    kernel = iter([1.0, 3.0, 5.0, 7.0])
    clock = iter(range(100))
    monkeypatch.setattr(run, "calibrate", lambda: next(kernel))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    loop = run.Loop(None, cascfluor)
    times = iter([8.0, 12.0, 30.0])
    monkeypatch.setattr(loop, "op", lambda traced=False: next(times))
    _, _, costs = loop.run(seconds=0, block=3)[False]
    assert costs == [8.0 / 2.0, 12.0 / 4.0, 30.0 / 6.0]


def test_self_time_subtracts_the_children_only():
    spans = [
        ("outer", 0.0, 10.0, -1, 0, None),
        ("child", 1.0, 4.0, 0, 0, None),
        ("grandchild", 2.0, 3.0, 1, 0, None),
        ("child", 5.0, 6.0, 0, 0, None),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    totals = tracer.per_op_totals(spans, [0])[0]
    assert totals["child"] == {"calls": 2, "self_ms": 3000.0}


def test_tracer_nests_bootstrap_fits_and_counts_each_model_eval_once():
    x = np.linspace(-10.0, 10.0, 41)
    y = cascfluor.lorentzian(x, 0.5, 4.0, 10.0, 1.0) + 0.01 * np.cos(7 * x)
    t = tracer.Tracer()
    t.install(cascfluor)
    try:
        # fit and cascade import sample_spectrum by name: one wrapper everywhere
        assert cascfluor.fit.sample_spectrum is cascfluor.spectrum.sample_spectrum
        assert hasattr(cascfluor.fit.sample_spectrum, "__wrapped__")
        t.op = 0
        cascfluor.fit.fit_lorentzian(cascfluor.DataSeries(x, y), bootstrap=3)
        t.op = None
    finally:
        t.uninstall()
    assert cascfluor.fit.least_squares.__module__ == "cascfluor.fit"
    assert not hasattr(cascfluor.fit.least_squares, "__wrapped__")
    names = [s[tracer.NAME] for s in t.spans]
    fits = [k for k, n in enumerate(names) if n == "fit.least_squares"]
    assert len(fits) == 4
    assert all(t.spans[k][tracer.PARENT] == fits[0] for k in fits[1:])
    models = [s for s in t.spans if s[tracer.NAME] == "fit.model"]
    assert models and all(names[s[tracer.PARENT]] == "fit.least_squares" for s in models)
    assert all(own >= 0 for own in tracer.self_times(t.spans))
    assert tracer.layer_metrics(t.spans, [0])["fit.model.evals"]["value"] == len(models)


def test_a_failing_op_counts_in_the_error_rate(monkeypatch):
    real_run = workloads.Scan.run

    def run_failing_second_op(self, i):
        if i == 2:
            raise RuntimeError("forced failure")
        return real_run(self, i)

    monkeypatch.setattr(workloads.Scan, "run", run_failing_second_op)
    result, record = run.run_benchmark("scan", seed=0, seconds=0, trace=False, small=True)
    assert result["failed"] == 1 and result["correct"] is False
    assert result["metrics"]["success_rate"]["value"] == 1 - 1 / result["attempted"]
    assert record["error_rate"] == 1 / result["attempted"]
    assert "forced failure" in record["errors"][0]


def test_a_check_that_fails_counts_in_the_error_rate(monkeypatch):
    monkeypatch.setattr(workloads, "PEAK_TOLERANCE_NS", -1.0)
    result, _ = run.run_benchmark("replay", seed=0, seconds=0, trace=False, small=True)
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(name):
    result, record = run.run_benchmark(name, seed=0, seconds=0, trace=False, small=True)
    assert result["correct"], record["errors"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    traced, _ = run.run_benchmark(name, seed=0, seconds=0, trace=True, small=True)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    assert traced["metrics"]["trace.spans"]["value"] > 0
