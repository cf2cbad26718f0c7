"""cascfluor benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One process, one thread: each op
starts only after the previous one has finished and been checked. The
workload's inputs come from --seed and are written during set-up by
`make_inputs.py` in fresh processes. After one untimed warm-up op, ops run
for --seconds. A fixed calibration kernel (calibration.py) runs between
every two ops and at the end of every set-up child, so that items_per_s and
setup_s are taken in units of the host's speed at that moment.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 every second block of ops is traced, and the line carries the
per-layer metrics and the tracing overhead. The line before it is a record
of the run: machine, versions, sample count, median and tail latency and
errors. Spans and records are written to .bench_out/.
Exits 2 without a result if the package source is not next to perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibration import CAL_REFERENCE_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5

def tail_percentile(samples) -> tuple[int, float]:
    """(p, value): the highest integer percentile p >= 50 whose nearest-rank
    sample has at least ten samples beyond it. Below 20 samples no
    percentile qualifies and the median (p = 50) stands in."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


def timed_setup(workload: str, seed: int, root: Path,
                small: bool) -> tuple[Path, list[float], list[float], list[str]]:
    """Run make_inputs.py SETUP_REPS times; return (inputs dir, wall times,
    costs, errors). A wall time leaves out the calibration kernel that the
    child runs after its work; a cost is that wall time over the kernel's.

    Every repetition must write byte-identical inputs.
    """
    from workloads import digest

    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = [sys.executable, str(HERE / "make_inputs.py"), workload, str(seed)]
    # one untimed import first, so no timed repetition pays for bytecode compilation
    subprocess.run([sys.executable, "-c", "import cascfluor.cli"], env=env, check=True, timeout=120)
    times, costs, digests = [], [], []
    for r in range(SETUP_REPS):
        out = root / f"setup{r}"
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        proc = subprocess.run(child + [str(out)] + (["--small"] if small else []), env=env,
                              check=True, stdout=subprocess.PIPE, text=True)
        kernel = float(proc.stdout)
        times.append(time.perf_counter() - start - kernel)
        costs.append(times[-1] / kernel)
        digests.append(digest(out))
    errors = [] if len(set(digests)) == 1 else ["set-up: repeated set-ups wrote different inputs"]
    for r in range(1, SETUP_REPS):
        shutil.rmtree(root / f"setup{r}")
    return root / "setup0", times, costs, errors


class Loop:
    """Runs ops one after another and keeps their times and failures."""

    def __init__(self, workload, package, tracer=None):
        self.w = workload
        self.package = package
        self.tracer = tracer
        self.i = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, traced: bool = False) -> float:
        """Run and check op self.i; return its wall time in s."""
        i = self.i
        self.i += 1
        self.attempted += 1
        gc.collect()
        recording = self.tracer.recording(self.package, i) if traced else contextlib.nullcontext()
        with recording:
            start = time.perf_counter()
            try:
                out = self.w.run(i)
            except Exception:
                out = None
                errors = [f"op {i} raised:\n{traceback.format_exc()}"]
            finally:
                elapsed = time.perf_counter() - start
        if out is not None:
            try:
                errors = self.w.check(i, out)
            except Exception:
                errors = [f"op {i} check raised:\n{traceback.format_exc()}"]
        shutil.rmtree(self.w.op_dir(i), ignore_errors=True)
        if errors:
            self.failed += 1
            self.errors += errors
        return elapsed

    def run(self, seconds: float, block: int) -> dict[bool, tuple[list[int], list[float], list[float]]]:
        """Ops for `seconds` of wall time, and at least `block` of each kind.

        With a tracer, op ids alternate between untraced and traced runs of
        `block` ops, so both kinds cover every input variant and see the
        same machine. The calibration kernel runs before the first op and
        after every op. Returns {traced: (op ids, times in s, costs)}, where
        an op's cost is its time over the mean of the kernel times on
        either side of it.
        """
        kinds = [False, True] if self.tracer else [False]
        runs = {k: ([], [], []) for k in kinds}
        deadline = time.perf_counter() + seconds
        before = calibrate()
        while min(len(t) for _, t, _ in runs.values()) < block or time.perf_counter() < deadline:
            traced = kinds[self.i // block % len(kinds)]
            ids, times, costs = runs[traced]
            ids.append(self.i)
            times.append(self.op(traced))
            after = calibrate()
            costs.append(times[-1] / ((before + after) / 2))
            before = after
        return runs


def machine_record() -> dict:
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0))}


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  small: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result, record). small shrinks the inputs."""
    import cascfluor
    from make_inputs import VARIANTS
    from tracer import Tracer, layer_metrics, write_spans
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as tmp:
        tmp = Path(tmp)
        inputs, setup_times, setup_costs, setup_errors = timed_setup(workload, seed, tmp, small)
        w = WORKLOADS[workload](seed, inputs, tmp / "ops", small)
        w.prepare()
        tracer = Tracer() if trace else None
        loop = Loop(w, cascfluor, tracer)
        loop.op()  # warm-up: checked and counted, not timed
        runs = loop.run(seconds, VARIANTS)
        model_err = None if trace else w.model_err()

    _, times, costs = runs[False]
    untraced_p50 = statistics.median(times) * 1e3
    tail_p, tail = tail_percentile(times)
    errors = setup_errors + loop.errors
    record = dict(machine_record(), workload=workload, seed=seed, seconds=seconds,
                  trace=int(trace), load="closed loop, one client", samples=len(times),
                  op_p50_ms=untraced_p50, op_tail_ms=tail * 1e3, tail_percentile=tail_p,
                  items=w.item, op_cost_p50=statistics.median(costs),
                  items_per_s_wall=w.items_per_op / statistics.median(times),
                  setup_reps=SETUP_REPS, setup_s_wall=statistics.median(setup_times),
                  error_rate=loop.failed / loop.attempted, errors=errors[:5])
    if trace:
        traced_ids, traced_times, _ = runs[True]
        metrics = layer_metrics(tracer.spans, traced_ids)
        traced_p50 = statistics.median(traced_times) * 1e3
        metrics["trace.op_p50_ms"] = metric(traced_p50, "ms")
        metrics["trace.overhead_ms"] = metric(traced_p50 - untraced_p50, "ms")
        record["traced_samples"] = len(traced_times)
        write_spans(OUT / f"spans-{workload}-seed{seed}.csv", tracer.spans)
    else:
        metrics = {
            "items_per_s": metric(w.items_per_op / (statistics.median(costs) * CAL_REFERENCE_S), "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": metric(1.0 - loop.failed / loop.attempted, "share"),
            "model_err": metric(model_err, "ratio"),
            "setup_s": metric(statistics.median(setup_costs) * CAL_REFERENCE_S, "s"),
        }
    result = {"correct": not errors, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    (OUT / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"record": record, "result": result, "setup_s": setup_times,
                    "op_ms": [round(t * 1e3, 3) for t in times],
                    "op_cost": [round(c, 4) for c in costs]}, indent=1))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("acquire", "replay", "scan", "refit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cascfluor" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a cascfluor checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
