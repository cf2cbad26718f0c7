"""Span tracer that wraps the package's public functions from outside.

Every public function of the five modules becomes a span (name, start, end,
parent, op id) kept in memory. A function is wrapped in every namespace that
binds it, since `cascade` and `fit` import spectrum functions by name.
The `model` callable handed to `fit.least_squares` is wrapped too, as
`fit.model`, which is how forward-model evaluations are counted without
editing the package. Spans are recorded only while `op` is set.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import time

LAYERS = ("spectrum", "cascade", "timetag", "fit", "cli")
# Name prefixes left unwrapped: the parser and the subcommand handlers are
# reached only through `cli.main`, so their bodies count as its self time.
UNWRAPPED = ("cli.build_parser", "cli.cmd_")
FIT_IO = ("fit.read_series", "fit.write_series", "fit.write_report",
          "fit.write_report_csv", "fit.read_report_csv")

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _path_bytes(args, kwargs, _result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _simulate_counts(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"photons": len(result), "cap_hit": int(len(result) == cfg.cap)}


# Counts recorded with a span, from the call's arguments and result.
COUNTERS = {
    "spectrum.sample_spectrum": lambda a, k, r: {"grid_points": r.offsets.size},
    "cascade.ratio_curve": lambda a, k, r: {"points": len(r)},
    "timetag.simulate_run": _simulate_counts,
    "timetag.write_timetags": _path_bytes,
    "timetag.read_timetags": _path_bytes,
    "cli.write_table": _path_bytes,
    "fit.least_squares": lambda a, k, r: {"iterations": r.iterations,
                                          "converged": int(r.converged)},
}


class Tracer:
    """Records spans of wrapped calls; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name, fn, args, kwargs, counter=None):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        if self.op is None:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # placeholder: children are appended after it
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans[idx] = (name, start, time.perf_counter(), parent, self.op, {"failed": 1})
            raise
        finally:
            self._stack.pop()
        end = time.perf_counter()
        extra = counter(args, kwargs, result) if counter is not None else None
        # a tuple of atomic values drops out of the cyclic collector's sweeps
        self.spans[idx] = (name, start, end, parent, self.op, extra)
        return result

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        if name == "fit.least_squares":
            def wrapper(*args, **kwargs):
                if args:
                    args = (self.wrap_model(args[0]),) + args[1:]
                else:
                    kwargs["model"] = self.wrap_model(kwargs["model"])
                return self.span(name, fn, args, kwargs, counter)
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, args, kwargs, counter)
        return functools.wraps(fn)(wrapper)

    def wrap_model(self, model):
        # the bootstrap hands an already wrapped model back to least_squares
        if getattr(model, "_traced_model", False):
            return model

        def traced(*args, **kwargs):
            return self.span("fit.model", model, args, kwargs)

        traced._traced_model = True
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of the layer modules of `package`."""
        modules = [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and not name.startswith(UNWRAPPED)):
                    wrappers[obj] = self.wrap(name, obj)
        for ns in [package] + modules:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    @contextlib.contextmanager
    def recording(self, package, op):
        """Wrap the package and record spans under op id `op`, then restore."""
        self.install(package)
        self.op = op
        try:
            yield
        finally:
            self.op = None
            self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover, in s.

    Calls on one thread nest, so children never overlap and the covered
    time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def per_op_totals(spans, ops) -> dict:
    """{op: {span name: {"calls", "self_ms", counter...}}} over the given ops."""
    totals = {op: {} for op in ops}
    for s, own in zip(spans, self_times(spans)):
        if s[OP] not in totals:
            continue
        agg = totals[s[OP]].setdefault(s[NAME], {"calls": 0, "self_ms": 0.0})
        agg["calls"] += 1
        agg["self_ms"] += own * 1e3
        for key, value in (s[EXTRA] or {}).items():
            agg[key] = agg.get(key, 0) + value
    return totals


def _field(span_name, key):
    return lambda op: op.get(span_name, {}).get(key, 0)


# Per-op metrics "<span>.<field>", each reported as its median over the
# traced ops; "calls" and "self_ms" exist for every span, the other fields
# come from COUNTERS.
SPAN_FIELDS = {
    "spectrum.sample_spectrum": ("calls", "self_ms"),
    "spectrum.mollow_density": ("calls",),
    "spectrum.normalize_to_counts": ("self_ms",),
    "cascade.ratio_curve": ("calls", "points", "self_ms"),
    "cascade.cascaded_count": ("calls", "self_ms"),
    "timetag.simulate_run": ("calls", "self_ms", "photons"),
    "timetag.write_timetags": ("self_ms", "bytes"),
    "timetag.read_timetags": ("self_ms", "bytes"),
    "timetag.histogram": ("self_ms",),
    "timetag.peak_separation": ("self_ms",),
    "timetag.window_counts": ("self_ms",),
    "timetag.count_rate": ("self_ms",),
    "fit.least_squares": ("calls", "self_ms", "iterations", "failed"),
    "fit.model": ("self_ms",),
    "fit.fit_cascade": ("calls", "self_ms"),
    "cli.main": ("calls", "self_ms"),
    "cli.write_table": ("self_ms", "bytes"),
}
UNITS = {"self_ms": "ms", "bytes": "bytes"}  # every other field is a count
PER_OP = {f"{span}.{key}": (UNITS.get(key, "count"), _field(span, key))
          for span, keys in SPAN_FIELDS.items() for key in keys}
PER_OP.update({
    "spectrum.grid_points": ("count", _field("spectrum.sample_spectrum", "grid_points")),
    "fit.model.evals": ("count", _field("fit.model", "calls")),
    "fit.io.self_ms": ("ms", lambda op: sum(op.get(n, {}).get("self_ms", 0) for n in FIT_IO)),
    "trace.spans": ("count", lambda op: sum(agg["calls"] for agg in op.values())),
})

# Shares over all traced ops together: (numerator, denominator) fields.
SHARES = {
    "timetag.simulate_run.cap_hit_share": (("timetag.simulate_run", "cap_hit"),
                                           ("timetag.simulate_run", "calls")),
    "fit.least_squares.converged_share": (("fit.least_squares", "converged"),
                                          ("fit.least_squares", "calls")),
}


def layer_metrics(spans, ops) -> dict:
    """Per-layer metrics {name: {"value", "unit"}} over the given op ids."""
    totals = list(per_op_totals(spans, ops).values())
    out = {}
    for name, (unit, get) in PER_OP.items():
        out[name] = {"value": statistics.median(get(op) for op in totals) if totals else 0,
                     "unit": unit}
    for name, ((n_span, n_key), (d_span, d_key)) in SHARES.items():
        num = sum(op.get(n_span, {}).get(n_key, 0) for op in totals)
        den = sum(op.get(d_span, {}).get(d_key, 0) for op in totals)
        if d_key == "calls":  # a call that raised has no result to count
            den -= sum(op.get(d_span, {}).get("failed", 0) for op in totals)
        out[name] = {"value": num / den if den else 0.0, "unit": "share"}
    return out


def write_spans(path, spans) -> None:
    """Write the spans as CSV: name,start_s,end_s,parent,op."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("name,start_s,end_s,parent,op\n")
        for s in spans:
            f.write(f"{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{s[OP]}\n")
