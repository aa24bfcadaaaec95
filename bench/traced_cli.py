"""Run the meterdelta CLI with a span around every public layer function.

    PYTHONPATH=src python3 bench/traced_cli.py SPANS.json sweep --input ... --out ...

The wrappers are installed from outside: each function below is replaced,
in every ``meterdelta`` module that bound it, by a wrapper that records a
span (name, start, end, parent, run id) and, after the span closes, a few
counts derived from the call's arguments and result. Counting runs inside
a ``bench.count`` span so that it never inflates a layer's own time. Spans
stay in memory until the CLI returns, then go to SPANS.json together with
the functions that could not be found, the time taken to install the
wrappers and the measured cost of one wrapped call, from which
``bench.trace_overhead_s`` is derived.

``layer_metrics`` turns those spans into the per-layer metrics.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

# module -> public functions wrapped as spans named "<module>.<function>"
LAYERS = {
    "ingest": ("load_redd_house", "load_redd_channel", "combine_mains"),
    "trace": ("validate_trace", "trace_stats", "segment_trace", "merge_segments"),
    "thresholds": ("threshold_grid", "derive_thresholds"),
    "sampler": ("sample_time_based", "sample_event_based"),
    "evaluate": ("run_sweep", "reconstruct", "error_components", "nmae", "compression_ratio"),
    "cli": ("main",),
}


def _counters(message_count):
    """Counts recorded per call, from (args, kwargs, result)."""

    def distinct_in(args, kwargs, result):
        channels = args[0] if args else kwargs["channels"]
        return {
            "channels": len(channels),
            "rows_in": sum(len(ch) for ch in channels),
            "distinct_in": sum(len({t for t, _ in ch}) for ch in channels),
            "out": len(result),
        }

    def validated(args, kwargs, result):
        raw = args[0] if args else kwargs["raw"]
        return {"rows_in": len(raw), "rows_out": len(result)}

    def time_based(args, kwargs, result):
        dt = args[1] if len(args) > 1 else kwargs["delta_t"]
        return {"dt": int(dt), "messages": message_count(result)}

    def event_based(args, kwargs, result):
        segment = args[0] if args else kwargs["segment"]
        return {"samples": len(segment), "messages": message_count(result)}

    return {
        "ingest.load_redd_channel": lambda a, k, r: {"lines": len(r)},
        "ingest.combine_mains": distinct_in,
        "trace.validate_trace": validated,
        "trace.segment_trace": lambda a, k, r: {"segments": len(r)},
        "thresholds.threshold_grid": lambda a, k, r: {"cells": len(r)},
        "evaluate.run_sweep": lambda a, k, r: {"segments": len(a[0] if a else k["segments"])},
        "sampler.sample_time_based": time_based,
        "sampler.sample_event_based": event_based,
    }


class Tracer:
    """In-memory span recorder for one CLI run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.t0 = time.perf_counter()

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self.stack[-1] if self.stack else None,
            "run": self.run_id,
            "name": name,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.t0
        self.stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                counting = self.open("bench.count")
                try:
                    span["counts"] = count(args, kwargs, result)
                except Exception as exc:  # counting must never break the measured run
                    span["counts"] = {"error": repr(exc)}
                finally:
                    self.close(counting)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every LAYERS function; return the names that could not be found."""
    importlib.import_module("meterdelta")
    modules = {layer: importlib.import_module(f"meterdelta.{layer}") for layer in LAYERS}
    counters = _counters(modules["sampler"].message_count)
    holders = [m for n, m in sys.modules.items() if n == "meterdelta" or n.startswith("meterdelta.")]
    missing = []
    for layer, names in LAYERS.items():
        for fname in names:
            original = getattr(modules[layer], fname, None)
            if not callable(original):
                missing.append(f"{layer}.{fname}")
                continue
            wrapped = tracer.wrap(f"{layer}.{fname}", original, counters.get(f"{layer}.{fname}"))
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapped)
    return missing


def span_cost(calls: int = 20_000) -> float:
    """Seconds one wrapped call adds to a call, measured on a no-op."""

    def noop():
        return None

    wrapped = Tracer("cost").wrap("cost", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(traced - (time.perf_counter() - t0), 0.0) / calls


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    cli = importlib.import_module("meterdelta.cli")  # an untraced run imports this too
    tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
    t0 = time.perf_counter()
    missing = install(tracer)
    install_s = time.perf_counter() - t0
    code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run": tracer.run_id, "missing": missing, "install_s": install_s,
                   "span_cost_s": span_cost(), "spans": tracer.spans}, fh)
    return code


# ---------------------------------------------------------------- analysis

# periodic calls are told apart from the reference re-sample by their place
# in the sweep, relative to the first reconstruct
_PERIODIC = ("sampler.sample_time_based", "evaluate.run_sweep", "evaluate.reconstruct")

# metric -> (unit, span names it needs)
PER_LAYER = {
    "ingest.parse_s": ("s", ("ingest.load_redd_channel",)),
    "ingest.combine_s": ("s", ("ingest.combine_mains",)),
    "ingest.lines": ("count", ("ingest.load_redd_channel",)),
    "ingest.intersection_dropped": ("count", ("ingest.combine_mains",)),
    "trace.validate_s": ("s", ("trace.validate_trace",)),
    "trace.duplicates_collapsed": ("count", ("trace.validate_trace",)),
    "trace.stats_s": ("s", ("trace.trace_stats",)),
    "trace.segment_s": ("s", ("trace.segment_trace",)),
    "trace.segments": ("count", ("trace.segment_trace",)),
    "thresholds.grid_s": ("s", ("thresholds.threshold_grid",)),
    "thresholds.cells": ("count", ("thresholds.threshold_grid",)),
    "sampler.time_s": ("s", _PERIODIC),
    "sampler.time_calls": ("count", _PERIODIC),
    "sampler.time_readings": ("count", _PERIODIC),
    "sampler.reference_s": ("s", _PERIODIC),
    "sampler.event_s": ("s", ("sampler.sample_event_based",)),
    "sampler.event_calls": ("count", ("sampler.sample_event_based",)),
    "sampler.event_messages": ("count", ("sampler.sample_event_based",)),
    "sampler.samples_per_message": ("samples/msg", ("sampler.sample_event_based",)),
    "sampler.event_s_per_msample": ("s/Msample", ("sampler.sample_event_based",)),
    "evaluate.reconstruct_s": ("s", ("evaluate.reconstruct",)),
    "evaluate.score_s": ("s", ("evaluate.error_components", "evaluate.nmae",
                               "evaluate.compression_ratio")),
    "evaluate.sweep_s": ("s", ("evaluate.run_sweep",)),
    "evaluate.sweep_self_s": ("s", ("evaluate.run_sweep",)),
    "cli.run_s": ("s", ("cli.main",)),
    "cli.self_s": ("s", ("cli.main",)),
    "cli.output_bytes": ("bytes", ("cli.main",)),
    "bench.trace_overhead_s": ("s", ()),
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _one_run(record: dict) -> dict[str, tuple[float, str]]:
    """(value, base) of every span-derived metric of one traced run."""
    spans = record["spans"]
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(*names):
        return sum(_duration(s) for n in names for s in named(n))

    def self_time(name):
        return sum(_duration(s) - sum(_duration(c) for c in children.get(s["id"], ())) for s in named(name))

    def counted(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    def calls(*names):
        return f"{sum(len(named(n)) for n in names)} calls"

    # the dt=10 reference re-sample: the periodic calls a sweep makes before
    # it scores anything, less the first grid dt's one call per segment
    reference, grid = [], []
    for sweep in named("evaluate.run_sweep"):
        kids = children.get(sweep["id"], [])
        first_score = min((c["start"] for c in kids if c["name"] == "evaluate.reconstruct"),
                          default=float("inf"))
        periodic = [c for c in kids if c["name"] == "sampler.sample_time_based"]
        n_ref = max(0, sum(c["start"] < first_score for c in periodic) - sweep["counts"].get("segments", 0))
        reference += periodic[:n_ref]
        grid += periodic[n_ref:]
    event_s = total("sampler.sample_event_based")
    samples = counted("sampler.sample_event_based", "samples")
    messages = counted("sampler.sample_event_based", "messages")
    combines = named("ingest.combine_mains")
    dropped = sum(s["counts"].get("distinct_in", 0)
                  - s["counts"].get("channels", 0) * s["counts"].get("out", 0) for s in combines)
    validated = named("trace.validate_trace")
    duplicates = (sum(s["counts"].get("rows_in", 0) - s["counts"].get("distinct_in", 0) for s in combines)
                  + sum(s["counts"].get("rows_in", 0) - s["counts"].get("rows_out", 0) for s in validated))
    count_s = total("bench.count")
    return {
        "ingest.parse_s": (total("ingest.load_redd_channel"), calls("ingest.load_redd_channel")),
        "ingest.combine_s": (total("ingest.combine_mains"), calls("ingest.combine_mains")),
        "ingest.lines": (counted("ingest.load_redd_channel", "lines"), "samples parsed"),
        "ingest.intersection_dropped": (dropped, "distinct leg samples without a partner"),
        "trace.validate_s": (total("trace.validate_trace"), calls("trace.validate_trace")),
        "trace.duplicates_collapsed": (
            duplicates, "repeated timestamps dropped by combine_mains and validate_trace"),
        "trace.stats_s": (total("trace.trace_stats"), calls("trace.trace_stats")),
        "trace.segment_s": (total("trace.segment_trace"), calls("trace.segment_trace")),
        "trace.segments": (counted("trace.segment_trace", "segments"), "segments"),
        "thresholds.grid_s": (total("thresholds.threshold_grid"), calls("thresholds.threshold_grid")),
        "thresholds.cells": (counted("thresholds.threshold_grid", "cells"), "event cells"),
        "sampler.time_s": (sum(map(_duration, grid)), f"{len(grid)} grid calls"),
        "sampler.time_calls": (len(grid), "grid calls, reference excluded"),
        "sampler.time_readings": (sum(c["counts"].get("messages", 0) for c in grid), "messages"),
        "sampler.reference_s": (sum(map(_duration, reference)), f"{len(reference)} reference calls"),
        "sampler.event_s": (event_s, calls("sampler.sample_event_based")),
        "sampler.event_calls": (len(named("sampler.sample_event_based")), "calls"),
        "sampler.event_messages": (messages, "messages"),
        "sampler.samples_per_message": (samples / messages if messages else float("nan"),
                                        f"{samples} samples / {messages} messages"),
        "sampler.event_s_per_msample": (event_s / (samples / 1e6) if samples else float("nan"),
                                        f"per 1e6 of {samples} samples"),
        "evaluate.reconstruct_s": (total("evaluate.reconstruct"), calls("evaluate.reconstruct")),
        "evaluate.score_s": (
            total("evaluate.error_components", "evaluate.nmae", "evaluate.compression_ratio"),
            calls("evaluate.error_components", "evaluate.nmae", "evaluate.compression_ratio")),
        "evaluate.sweep_s": (total("evaluate.run_sweep"), calls("evaluate.run_sweep")),
        "evaluate.sweep_self_s": (self_time("evaluate.run_sweep"), "run_sweep minus its child spans"),
        "cli.run_s": (total("cli.main"), calls("cli.main")),
        "cli.self_s": (self_time("cli.main"), "cli.main minus its child spans"),
        "bench.trace_overhead_s": (
            record["install_s"] + count_s + len(spans) * record["span_cost_s"],
            f"install {record['install_s']:.3g} s + counting {count_s:.3g} s"
            f" + {len(spans)} spans x {record['span_cost_s']:.3g} s"),
    }


def layer_metrics(records: list[dict], extra: dict[str, tuple[float, str]]) -> dict[str, tuple]:
    """(value, unit, base) of each per-layer metric: the median over traced
    runs, or ``extra`` for metrics measured outside the spans.

    A metric whose span could not be wrapped gets value None and the reason
    in place of its base, never a zero.
    """
    missing = set().union(*(r["missing"] for r in records)) if records else set()
    runs = [_one_run(r) for r in records]
    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        lost = sorted(missing.intersection(needs))
        if name in extra and not lost:
            out[name] = (extra[name][0], unit, extra[name][1])
        elif runs and not lost and name in runs[0]:
            out[name] = (statistics.median(r[name][0] for r in runs), unit, runs[0][name][1])
        else:
            out[name] = (None, unit, "missing: " + (", ".join(lost) or "not measured"))
    return out

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
