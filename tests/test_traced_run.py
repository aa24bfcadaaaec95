"""The benchmark's traced sweep, run small: every per-layer metric it reports
must be a finite number. A sweep whose calls the tracer can no longer see
(a sampler bound before the tracer wraps it, say) leaves a metric NaN or
missing, which fails here instead of in a benchmark run.

Reads bench/ (the input generator and the tracer) and writes nothing there.
"""
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def bench_module(name):
    """bench/<name>.py imported by path, without writing its bytecode into bench/."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


@pytest.mark.parametrize("kind", ["house", "dense"])
def test_traced_sweep_reports_every_metric_as_a_finite_number(kind, tmp_path):
    gen, traced_cli = bench_module("gen"), bench_module("traced_cli")
    if kind == "house":
        source = tmp_path / "house"
        gen.make_house(source, seed=7, span_s=120_000)
    else:
        gen.make_dense(tmp_path, 7, ROOT, length=20_000)
        source = tmp_path / "dense.dat"
    out, spans = tmp_path / "out", tmp_path / "spans.json"
    done = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(spans),
                           "sweep", "--input", str(source), "--out", str(out)],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # the bytes written, as bench/run.py measures them outside the spans
    output_bytes = (sum(p.stat().st_size for p in out.iterdir()), "bytes written")
    metrics = traced_cli.layer_metrics([json.loads(spans.read_text())],
                                       {"cli.output_bytes": output_bytes})
    values = {name: value for name, (value, _, _) in metrics.items()}
    assert {name: value for name, value in values.items()
            if not isinstance(value, (int, float)) or not math.isfinite(value)} == {}
    assert values["sampler.event_calls"] > 0
