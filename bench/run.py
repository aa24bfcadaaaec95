#!/usr/bin/env python3
"""Closed-loop benchmark of the ``meterdelta sweep`` CLI.

One client runs one CLI invocation at a time, each in a fresh process,
until ``--seconds`` have passed (at least one invocation, and none that
would end a quarter past the window), then verifies
every output and prints its metrics; the last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench/run.py --workload house_sweep [--seed 1803] [--seconds 35] [--trace 0]
    python3 bench/run.py --workload all         # every workload in turn

Workloads (inputs come from ``gen.py``, seeded by ``--seed``):

* ``house_sweep``: default grid (9 dt values, 7x7 cells) on a two-leg house
  of about 1M seconds; sparse send-on-delta messages.
* ``dense_sweep``: default grid on 250k samples of the random step trace,
  the event sampler's worst case (a message about every 30 samples).
* ``house_periodic``: the same house with one 100 %/100 % event cell, so
  ingest, periodic sampling and scoring dominate. A diagnostic view only:
  ``BENCHMARK.json`` does not list it, so no bound applies to it.

``--trace 0`` reports the end-to-end metrics from untraced runs:
``run_s`` (median wall time of one invocation, launch to exit),
``points_per_s`` (trace samples x grid points / run_s), ``setup_s``
(median time for a fresh interpreter to import meterdelta) and
``peak_rss_mb`` (median peak resident memory of the CLI process).
``--trace 1`` runs traced invocations only (see ``traced_cli.py``) and
reports the per-layer metrics, including ``bench.trace_overhead_s``; spans
go to ``.bench_cache/spans/``.

Inputs are generated before any timing and cached in ``.bench_cache/``
by input kind and seed. A run fails on a non-zero exit, a traceback, or an
output that fails verification (``verify.py``); failures are counted,
never fatal. The program is used from ``src/`` of this checkout as is.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
import traced_cli
import verify

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CACHE = ROOT / ".bench_cache"
RECORD = BENCH / "record.json"
DEFAULT_SEED = 1803
DEADLINE_S = 150.0  # start no invocation that could end after this
CHILD_TIMEOUT_S = 170.0
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "house" or "dense"
    p_grid: tuple[float, ...]
    e_grid: tuple[float, ...]
    cells: tuple[tuple[float, float], ...]  # event cells checked against the oracle
    readings_check: bool  # also check one event stream from `meterdelta sample`

    def cli_args(self, source: Path, out: Path) -> list[str]:
        args = ["sweep", "--input", str(source), "--out", str(out)]
        if self.p_grid != verify.PERCENT_GRID or self.e_grid != verify.PERCENT_GRID:
            args += ["--p-percent", ",".join(f"{p:g}" for p in self.p_grid),
                     "--e-percent", ",".join(f"{e:g}" for e in self.e_grid)]
        return args

    @property
    def grid_points(self) -> int:
        return len(verify.DT_GRID) + len(self.p_grid) * len(self.e_grid)


FULL = verify.PERCENT_GRID
WORKLOADS = {
    w.name: w
    for w in (
        Workload("house_sweep", "house", FULL, FULL, ((1.0, 1.0),), True),
        Workload("dense_sweep", "dense", FULL, FULL, ((1.0, 1.0), (10.0, 5.0), (100.0, 100.0)), False),
        # no oracle cell: the brute-force oracle sums ever longer slices between the
        # rare 100 %/100 % messages, about 15 s per seed on the house
        Workload("house_periodic", "house", (100.0,), (100.0,), (), False),
    )
}


@dataclass
class Inputs:
    source: Path  # what --input names
    trace_id: str
    truth: gen.Truth
    cells: list[dict]  # brute-force oracle per checked cell


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str


# ------------------------------------------------------------------ inputs

def _generate(kind: str, seed: int, target: Path) -> None:
    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    truth = gen.make_house(tmp, seed) if kind == "house" else gen.make_dense(tmp, seed, ROOT)
    np.savez(tmp / "truth.npz", timestamps=truth.timestamps, powers=truth.powers,
             lines=truth.lines, intersection_dropped=truth.intersection_dropped)
    os.replace(tmp, target)


def prepare(w: Workload, seed: int) -> Inputs:
    """Generate (or reuse) the inputs and the oracle answers of a workload."""
    target = CACHE / "inputs" / f"{w.kind}-{seed}"
    if not (target / "truth.npz").is_file():
        target.parent.mkdir(parents=True, exist_ok=True)
        _generate(w.kind, seed, target)
    with np.load(target / "truth.npz") as z:
        truth = gen.Truth(z["timestamps"], z["powers"], int(z["lines"]), int(z["intersection_dropped"]))
    cells = []
    for p, e in w.cells:
        path = target / f"oracle-{p:g}-{e:g}.json"
        if not path.is_file():
            cell = verify.oracle_cell(truth, gen.load_oracles(ROOT), p, e)
            path.with_suffix(".tmp").write_text(json.dumps(cell), encoding="utf-8")
            os.replace(path.with_suffix(".tmp"), path)
        cells.append(json.loads(path.read_text(encoding="utf-8")))
    source = target if w.kind == "house" else target / "dense.dat"
    return Inputs(source, target.name if w.kind == "house" else "dense", truth, cells)


# --------------------------------------------------------------- processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # numpy backs large arrays with transparent huge pages when the host has
    # them free, which moves peak RSS by ~10 % from run to run
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


# A process's peak RSS starts from that of the process it was spawned from,
# so commands start from this small launcher, never from the benchmark
# process, whose memory holds the generated inputs. The launcher times the
# command from launch to exit and reports its own child's rusage.
LAUNCHER = """
import json, os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    json.dump([wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)], fh)
"""


def spawn(argv: list[str], scratch: Path, timeout: float = CHILD_TIMEOUT_S) -> Proc:
    """Run one command to completion: wall time, peak RSS (MB), exit code."""
    out_path, err_path, report = scratch / "stdout", scratch / "stderr", scratch / "rusage.json"
    report.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launcher = subprocess.Popen([sys.executable, "-c", LAUNCHER, str(report), *argv], stdout=out,
                                    stderr=err, env=child_env(), cwd=ROOT, start_new_session=True)
        try:
            launcher.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
    wall, rss_mb, code = (json.loads(report.read_text()) if report.is_file()
                          else (timeout, 0.0, launcher.returncode))
    return Proc(wall, rss_mb, code, out_path.read_bytes(),
                err_path.read_text(encoding="utf-8", errors="replace"))


def check_program(scratch: Path) -> None:
    """Exit non-zero if meterdelta imports from anywhere but this checkout.

    A checkout whose meterdelta fails to import is measured as it is: its
    invocations fail and are counted.
    """
    probe = spawn([sys.executable, "-c", "import meterdelta; print(meterdelta.__file__)"], scratch)
    where = Path(probe.stdout.decode().strip() or ".").resolve()
    if probe.code == 0 and ROOT / "src" not in where.parents:
        sys.exit(f"error: meterdelta imports from {where}, not from {ROOT / 'src'}")


def setup_seconds(scratch: Path) -> float:
    walls = [spawn([sys.executable, "-c", "import meterdelta"], scratch).wall_s
             for _ in range(SETUP_REPEATS)]
    return statistics.median(walls)


# ------------------------------------------------------------------ a run

@dataclass
class Invocation:
    proc: Proc
    digest: str  # sha256 over the JSON and CSV sweep files
    files: dict[str, bytes]
    output_bytes: int
    problems: list[str]


def invoke(w: Workload, inputs: Inputs, scratch: Path, spans: Path | None = None) -> Invocation:
    out = scratch / "out"
    shutil.rmtree(out, ignore_errors=True)
    args = w.cli_args(inputs.source, out)
    argv = ([sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args] if spans
            else [sys.executable, "-m", "meterdelta.cli", *args])
    proc = spawn(argv, scratch)
    problems = []
    if proc.code != 0:
        problems.append(f"exit code {proc.code}")
    if "Traceback (most recent call last)" in proc.stderr:
        problems.append("traceback on stderr")
    files = {}
    for suffix in ("json", "csv"):
        path = out / f"{inputs.trace_id}_sweep.{suffix}"
        if path.is_file():
            files[suffix] = path.read_bytes()
        else:
            problems.append(f"no {path.name}")
    digest = hashlib.sha256(b"".join(files.get(s, b"") for s in ("json", "csv"))).hexdigest()
    size = sum(p.stat().st_size for p in out.glob("*")) if out.is_dir() else 0
    return Invocation(proc, digest, files, size, problems)


def check_outputs(w: Workload, seed: int, inputs: Inputs, runs: list[Invocation]) -> None:
    """Add each invocation's verification problems to it."""
    first = next((r for r in runs if len(r.files) == 2), None)
    if first is None:
        return
    content = verify.check_sweep(first.files["json"], first.files["csv"], inputs.truth,
                                 w.p_grid, w.e_grid, inputs.cells)
    if seed == DEFAULT_SEED:
        record = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.is_file() else {}
        pinned = record.get("pinned_sha256", {}).get(w.name)
        if not pinned:
            content.append(f"no pinned sha256 for {w.name} in {RECORD.name}")
        for suffix, want in (pinned or {}).items():
            got = hashlib.sha256(first.files[suffix]).hexdigest()
            if got != want:
                content.append(f"{suffix} sha256 {got} differs from the pinned {want}")
    for r in runs:
        if r.files and r.digest != first.digest:
            r.problems.append("output bytes differ from the first run")
        elif r.files:
            r.problems.extend(content)


def readings_check(w: Workload, inputs: Inputs, scratch: Path) -> list[str]:
    """One untimed `meterdelta sample --strategy event` at the first checked
    cell, compared reading for reading with the brute-force oracle."""
    cell = inputs.cells[0]
    proc = spawn([sys.executable, "-m", "meterdelta.cli", "sample", "--input", str(inputs.source),
                  "--strategy", "event", "--delta-p", repr(cell["delta_p_w"]),
                  "--energy", repr(cell["energy_wh"])], scratch)
    if proc.code != 0:
        return [f"sample: exit code {proc.code}: {proc.stderr.strip()[-300:]}"]
    return verify.check_readings(proc.stdout.decode("utf-8"), inputs.truth, cell)


def measure(w: Workload, seed: int, seconds: float, trace: bool, t_launch: float) -> dict:
    inputs = prepare(w, seed)
    scratch = CACHE / "run"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    check_program(scratch)  # also compiles the bytecode before any timing
    setup = None if trace else setup_seconds(scratch)

    runs: list[Invocation] = []
    records = []
    spans = scratch / "spans.json" if trace else None
    t0 = time.perf_counter()
    while True:
        if spans:
            spans.unlink(missing_ok=True)
        runs.append(invoke(w, inputs, scratch, spans))
        if spans and spans.is_file():
            records.append(json.loads(spans.read_text(encoding="utf-8")))
        elapsed = time.perf_counter() - t0
        step = runs[-1].proc.wall_s
        # start no invocation predicted to overrun the window by a quarter
        if (elapsed >= seconds or elapsed + step > 1.25 * seconds
                or time.perf_counter() - t_launch + 1.2 * step > DEADLINE_S):
            break
    check_outputs(w, seed, inputs, runs)
    problems = [p for r in runs for p in r.problems]
    attempted, failed = len(runs), sum(1 for r in runs if r.problems)
    if w.readings_check:
        attempted += 1
        sample_problems = readings_check(w, inputs, scratch)
        failed += bool(sample_problems)
        problems += sample_problems

    if trace:
        spans_dir = CACHE / "spans"
        spans_dir.mkdir(exist_ok=True)
        (spans_dir / f"{w.name}-{seed}.json").write_text(json.dumps(records), encoding="utf-8")
        output_bytes = (statistics.median(r.output_bytes for r in runs), "bytes written")
        metrics = traced_cli.layer_metrics(records, {"cli.output_bytes": output_bytes})
    else:
        ok = [r for r in runs if not r.problems] or runs
        run_s = statistics.median(r.proc.wall_s for r in ok)
        samples = int(inputs.truth.timestamps.size)
        metrics = {
            "run_s": (run_s, "s", f"median of {len(ok)} invocations"),
            "points_per_s": (samples * w.grid_points / run_s, "1/s",
                             f"{samples} samples x {w.grid_points} grid points / run_s"),
            "setup_s": (setup, "s", f"median of {SETUP_REPEATS} imports"),
            "peak_rss_mb": (statistics.median(r.proc.rss_mb for r in ok), "MB",
                            f"median of {len(ok)} invocations"),
        }
    return {"workload": w.name, "attempted": attempted, "failed": failed,
            "problems": sorted(set(problems)), "metrics": metrics}


def report(result: dict, prefix: str = "") -> None:
    for name, (value, unit, base) in result["metrics"].items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{prefix}{name:<30} {shown:>14} {unit:<12} {base}")
    fraction = result["failed"] / result["attempted"]
    print(f"{prefix}{'failed_fraction':<30} {fraction:>14.6g} {'1':<12} "
          f"{result['failed']} of {result['attempted']} runs")
    for problem in result["problems"]:
        print(f"{prefix}FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_launch = time.perf_counter()
    for needed in (ROOT / "src" / "meterdelta" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            sys.exit(f"error: {needed.relative_to(ROOT)} is missing; run from a full checkout")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), t_launch)
        report(result, f"{name}: " if len(names) > 1 else "")
        results.append(result)
        t_launch = time.perf_counter()
    prefix = len(names) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {
                "value": value if value is None or np.isfinite(value) else None, "unit": unit}
            for r in results
            for name, (value, unit, _) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
