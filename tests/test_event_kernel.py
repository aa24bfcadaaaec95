"""The compiled send-on-delta kernel: bit equality with the Python loop it
replaced, and how the kernel library is built, cached and shared with the
channel-file scanner."""
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meterdelta import PowerTrace, Thresholds, sample_event_based, segment_trace, validate_trace
from meterdelta import _kernels
from meterdelta._kernels import SOURCE, library
from meterdelta.sampler import FINAL, INITIAL, POWER_DELTA
from oracles import python_event_readings, random_gappy_trace

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_same_stream(kernel, loop):
    for name in ("timestamps", "triggers", "energy_ws"):
        a, b = getattr(kernel, name), getattr(loop, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def redd_like_powers(rng, n):
    """Appliance-like steps with meter noise, rounded to 2 decimals as in
    REDD channel files: sums of these are inexact in binary."""
    levels = rng.choice([0.0, 60.0, 115.5, 1200.0, 2400.0], size=n // 40 + 1)
    steps = np.repeat(levels, 40)[:n]
    return np.round(np.abs(steps + 80.0 + rng.normal(0.0, 7.0, n)), 2)


@st.composite
def traces_and_thresholds(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 3, 50, 400]))
    ts = np.array([t for t, _ in random_gappy_trace(rng, length=n, gap_chance=0.05)])
    pw = redd_like_powers(rng, n) if draw(st.booleans()) else rng.integers(0, 5000, n) * 1.0
    edge = draw(st.sampled_from(["none", "bottom", "top"]))
    if edge == "bottom":
        ts = ts - ts[0] + np.iinfo(np.int64).min
    elif edge == "top":
        ts = ts - ts[-1] + (2**63 - 2)  # the largest timestamp a trace can hold
    span = int(ts[-1]) - int(ts[0])
    dp = draw(st.sampled_from([math.inf, 25.0, 400.0, round(float(rng.uniform(1, 3000)), 2)]))
    e_wh = draw(st.sampled_from([math.inf, 0.05, 2.5, round(float(rng.uniform(0.01, 50)), 2)]))
    silence = draw(st.sampled_from([None, 1, 7, 120, max(span, 1), span + 1, 10**30]))
    if math.isinf(dp) and math.isinf(e_wh) and silence is None:
        silence = 60
    max_gap = draw(st.sampled_from([1, 30, 10**9]))  # 1 and 30 cut single-sample segments
    trace = validate_trace(list(zip(ts.tolist(), pw.tolist())))
    return trace, Thresholds(dp, e_wh, silence), max_gap


@settings(max_examples=300, deadline=None)
@given(traces_and_thresholds())
# every sample fires, so the kernel writes all n + 1 rows
@example((PowerTrace(np.arange(50), np.tile([0.0, 1000.0], 25)), Thresholds(1.0, math.inf), 1))
# the final row lands on 2**63 - 1
@example((PowerTrace(np.arange(2**63 - 4, 2**63 - 1), np.array([5.0, 100.0, 5.0])),
          Thresholds(50.0, 0.01, 1), 10**9))
def test_kernel_matches_python_loop_bit_for_bit(case):
    trace, th, max_gap = case
    for segment in segment_trace(trace, max_gap):
        assert_same_stream(sample_event_based(segment, th), python_event_readings(segment, th))


def test_kernel_silence_across_the_whole_int64_range():
    # one segment from -2**63 to 2**63 - 2: the gap 2**64 - 2 only fits uint64
    seg = PowerTrace(np.array([-(2**63), 0, 2**63 - 2]), np.array([5.0, 5.0, 5.0]))
    for silence, fired in ((2**63 - 2, [1, 2]), (2**63, [1]), (2**64 - 2, [2]),
                           (2**64 - 1, []), (10**30, [])):
        th = Thresholds(math.inf, math.inf, silence)
        stream = sample_event_based(seg, th)
        assert_same_stream(stream, python_event_readings(seg, th))
        assert stream.timestamps[1:-1].tolist() == seg.timestamps[fired].tolist()


def assert_two_sample_stream(kernel):
    """A direct kernel call on two samples writes the baseline, a power delta at
    t = 1 and the final flush at t = 2."""
    columns = np.empty(3, np.int64), np.empty(3, np.uint8), np.empty(3)
    assert kernel(np.array([0, 1]), np.array([1.0, 9.0]), 2, 5.0, math.inf, 0, *columns) == 3
    assert [c.tolist() for c in columns] == [[0, 1, 2], [INITIAL, POWER_DELTA, FINAL],
                                             [0.0, 1.0, 9.0]]


def _run(env_update, *args):
    env = {**os.environ, "PYTHONPATH": str(SRC), **env_update}
    return subprocess.run([sys.executable, "-m", "meterdelta.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)


def _cli(tmp_path, env_update, fmt="redd"):
    """`sample --strategy event` on a five-sample trace in the given format."""
    powers = [100, 100, 500, 500, 100]
    if fmt == "redd":
        data = tmp_path / "trace.dat"
        data.write_text("".join(f"{t} {p}\n" for t, p in enumerate(powers)))
    else:
        data = tmp_path / "trace.csv"
        data.write_text("timestamp,power\n" + "".join(f"{t},{p}\n" for t, p in enumerate(powers)))
    return _run(env_update, "sample", "--input", str(data), "--format", fmt,
                "--strategy", "event", "--delta-p", "300")


def _empty_path(tmp_path):
    """A PATH on which no compiler can be found."""
    empty = tmp_path / "empty_path"
    empty.mkdir(exist_ok=True)
    return str(empty)


def test_cli_without_a_compiler_exits_1(tmp_path):
    # a CSV input leaves the first build to event sampling
    done = _cli(tmp_path, {"PATH": _empty_path(tmp_path), "XDG_CACHE_HOME": str(tmp_path / "cache")},
                fmt="csv")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    (line,) = [ln for ln in done.stderr.splitlines() if ln.startswith("error:")]
    assert "'cc'" in line
    assert not list((tmp_path / "cache").rglob("*.tmp"))


def test_cli_with_an_unwritable_cache_exits_1(tmp_path):
    not_a_dir = tmp_path / "cache_file"
    not_a_dir.write_text("")
    done = _cli(tmp_path, {"XDG_CACHE_HOME": str(not_a_dir)})
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error:") and str(not_a_dir / "meterdelta") in done.stderr


def test_second_run_reuses_the_cached_library(tmp_path):
    cache = tmp_path / "cache"
    first = _cli(tmp_path, {"XDG_CACHE_HOME": str(cache)})
    assert first.returncode == 0, first.stderr
    (lib,) = (cache / "meterdelta").iterdir()
    before = lib.stat()
    # no compiler can run with an empty PATH: the cached build must serve
    second = _cli(tmp_path, {"XDG_CACHE_HOME": str(cache), "PATH": _empty_path(tmp_path)})
    assert second.returncode == 0, second.stderr
    assert second.stdout == first.stdout
    after = lib.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert list((cache / "meterdelta").iterdir()) == [lib]


def test_channel_file_without_a_compiler_exits_1(tmp_path):
    data = tmp_path / "trace.dat"
    data.write_text("0 100\n1 200\n")
    done = _run({"PATH": _empty_path(tmp_path), "XDG_CACHE_HOME": str(tmp_path / "cache")},
                "stats", "--input", str(data))
    assert done.returncode == 1
    (line,) = done.stderr.splitlines()
    assert line.startswith("error:") and "'cc'" in line


def test_csv_file_needs_no_compiler(tmp_path):
    data = tmp_path / "trace.csv"
    data.write_text("timestamp,power\n0,100\n1,200\n")
    done = _run({"PATH": _empty_path(tmp_path), "XDG_CACHE_HOME": str(tmp_path / "cache")},
                "stats", "--format", "csv", "--input", str(data))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1].startswith("trace")


def test_one_build_serves_both_scans(tmp_path):
    cache = str(tmp_path / "cache")
    # a CSV input is parsed in Python, so only event sampling builds the library
    first = _cli(tmp_path, {"XDG_CACHE_HOME": cache}, fmt="csv")
    assert first.returncode == 0, first.stderr
    data = tmp_path / "trace.dat"
    data.write_text("0 100\n1 200\n")
    done = _run({"PATH": _empty_path(tmp_path), "XDG_CACHE_HOME": cache},
                "stats", "--input", str(data))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_stale_temporary_files_do_not_break_the_build(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "first"))
    library.__wrapped__()
    (built,) = (tmp_path / "first" / "meterdelta").iterdir()
    cache = tmp_path / "second" / "meterdelta"
    cache.mkdir(parents=True)
    # left by crashed builds, one of them under this very process and thread
    stale = [cache / f"{built.name}.{os.getpid()}.{threading.get_ident()}.tmp",
             cache / f"{built.name}.1.1.tmp"]
    for path in stale:
        path.write_bytes(b"not a shared library")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "second"))
    kernel = library.__wrapped__().event_scan
    assert sorted(cache.iterdir()) == sorted([cache / built.name, stale[1]])
    assert_two_sample_stream(kernel)


def test_concurrent_first_builds_all_succeed(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "threads"))
    barrier = threading.Barrier(4, timeout=30)
    kernels, errors = [], []

    def build():
        try:
            barrier.wait()
            kernels.append(library.__wrapped__().event_scan)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and not errors and len(kernels) == 4
    for kernel in kernels:
        assert_two_sample_stream(kernel)
    assert [p.suffix for p in (tmp_path / "threads" / "meterdelta").iterdir()] == [".so"]

    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(tmp_path / "procs")}
    code = "from meterdelta._kernels import library; library()"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE)
             for _ in range(3)]
    assert [p.wait(timeout=60) for p in procs] == [0, 0, 0]
    for p in procs:
        p.stderr.close()
    assert [p.suffix for p in (tmp_path / "procs" / "meterdelta").iterdir()] == [".so"]


def test_kernel_source_compiles_without_a_warning(tmp_path):
    # the build's own flags made stricter, which leaves the build (and so its cache key) alone
    done = subprocess.run(["cc", *_kernels._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o",
                           str(tmp_path / "k.so"), str(SOURCE)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_every_kernel_has_its_ctypes_signature_and_every_binding_its_kernel():
    # a binding left behind by a removed kernel fails here by name, not inside library()
    definitions = r"^(?!static\b)[A-Za-z_][\w ]*?\**\b(\w+)\("  # at column 0, not static
    exported = set(re.findall(definitions, SOURCE.read_text(), re.M))
    binding = Path(_kernels.__file__).read_text()
    argtypes = set(re.findall(r"^ *kernels\.(\w+)\.argtypes = ", binding, re.M))
    restypes = set(re.findall(r"^ *kernels\.(\w+)\.restype = ", binding, re.M))
    assert exported == {"event_scan", "held_error_sum", "scan_channel", "merge_legs"}
    assert argtypes == restypes == exported
    assert set(re.findall(r"\bkernels\.(\w+)", binding)) == exported
