"""Seeded, deterministic inputs for the benchmark workloads.

Two input kinds:

* ``house``: a REDD-format house directory (``channel_1.dat``,
  ``channel_2.dat``) covering about 1M seconds. Each leg carries a noisy,
  slowly drifting base load; leg 1 has a fridge duty cycle, leg 2 a
  freezer, and appliance bursts (kettle, microwave, oven, washer, lights,
  TV, toaster) land on either leg.
  Both legs share at least 3 outages of several hours; about 0.1 % of
  seconds go missing on each leg independently, and a few lines are
  duplicated or swapped out of order. Powers are multiples of 0.25 W, so
  every sum over them is exact in float64 whatever the summation order.
* ``dense``: one channel file of 250k contiguous samples from
  ``tests/oracles.random_step_trace`` with its default settings (integer
  powers 0..5000 W, dwell 1..60 s), the send-on-delta worst case.

``make_house`` and ``make_dense`` also return the ground truth the verifier
needs (the combined trace after intersection and de-duplication), computed
from the generator's own arrays, never from the program under test.
"""
from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HOUSE_SPAN_S = 1_036_800  # 12 days
DENSE_SAMPLES = 250_000
EPOCH0 = 1_303_132_800  # 2011-04-18 13:20 UTC, the REDD recording period
MISSING_SHARE = 0.001
MAX_GAP_S = 3600  # the CLI's default --max-gap


@dataclass(frozen=True)
class Truth:
    """The trace the CLI must see after ingest and validation."""

    timestamps: np.ndarray  # int64, strictly increasing
    powers: np.ndarray  # float64
    lines: int  # data lines written across all files
    intersection_dropped: int  # distinct leg samples absent from the other leg


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` of the checkout by path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quarter_watts(x: np.ndarray) -> np.ndarray:
    return np.round(np.maximum(x, 0.0) * 4.0) / 4.0


def _base_load(rng, n: int, level: float) -> np.ndarray:
    minutes = -(-n // 60)
    walk = level + np.cumsum(rng.normal(0.0, 1.5, minutes))
    walk = np.clip(walk, level * 0.5, level * 2.5)
    return np.repeat(walk, 60)[:n] + rng.normal(0.0, 2.0, n)


def _cooler(rng, leg: np.ndarray, watts: float, off_s: tuple[int, int]) -> None:
    """Compressor duty cycle: a 3 s inrush, then ``watts`` while on."""
    t = int(rng.integers(0, 1800))
    while t < leg.size:
        on = int(rng.integers(600, 1500))
        leg[t : t + 3] += 4 * watts
        leg[t + 3 : t + on] += float(rng.uniform(0.9, 1.1) * watts)
        t += on + int(rng.integers(*off_s))


def _appliances(rng, legs: list[np.ndarray], t_start: int) -> None:
    # a slice target is evaluated before the right-hand side, so each
    # duration is drawn before its power, whatever the statement layout
    n = legs[0].size
    t = 0
    while True:
        t += int(rng.exponential(2400))
        if t >= n:
            return
        hour = ((t_start + t) // 3600) % 24
        if hour < 6:
            continue  # households sleep
        leg = legs[int(rng.integers(0, 2))]
        kind = int(rng.integers(0, 7))
        if kind == 0:  # kettle
            leg[t : t + int(rng.integers(120, 240))] += float(rng.uniform(1800, 2200))
        elif kind == 1:  # microwave
            leg[t : t + int(rng.integers(60, 300))] += float(rng.uniform(1000, 1300))
        elif kind == 2:  # oven: thermostat cycling for 45 min
            u = t
            while u < t + 2700:
                on = int(rng.integers(60, 180))
                leg[u : u + on] += 2400.0
                u += on + int(rng.integers(60, 240))
        elif kind == 3:  # washer: heating, then the drum motor
            leg[t : t + 1200] += 2000.0
            u = t + 1200
            while u < t + 3600:
                run = int(rng.integers(30, 90))
                leg[u : u + run] += float(rng.uniform(200, 500))
                u += run + int(rng.integers(5, 20))
        elif kind == 4:  # lights
            leg[t : t + int(rng.integers(1800, 10800))] += 60.0 * int(rng.integers(1, 4))
        elif kind == 5:  # television
            leg[t : t + int(rng.integers(3600, 10800))] += float(rng.uniform(90, 150))
        else:  # toaster
            leg[t : t + int(rng.integers(120, 200))] += 900.0


def _outages(rng, n: int, count: int = 3) -> np.ndarray:
    """Mask of seconds lost on both legs: ``count`` outages of 2-6 hours,
    one in each of ``count`` equal slices of the span."""
    lost = np.zeros(n, dtype=bool)
    width = n // count
    for k in range(count):
        length = int(rng.integers(2 * 3600, 6 * 3600))
        start = k * width + int(rng.integers(width // 8, width - length - width // 8))
        lost[start : start + length] = True
    return lost


def _channel_lines(ts: np.ndarray, pw: np.ndarray, rng, mess: int) -> list[str]:
    """Channel-format lines with ``mess`` duplicated lines and ``mess``
    adjacent out-of-order swaps."""
    lines = [f"{t} {p:.2f}" for t, p in zip(ts.tolist(), pw.tolist())]
    for i in sorted(rng.choice(len(lines) - 2, mess, replace=False).tolist(), reverse=True):
        lines.insert(i, lines[i])
    for i in rng.choice(len(lines) - 1, mess, replace=False).tolist():
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return lines


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_house(out_dir: Path, seed: int, span_s: int = HOUSE_SPAN_S) -> Truth:
    rng = np.random.default_rng([seed, 1])
    t_start = EPOCH0 + int(rng.integers(0, 86400))
    legs = [_base_load(rng, span_s, 90.0), _base_load(rng, span_s, 60.0)]
    _cooler(rng, legs[0], 120.0, (1500, 2700))  # fridge
    _cooler(rng, legs[1], 90.0, (1200, 2400))  # freezer
    _appliances(rng, legs, t_start)
    legs = [_quarter_watts(leg) for leg in legs]

    lost = _outages(rng, span_s)
    present = [~lost & (rng.random(span_s) >= MISSING_SHARE) for _ in legs]
    both = present[0] & present[1]
    timeline = np.arange(t_start, t_start + span_s, dtype=np.int64)

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = 0
    for k, (leg, keep) in enumerate(zip(legs, present), start=1):
        text = _channel_lines(timeline[keep], leg[keep], rng, mess=5)
        _write(out_dir / f"channel_{k}.dat", text)
        lines += len(text)
    dropped = int(present[0].sum() + present[1].sum() - 2 * both.sum())
    return Truth(timeline[both], legs[0][both] + legs[1][both], lines, dropped)


def make_dense(out_dir: Path, seed: int, root: Path, length: int = DENSE_SAMPLES) -> Truth:
    oracles = load_oracles(root)
    samples = oracles.random_step_trace(np.random.default_rng([seed, 2]), length=length)
    ts = np.array([t for t, _ in samples], dtype=np.int64)
    pw = np.array([p for _, p in samples], dtype=np.float64)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir / "dense.dat", [f"{t} {int(p)}" for t, p in samples])
    return Truth(ts, pw, len(samples), 0)


def segment_bounds(timestamps: np.ndarray, max_gap: int = MAX_GAP_S) -> list[tuple[int, int]]:
    """Index ranges [a, b) of the segments the trace splits into."""
    cuts = np.flatnonzero(np.diff(timestamps) > max_gap) + 1
    edges = [0, *cuts.tolist(), timestamps.size]
    return list(zip(edges[:-1], edges[1:]))
