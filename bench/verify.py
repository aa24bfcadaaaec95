"""Output checks that share no code with ``run_sweep``.

Expected values come from the generator's ground truth and from the
brute-force oracle in ``tests/oracles.py``:

* trace statistics and periodic message counts follow in closed form from
  the truth (a window count per segment);
* thresholds follow from the paper's rule (percentage of the peak one-second
  change and of the mean daily energy, bases rounded up to whole kW / kWh);
* spot-checked event cells must match ``brute_force_event_readings``
  exactly in message count, and in NMAE up to the 6-decimal output format.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from gen import Truth, segment_bounds

DT_GRID = (10, 30, 60, 300, 600, 900, 1800, 3600, 7200)
PERCENT_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
REFERENCE_DT = 10
READINGS_HEADER = "timestamp,trigger,energy_wh,power_w"


def trace_facts(truth: Truth) -> dict:
    ts, pw = truth.timestamps, truth.powers
    step = np.diff(ts)
    duration = int(ts[-1]) + 1 - int(ts[0])
    total_wh = float(pw.sum()) / 3600.0
    return {
        "samples": int(ts.size),
        "peak_power_w": float(pw.max()),
        "peak_variation_w": float(np.abs(np.diff(pw))[step == 1].max()),
        "total_energy_wh": total_wh,
        "mean_daily_energy_wh": total_wh / (duration / 86400.0),
        "coverage": ts.size / duration,
        "duration_s": duration,
        "gap_count": int(np.count_nonzero(step > 1)),
    }


def thresholds(facts: dict, p: float, e: float) -> tuple[float, float]:
    """Power (W) and energy (Wh) triggers of one cell."""
    base_w = math.ceil(facts["peak_variation_w"] / 1000.0) * 1000.0
    base_wh = math.ceil(facts["mean_daily_energy_wh"] / 1000.0) * 1000.0
    return p / 100.0 * base_w, e / 100.0 * base_wh


def oracle_cell(truth: Truth, oracles, p: float, e: float) -> dict:
    """Brute-force readings of one event cell over every segment.

    Returns the cell's thresholds, message count, pooled NMAE and the
    readings in the CLI's ``sample`` CSV format.
    """
    delta_p, energy = thresholds(trace_facts(truth), p, e)
    count = 0
    numerator = denominator = 0.0
    lines = [READINGS_HEADER]
    for a, b in segment_bounds(truth.timestamps):
        ts, pw = truth.timestamps[a:b], truth.powers[a:b]
        readings = oracles.brute_force_event_readings(ts, pw, delta_p, energy)
        count += len(readings) - 1
        lines += [f"{t},{trig},{e_ws / 3600.0:.6f},{pwr:.2f}" for t, trig, e_ws, pwr in readings]
        r_ts = np.array([r[0] for r in readings], dtype=np.int64)
        r_energy = np.array([r[2] for r in readings])
        level = r_energy[1:] / np.diff(r_ts)
        rebuilt = level[np.searchsorted(r_ts, ts, side="right") - 1]
        numerator += float(np.abs(pw - rebuilt).sum())
        denominator += float(pw.sum())
    return {
        "p_percent": p,
        "e_percent": e,
        "delta_p_w": delta_p,
        "energy_wh": energy,
        "count": count,
        "nmae": numerator / denominator,
        "readings_csv": "\n".join(lines) + "\n",
    }


def _near(got, want, decimals: int) -> bool:
    """Whether ``got`` can be ``want`` rounded to ``decimals`` places: within
    half a unit of the last place, plus float slack for exact ties."""
    tol = 0.5 * 10.0**-decimals + 1e-12 * max(1.0, abs(want))
    return isinstance(got, (int, float)) and abs(got - want) <= tol


def check_sweep(
    json_bytes: bytes,
    csv_bytes: bytes,
    truth: Truth,
    p_grid: tuple[float, ...],
    e_grid: tuple[float, ...],
    cells: list[dict],
) -> list[str]:
    """Every problem found in one sweep's JSON and CSV files (empty if none)."""
    try:
        doc = json.loads(json_bytes)
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
        return _check_sweep(doc, rows, truth, p_grid, e_grid, cells)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable sweep output: {exc!r}"]


def _check_sweep(doc, rows, truth, p_grid, e_grid, cells) -> list[str]:
    errors = []
    facts = trace_facts(truth)
    stats = doc["stats"]
    for key in ("duration_s", "gap_count"):
        if stats[key] != facts[key]:
            errors.append(f"stats.{key} is {stats[key]}, expected {facts[key]}")
    for key in ("peak_power_w", "peak_variation_w", "total_energy_wh", "mean_daily_energy_wh"):
        if not _near(stats[key], facts[key], 2):
            errors.append(f"stats.{key} is {stats[key]}, expected {facts[key]:.2f}")
    if not _near(stats["coverage"], facts["coverage"], 6):
        errors.append(f"stats.coverage is {stats['coverage']}, expected {facts['coverage']:.6f}")

    durations = [int(truth.timestamps[b - 1]) + 1 - int(truth.timestamps[a])
                 for a, b in segment_bounds(truth.timestamps)]
    reference = sum(-(-d // REFERENCE_DT) for d in durations)
    time_rows = doc["time_based"]
    if [r["dt"] for r in time_rows] != list(DT_GRID):
        errors.append(f"time_based dt values {[r['dt'] for r in time_rows]} != {list(DT_GRID)}")
    for r in time_rows:
        want = sum(-(-d // r["dt"]) for d in durations)
        if r["count"] != want:
            errors.append(f"time dt={r['dt']}: count {r['count']}, expected {want}")
        if not 0.0 <= r["nmae"] <= 2.0:
            errors.append(f"time dt={r['dt']}: nmae {r['nmae']} out of range")

    event_rows = doc["event_based"]
    grid = [(p, e) for p in p_grid for e in e_grid]
    if [(r["p_percent"], r["e_percent"]) for r in event_rows] != grid:
        errors.append("event_based cells differ from the requested grid")
    by_cell = {(r["p_percent"], r["e_percent"]): r for r in event_rows}
    for r in event_rows:
        delta_p, energy = thresholds(facts, r["p_percent"], r["e_percent"])
        cell = f"event {r['p_percent']:g}/{r['e_percent']:g}"
        if not (_near(r["delta_p_w"], delta_p, 2) and _near(r["energy_wh"], energy, 2)):
            errors.append(f"{cell}: thresholds {r['delta_p_w']}/{r['energy_wh']}, "
                          f"expected {delta_p}/{energy}")
        if r["count"] < 1 or not _near(r["compression_vs_10s"], reference / r["count"], 6):
            errors.append(f"{cell}: count {r['count']} and compression "
                          f"{r['compression_vs_10s']} disagree with {reference} reference messages")
    for oracle in cells:
        r = by_cell.get((oracle["p_percent"], oracle["e_percent"]))
        cell = f"event {oracle['p_percent']:g}/{oracle['e_percent']:g}"
        if r is None:
            errors.append(f"{cell}: missing from the sweep")
            continue
        if r["count"] != oracle["count"]:
            errors.append(f"{cell}: count {r['count']}, brute-force oracle {oracle['count']}")
        if not _near(r["nmae"], oracle["nmae"], 6):
            errors.append(f"{cell}: nmae {r['nmae']}, brute-force oracle {oracle['nmae']:.9f}")

    expected = [("time", str(r["dt"]), r["count"], r["nmae"]) for r in time_rows]
    expected += [("event", "", r["count"], r["nmae"]) for r in event_rows]
    got = [(row["strategy"], row["dt"], int(row["count"]), float(row["nmae"])) for row in rows]
    if got != expected:
        errors.append("sweep CSV rows disagree with the sweep JSON")
    return errors


def check_readings(csv_text: str, truth: Truth, oracle: dict) -> list[str]:
    """Check one ``sample --strategy event`` CSV: reading for reading equal
    to the brute-force oracle, and the energies of each segment's stream
    summing to that segment's energy."""
    errors = []
    want = oracle["readings_csv"].splitlines()
    got = csv_text.splitlines()
    if got != want:
        first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        errors.append(f"readings differ from the brute-force oracle at line {first + 1} "
                      f"({len(got)} lines, oracle {len(want)})")
    streams: list[list[float]] = []
    for line in got[1:]:
        fields = line.split(",")
        if len(fields) != 4:
            return errors + [f"malformed readings line {line!r}"]
        if fields[1] == "initial":
            streams.append([])
        elif streams:
            streams[-1].append(float(fields[2]))
    bounds = segment_bounds(truth.timestamps)
    if len(streams) != len(bounds):
        return errors + [f"{len(streams)} event streams for {len(bounds)} segments"]
    for k, ((a, b), energies) in enumerate(zip(bounds, streams)):
        segment_wh = float(truth.powers[a:b].sum()) / 3600.0
        tolerance = (len(energies) + 1) * 5e-7 + 1e-9  # each energy rounded to 6 places
        if abs(math.fsum(energies) - segment_wh) > tolerance:
            errors.append(f"segment {k}: stream energy {math.fsum(energies):.6f} Wh, "
                          f"segment energy {segment_wh:.6f} Wh")
    return errors
