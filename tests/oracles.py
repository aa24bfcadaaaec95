"""Independent reference implementations used to check the library.

The brute-force oracles are per-second walks over the wall clock and
from-scratch slice sums, sharing no code path or running state with the
samplers under test. Traces produced by the step generators carry
integer-valued powers so that both routes compute exact float sums and
reading-for-reading comparison can demand strict equality. The
python_event_readings loop instead repeats the event sampler's own float
operations, so it can demand bit equality on any powers, and
indexed_held_powers is reconstruct's former index route, with the same
bit-equality demand on held powers. sorted_leg_sum is combine_mains'
former route, which sorted each second's leg powers before summing, and
unique_last_value_wins its former deduplication through np.unique.
whole_trace_stats and whole_trace_cuts are trace_stats and segment_trace's
cut search as they were before they read the trace in blocks, with the same
bit-equality demand. reference_sweep chains these oracles into a whole sweep
of a house directory.

bench/gen.py loads this file by path, without the package on sys.path, so
every meterdelta import stays inside the function that needs it.
"""
from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np


def random_step_trace(rng, length=1000, max_power=5000, max_dwell=60, start=None):
    """Piecewise-constant random trace on a contiguous 1 s grid."""
    if start is None:
        start = int(rng.integers(0, 10**6))
    powers: list[float] = []
    while len(powers) < length:
        level = float(rng.integers(0, max_power + 1))
        powers.extend([level] * int(rng.integers(1, max_dwell + 1)))
    powers = powers[:length]
    return [(start + t, p) for t, p in enumerate(powers)]


def random_gappy_trace(rng, length=1000, max_power=5000, gap_chance=0.02, max_gap=200):
    """Step trace with occasional missing stretches."""
    samples = random_step_trace(rng, length, max_power)
    out = []
    t = samples[0][0]
    for _, p in samples:
        out.append((t, p))
        t += 1
        if rng.random() < gap_chance:
            t += int(rng.integers(1, max_gap + 1))
    return out


def random_thresholds(rng):
    """Threshold draw covering finite, infinite and silence-enabled cases."""
    power_delta = float(rng.integers(20, 2001)) if rng.random() < 0.8 else math.inf
    energy_wh = float(rng.integers(10, 501)) / 10.0 if rng.random() < 0.8 else math.inf
    silence = int(rng.integers(20, 301)) if rng.random() < 0.3 else None
    if math.isinf(power_delta) and math.isinf(energy_wh) and silence is None:
        power_delta = float(rng.integers(20, 2001))
    return power_delta, energy_wh, silence


def brute_force_event_readings(timestamps, powers, power_delta_w, energy_wh, max_silence_s=None):
    """Per-second replay of the send-on-delta rules.

    Walks the wall clock second by second and recomputes the accumulated
    energy from scratch at every present second instead of carrying a
    running total. Returns (timestamp, trigger, energy_ws, power_w) tuples.
    """
    ts = [int(t) for t in timestamps]
    pw = [float(p) for p in powers]
    start, end = ts[0], ts[-1] + 1
    per_second = np.zeros(end - start)
    present = np.zeros(end - start, dtype=bool)
    value_at = {}
    for t, p in zip(ts, pw):
        per_second[t - start] = p
        present[t - start] = True
        value_at[t] = p
    energy_limit_ws = float(energy_wh) * 3600.0

    readings = [(start, "initial", 0.0, pw[0])]
    t_last, p_ref = start, pw[0]
    for t in range(start + 1, end):
        if not present[t - start]:
            continue
        acc = float(per_second[t_last - start : t - start].sum())
        p = value_at[t]
        if abs(p - p_ref) >= power_delta_w:
            trigger = "power_delta"
        elif acc >= energy_limit_ws:
            trigger = "energy"
        elif max_silence_s is not None and t - t_last >= max_silence_s:
            trigger = "silence"
        else:
            continue
        readings.append((t, trigger, acc, p))
        t_last, p_ref = t, p
    acc = float(per_second[t_last - start :].sum())
    readings.append((end, "final", acc, pw[-1]))
    return readings


def python_event_readings(segment, th):
    """The send-on-delta scan as a plain Python loop over one segment.

    This is the loop the library ran before the scan was compiled, kept as
    the exact-float reference: the kernel must perform the same float
    operations in the same order, so every column must match bit for bit,
    on non-integer powers too. Returns a ReadingStream.
    """
    from meterdelta.sampler import ENERGY, FINAL, INITIAL, POWER_DELTA, SILENCE, ReadingStream
    from meterdelta.trace import SECONDS_PER_HOUR

    ts = segment.timestamps.tolist()
    pw = segment.powers.tolist()
    start, end = segment.start, segment.end
    power_delta_w = th.power_delta_w
    energy_ws = th.energy_wh * SECONDS_PER_HOUR  # inf stays inf
    silence = th.max_silence_s

    stamps, triggers, energies = [start], [INITIAL], [0.0]
    t_last, p_ref, acc = start, pw[0], 0.0
    for i in range(1, len(ts)):
        t = ts[i]
        p = pw[i]
        acc += pw[i - 1]
        if abs(p - p_ref) >= power_delta_w:
            trigger = POWER_DELTA
        elif acc >= energy_ws:
            trigger = ENERGY
        elif silence is not None and t - t_last >= silence:
            trigger = SILENCE
        else:
            continue
        stamps.append(t)
        triggers.append(trigger)
        energies.append(acc)
        t_last, p_ref, acc = t, p, 0.0
    acc += pw[-1]
    stamps.append(end)
    triggers.append(FINAL)
    energies.append(acc)
    return ReadingStream(stamps, triggers, energies)


def indexed_held_powers(stream, segment):
    """Each sample's reconstructed power, looked up the way reconstruct did
    before it repeated interval powers: searchsorted finds the reading
    interval [t0, t1) holding every sample. Returns a float64 array."""
    reading_ts = stream.timestamps
    # differences on the uint64 view, exact for readings up to 2**64 - 1 s apart
    interval_power = stream.energy_ws[1:] / np.diff(reading_ts.view(np.uint64)).astype(np.float64)
    idx = np.searchsorted(reading_ts, segment.timestamps, side="right") - 1
    return interval_power[idx]


def sorted_leg_sum(channels):
    """The mains total the way combine_mains summed it before it added the
    legs in channel order: the timestamps in every channel (later
    duplicates win), and per second the sum of the sorted leg powers.
    Returns (timestamps list, float64 powers)."""
    legs = [dict(channel) for channel in channels]
    common = sorted(set.intersection(*(set(leg) for leg in legs)))
    powers = np.sort(np.array([[leg[t] for t in common] for leg in legs], dtype=np.float64), 0)
    return common, powers.sum(axis=0)


def unique_last_value_wins(samples):
    """A SAMPLE_DTYPE array sorted by timestamp, keeping the last row of
    equal timestamps, the way trace._last_value_wins did before it sorted
    stably: np.unique indexes first occurrences, so it reads the rows
    reversed."""
    reverse = samples[::-1]
    _, last = np.unique(reverse["timestamp"], return_index=True)
    return reverse[last]


def _whole_steps(timestamps):
    """Every step between consecutive timestamps at once, exact on the uint64 view."""
    return np.diff(timestamps.view(np.uint64))


def whole_trace_stats(trace):
    """trace_stats from first differences and steps of the whole trace at once,
    the way the library computed them before it read the trace in blocks."""
    from meterdelta.trace import SECONDS_PER_DAY, TraceStats

    steps = _whole_steps(trace.timestamps)
    changes = np.abs(np.diff(trace.powers))[steps == 1]
    duration = trace.duration
    return TraceStats(
        peak_power_w=float(trace.powers.max()),
        peak_variation_w=float(changes.max()) if changes.size else 0.0,
        total_energy_wh=trace.total_energy_wh,
        mean_daily_energy_wh=trace.total_energy_wh / (duration / SECONDS_PER_DAY),
        coverage=len(trace) / duration,
        duration_s=duration,
        gap_count=int(np.count_nonzero(steps > 1)),
    )


def whole_trace_cuts(timestamps, max_gap):
    """The index of every sample more than max_gap seconds after the one before
    it, found over the whole trace at once, as segment_trace did before it read
    the trace in blocks. Returns a list of ints."""
    return (np.flatnonzero(_whole_steps(timestamps) > max_gap) + 1).tolist()


def brute_force_time_readings(timestamps, powers, delta_t):
    """Window sums recomputed per window with plain python arithmetic."""
    ts = [int(t) for t in timestamps]
    pw = [float(p) for p in powers]
    start, end = ts[0], ts[-1] + 1
    value_at = dict(zip(ts, pw))

    readings = [(start, "initial", 0.0, pw[0])]
    left = start
    while left < end:
        right = min(left + delta_t, end)
        acc = 0.0
        for s in range(left, right):
            if s in value_at:
                acc += value_at[s]
        probe = right
        while probe not in value_at:
            probe -= 1
        trigger = "window" if right == left + delta_t else "final"
        readings.append((right, trigger, acc, value_at[probe]))
        left = right
    return readings


def stream_tuples(stream, segment):
    """Flatten a ReadingStream sampled from segment into (timestamp, trigger,
    energy_ws, power_w) tuples for comparison against oracle output, each
    reading's power derived from the segment as `meterdelta sample` writes it."""
    # imported here so that the generators above need only numpy
    from meterdelta.sampler import TRIGGERS, _powers_at

    return list(
        zip(
            stream.timestamps.tolist(),
            [TRIGGERS[code] for code in stream.triggers.tolist()],
            stream.energy_ws.tolist(),
            _powers_at(segment, stream.timestamps).tolist(),
        )
    )


def closed_form_time_readings(segment, delta_t):
    """Periodic readings of one segment from the window arithmetic alone: the
    window k covers [start + k * delta_t, start + (k + 1) * delta_t), cut at the
    segment end, and its energy is the plain sum of the powers in it.
    Returns a ReadingStream."""
    from meterdelta.sampler import FINAL, INITIAL, WINDOW, ReadingStream

    start, end = segment.start, segment.end
    windows = -(-(end - start) // delta_t)
    energies = [0.0] * (windows + 1)
    for t, p in zip(segment.timestamps.tolist(), segment.powers.tolist()):
        energies[(t - start) // delta_t + 1] += p
    stamps = [start, *(min(start + k * delta_t, end) for k in range(1, windows + 1))]
    triggers = [INITIAL] + [WINDOW] * windows
    if (end - start) % delta_t:
        triggers[-1] = FINAL
    return ReadingStream(stamps, triggers, energies)


def reference_sweep(house_dir, dt_list, p_list, e_list, spec, max_gap):
    """What `meterdelta sweep` must report for a two-leg house directory,
    built from the oracles above: each leg parsed by the line parser from a
    text stream, deduplicated by unique_last_value_wins and summed by
    sorted_leg_sum; the trace cut where a step exceeds max_gap; periodic rows
    from closed_form_time_readings and event rows from python_event_readings,
    each scored by reconstruct and error_components pooled over the segments.
    Statistics come from whole_trace_stats, and thresholds from the
    library's threshold_grid, which has no oracle.
    Returns a SweepResult; raises as the library does on a degenerate trace."""
    from meterdelta import (EvalResult, PowerTrace, SweepResult, error_components,
                            load_redd_channel, reconstruct, threshold_grid)

    legs = []
    for n in (1, 2):
        text = (Path(house_dir) / f"channel_{n}.dat").read_bytes().decode("utf-8")
        samples = unique_last_value_wins(load_redd_channel(io.StringIO(text, newline="")))
        legs.append(zip(samples["timestamp"].tolist(), samples["power"].tolist()))
    stamps, powers = sorted_leg_sum(legs)
    trace = PowerTrace(stamps, powers)
    cuts = [i for i in range(1, len(stamps)) if stamps[i] - stamps[i - 1] > max_gap]
    bounds = [0, *cuts, len(stamps)]
    segments = [PowerTrace(stamps[a:b], powers[a:b]) for a, b in zip(bounds, bounds[1:])]
    stats = whole_trace_stats(trace)
    grid = threshold_grid(stats, p_list, e_list, spec)  # first: a trace without energy fails here
    reference_count = sum(-(-seg.duration // 10) for seg in segments)  # the 10 s meter's messages

    def row(sample, **point):
        numerator = denominator = 0.0
        count = 0
        for seg in segments:
            stream = sample(seg)
            part, whole = error_components(seg, reconstruct(stream, seg))
            numerator, denominator = numerator + part, denominator + whole
            count += len(stream.timestamps) - 1
        return EvalResult(numerator / denominator, count, reference_count / count, **point)

    time_rows = [row(lambda seg: closed_form_time_readings(seg, dt), dt=dt)
                 for dt in dict.fromkeys(dt_list)]
    event_rows = [row(lambda seg: python_event_readings(seg, th), p_percent=p, e_percent=e,
                      thresholds=th) for p, e, th in grid]
    return SweepResult(stats, tuple(time_rows), tuple(event_rows))
