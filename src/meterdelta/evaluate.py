"""Score reading streams against the traces they were sampled from.

Reconstruction spreads each reading's energy uniformly over its interval,
yielding a piecewise-constant average-power signal on the segment's grid.
NMAE is the sum of absolute per-second errors divided by the sum of the
original powers; it penalizes large deviations less brutally than squared
metrics, which matters for spiky household signals. A sweep takes a whole
trace, derives its thresholds once, and scores whole grids of periodic and
event parameters on its segments. It samples each grid point's row on the
calling thread and hands it at once to one worker thread, which scores it in
one C pass per segment that drops the GIL and sums the errors in np.sum's
pairwise order, bit-equal to reconstruct's numpy route. The calling thread
waits for scores only once every row is sampled; the queued rows need no
bound, as the scan's buffers and ingest, not their streams, set peak memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import library
from .errors import (
    MismatchedSegmentError,
    ZeroCandidateError,
    ZeroEnergySegmentError,
)
from .sampler import ReadingStream, message_count, sample_event_based, sample_time_based
from .thresholds import Thresholds, ThresholdSpec, threshold_grid
from .trace import PowerTrace, TraceStats, _steps, segment_trace, trace_stats

DEFAULT_DT_GRID = (10, 30, 60, 300, 600, 900, 1800, 3600, 7200)
COMPRESSION_REFERENCE_DT = 10


@dataclass(frozen=True)
class EvalResult:
    """NMAE, message count and compression for one periodic or event grid point."""

    nmae: float
    message_count: int
    compression_vs_10s: float
    dt: int | None = None
    p_percent: float | None = None
    e_percent: float | None = None
    thresholds: Thresholds | None = None


@dataclass(frozen=True)
class SweepResult:
    """Every grid point evaluated for one trace."""

    stats: TraceStats
    time_based: tuple[EvalResult, ...]
    event_based: tuple[EvalResult, ...]


def _interval_powers(stream: ReadingStream, segment: PowerTrace) -> np.ndarray:
    """Each reading interval's power, once the readings are checked to tile
    the segment: power[k] holds from timestamps[k] to timestamps[k + 1]."""
    ts = stream.timestamps
    if (int(ts[0]), int(ts[-1])) != (segment.start, segment.end) or (ts[1:] <= ts[:-1]).any():
        raise MismatchedSegmentError(f"readings do not tile [{segment.start}, {segment.end})")
    return stream.energy_ws[1:] / _steps(ts)


def reconstruct(stream: ReadingStream, segment: PowerTrace) -> PowerTrace:
    """Rebuild the average-power signal a receiver would infer from a stream.

    For each consecutive reading pair (previous at t0, current at t1), every
    grid second in [t0, t1) takes the value energy / (t1 - t0). The result
    shares the segment's timestamps, so it sits on the same present-sample
    grid. The stream must have been produced from the given segment.
    """
    power = _interval_powers(stream, segment)
    bounds = np.searchsorted(segment.timestamps, stream.timestamps)
    return PowerTrace(segment.timestamps, np.repeat(power, np.diff(bounds)))


def error_components(original: PowerTrace, reconstructed: PowerTrace) -> tuple[float, float]:
    """Numerator and denominator of NMAE, for aggregation across segments."""
    if not np.array_equal(original.timestamps, reconstructed.timestamps):
        raise MismatchedSegmentError("reconstruction is not on the segment's grid")
    numerator = float(np.abs(original.powers - reconstructed.powers).sum())
    denominator = float(original.powers.sum())
    return numerator, denominator


def nmae(original: PowerTrace, reconstructed: PowerTrace) -> float:
    """Sum of absolute per-second errors over the sum of original powers."""
    numerator, denominator = error_components(original, reconstructed)
    if denominator <= 0:
        raise ZeroEnergySegmentError("original powers sum to zero")
    return numerator / denominator


def compression_ratio(reference_count: int, candidate_count: int) -> float:
    """How many reference messages each candidate message replaces."""
    if candidate_count < 1:
        raise ZeroCandidateError("candidate stream has no messages")
    return reference_count / candidate_count


def _pooled_score(segments: Sequence[PowerTrace], streams: Sequence[ReadingStream]) -> tuple[float, int]:
    """NMAE pooled across segments (numerators and denominators summed
    before the division) plus the total message count."""
    numerator = 0.0
    for seg, stream in zip(segments, streams):
        power = _interval_powers(stream, seg)
        numerator += library().held_error_sum(seg.timestamps, seg.powers, len(seg),
                                              stream.timestamps, power)
    denominator = sum(seg.total_energy_ws for seg in segments)
    count = sum(map(message_count, streams))
    if denominator <= 0:
        raise ZeroEnergySegmentError("trace powers sum to zero")
    return numerator / denominator, count


def run_sweep(
    trace: PowerTrace,
    dt_list: Sequence[int],
    p_list: Sequence[float],
    e_list: Sequence[float],
    spec: ThresholdSpec,
    *,
    max_gap: int,
) -> SweepResult:
    """Evaluate every periodic and event grid point for one validated trace.

    Thresholds derive once from the whole trace's statistics. The trace is
    split at gaps longer than max_gap seconds; each grid point is sampled and
    scored per segment and pooled. compression_vs_10s always compares against
    the 10 s periodic strategy, whether or not 10 appears in dt_list. Each row
    is sampled on the calling thread, in grid order, and handed at once to one
    worker thread to be scored; this thread waits for scores only after the
    last row, and an error leaves as it would from a serial loop over the rows.
    """
    dt_values = list(dict.fromkeys(dt_list))  # sample_time_based rejects a fractional dt
    if not dt_values:
        raise ValueError("dt_list must be non-empty")
    segments = segment_trace(trace, max_gap)
    stats = trace_stats(trace)
    # the reference meter sends one message per window, partial or not
    reference_count = sum(-(-s.duration // COMPRESSION_REFERENCE_DT) for s in segments)

    from concurrent.futures import ThreadPoolExecutor  # only a sweep needs it: 4 ms of import

    futures = []
    with ThreadPoolExecutor(1) as scorer:
        def row(sample, param) -> None:  # sampled here, scored pooled on the scorer thread
            streams = [sample(s, param) for s in segments]
            futures.append(scorer.submit(_pooled_score, segments, streams))

        try:
            # samplers are named here, at call time, so wrappers installed on this module
            # apply; they run on this thread alone
            for dt in dt_values:
                row(sample_time_based, dt)
            # after the periodic rows: a zero trace fails with their ZeroEnergySegmentError
            grid = threshold_grid(stats, p_list, e_list, spec)
            for _, _, th in grid:
                row(sample_event_based, th)
        finally:  # every sampled row is scored before an error leaves; the first in grid order wins
            scores = [future.result() for future in futures]
    scored = [(score, count, compression_ratio(reference_count, count)) for score, count in scores]
    # sampled without error, each dt is a whole number, which int() takes
    time_based = tuple(EvalResult(*r, dt=int(dt)) for r, dt in zip(scored, dt_values))
    event_based = tuple(EvalResult(*r, p_percent=float(p), e_percent=float(e), thresholds=th)
                        for r, (p, e, th) in zip(scored[len(dt_values):], grid))
    return SweepResult(stats, time_based, event_based)
