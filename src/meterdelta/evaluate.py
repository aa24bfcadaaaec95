"""Score reading streams against the traces they were sampled from.

Reconstruction spreads each reading's energy uniformly over its interval,
yielding a piecewise-constant average-power signal on the segment's grid.
NMAE is the sum of absolute per-second errors divided by the sum of the
original powers; it penalizes large deviations less brutally than squared
metrics, which matters for spiky household signals. Sweeps evaluate whole
grids of periodic and event parameters, deriving thresholds once from
whole-trace statistics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    MismatchedSegmentError,
    ZeroCandidateError,
    ZeroEnergySegmentError,
)
from .sampler import ReadingStream, message_count, sample_event_based, sample_time_based
from .thresholds import Thresholds, ThresholdSpec, threshold_grid
from .trace import PowerTrace, TraceStats, _steps, merge_segments, trace_stats

DEFAULT_DT_GRID = (10, 30, 60, 300, 600, 900, 1800, 3600, 7200)
COMPRESSION_REFERENCE_DT = 10


@dataclass(frozen=True)
class EvalResult:
    """NMAE, message count and compression for one strategy/parameter point."""

    strategy: str  # "time" or "event"
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

    trace_id: str
    stats: TraceStats
    time_based: tuple[EvalResult, ...]
    event_based: tuple[EvalResult, ...]


def _held_powers(stream: ReadingStream, segment: PowerTrace) -> np.ndarray:
    """The powers of reconstruct(stream, segment), without building a trace."""
    reading_ts = stream.timestamps
    ends = (stream.segment_start, stream.segment_end, int(reading_ts[0]), int(reading_ts[-1]))
    if ends != (segment.start, segment.end) * 2:
        raise MismatchedSegmentError(f"stream of [{ends[0]}, {ends[1]}) with readings {ends[2]}.."
                                     f"{ends[3]} does not fit segment [{segment.start}, {segment.end})")
    interval_power = stream.energy_ws[1:] / _steps(reading_ts).astype(np.float64)
    return np.repeat(interval_power, np.diff(np.searchsorted(segment.timestamps, reading_ts)))


def reconstruct(stream: ReadingStream, segment: PowerTrace) -> PowerTrace:
    """Rebuild the average-power signal a receiver would infer from a stream.

    For each consecutive reading pair (previous at t0, current at t1), every
    grid second in [t0, t1) takes the value energy / (t1 - t0). The result
    shares the segment's timestamps, so it sits on the same present-sample
    grid. The stream must have been produced from the given segment.
    """
    return PowerTrace(segment.timestamps, _held_powers(stream, segment))


def _residual(original: PowerTrace, reconstructed: PowerTrace) -> np.ndarray:
    """Per-second original minus reconstructed power, once both are known
    to sit on the same grid."""
    if not np.array_equal(original.timestamps, reconstructed.timestamps):
        raise MismatchedSegmentError("reconstruction is not on the segment's grid")
    return original.powers - reconstructed.powers


def error_components(original: PowerTrace, reconstructed: PowerTrace) -> tuple[float, float]:
    """Numerator and denominator of NMAE, for aggregation across segments."""
    numerator = float(np.abs(_residual(original, reconstructed)).sum())
    denominator = float(original.powers.sum())
    return numerator, denominator


def nmae(original: PowerTrace, reconstructed: PowerTrace) -> float:
    """Sum of absolute per-second errors over the sum of original powers."""
    numerator, denominator = error_components(original, reconstructed)
    if denominator <= 0:
        raise ZeroEnergySegmentError("original powers sum to zero")
    return numerator / denominator


def rmse(original: PowerTrace, reconstructed: PowerTrace) -> float:
    """Root-mean-square error in watts. Secondary metric only; it punishes
    the large deviations periodic averaging produces far harder than NMAE."""
    return float(np.sqrt(np.mean(_residual(original, reconstructed) ** 2)))


def compression_ratio(reference_count: int, candidate_count: int) -> float:
    """How many reference messages each candidate message replaces."""
    if candidate_count < 1:
        raise ZeroCandidateError("candidate stream has no messages")
    return reference_count / candidate_count


def _pooled_score(segments: Sequence[PowerTrace], streams: Sequence[ReadingStream]) -> tuple[float, int]:
    """NMAE pooled across segments (numerators and denominators summed
    before the division) plus the total message count."""
    numerator = sum(float(np.abs(seg.powers - _held_powers(stream, seg)).sum())
                    for seg, stream in zip(segments, streams))
    denominator = sum(seg.total_energy_ws for seg in segments)
    count = sum(map(message_count, streams))
    if denominator <= 0:
        raise ZeroEnergySegmentError("trace powers sum to zero")
    return numerator / denominator, count


def run_sweep(
    segments: Sequence[PowerTrace],
    dt_list: Sequence[int],
    p_list: Sequence[float],
    e_list: Sequence[float],
    spec: ThresholdSpec,
    *,
    trace_id: str = "trace",
    stats: TraceStats | None = None,
) -> SweepResult:
    """Evaluate every periodic and event grid point for one trace.

    Thresholds derive once from whole-trace statistics even when the trace
    is split into segments; each grid point is then sampled and scored per
    segment and pooled. compression_vs_10s always compares against the 10 s
    periodic strategy, whether or not 10 appears in dt_list.
    """
    segments = list(segments)
    if not segments:
        raise ValueError("need at least one segment")
    dt_values = [int(dt) for dt in dict.fromkeys(dt_list)]
    if not dt_values:
        raise ValueError("dt_list must be non-empty")
    if stats is None:
        stats = trace_stats(merge_segments(segments))
    # the reference meter sends one message per window, partial or not
    reference_count = sum(-(-s.duration // COMPRESSION_REFERENCE_DT) for s in segments)

    time_rows = []
    for dt in dt_values:
        streams = [sample_time_based(s, dt) for s in segments]
        score, count = _pooled_score(segments, streams)
        time_rows.append(
            EvalResult("time", score, count, compression_ratio(reference_count, count), dt=dt)
        )

    event_rows = []
    for p, e, th in threshold_grid(stats, p_list, e_list, spec):
        streams = [sample_event_based(s, th) for s in segments]
        score, count = _pooled_score(segments, streams)
        event_rows.append(
            EvalResult(
                "event",
                score,
                count,
                compression_ratio(reference_count, count),
                p_percent=float(p),
                e_percent=float(e),
                thresholds=th,
            )
        )
    return SweepResult(trace_id, stats, tuple(time_rows), tuple(event_rows))
