"""Event-based electricity metering with autonomously derived thresholds.

The library models high-resolution (1 Hz) mains power traces, derives
send-on-delta trigger thresholds from a trace's own statistics, produces
reading streams under event-based or periodic metering, and scores the
reconstructed signals with NMAE and compression metrics.
"""
from .errors import (
    DegenerateStatsError,
    DegenerateTraceError,
    EmptyInputError,
    MeterDeltaError,
    MismatchedSegmentError,
    MissingColumnError,
    NegativePowerError,
    NonFiniteError,
    ParseError,
    TimestampRangeError,
    ZeroCandidateError,
    ZeroEnergySegmentError,
)
from .evaluate import (
    COMPRESSION_REFERENCE_DT,
    DEFAULT_DT_GRID,
    EvalResult,
    SweepResult,
    compression_ratio,
    error_components,
    nmae,
    reconstruct,
    run_sweep,
)
from .ingest import (
    combine_mains,
    load_csv,
    load_redd_channel,
    load_redd_house,
)
from .sampler import (
    ReadingStream,
    message_count,
    sample_event_based,
    sample_time_based,
)
from .thresholds import (
    DEFAULT_PERCENT_GRID,
    Thresholds,
    ThresholdSpec,
    derive_thresholds,
    threshold_grid,
)
from .trace import (
    DiffDistribution,
    PowerTrace,
    TraceStats,
    first_difference_distribution,
    segment_trace,
    trace_stats,
    validate_trace,
)

__version__ = "0.1.0"

__all__ = [
    "COMPRESSION_REFERENCE_DT",
    "DEFAULT_DT_GRID",
    "DEFAULT_PERCENT_GRID",
    "DegenerateStatsError",
    "DegenerateTraceError",
    "DiffDistribution",
    "EmptyInputError",
    "EvalResult",
    "MeterDeltaError",
    "MismatchedSegmentError",
    "MissingColumnError",
    "NegativePowerError",
    "NonFiniteError",
    "ParseError",
    "PowerTrace",
    "ReadingStream",
    "SweepResult",
    "ThresholdSpec",
    "Thresholds",
    "TimestampRangeError",
    "TraceStats",
    "ZeroCandidateError",
    "ZeroEnergySegmentError",
    "combine_mains",
    "compression_ratio",
    "derive_thresholds",
    "error_components",
    "first_difference_distribution",
    "load_csv",
    "load_redd_channel",
    "load_redd_house",
    "message_count",
    "nmae",
    "reconstruct",
    "run_sweep",
    "sample_event_based",
    "sample_time_based",
    "segment_trace",
    "threshold_grid",
    "trace_stats",
    "validate_trace",
]
