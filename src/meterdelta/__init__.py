"""Event-based electricity metering with autonomously derived thresholds.

The library models high-resolution (1 Hz) mains power traces, derives
send-on-delta trigger thresholds from a trace's own statistics, produces
reading streams under event-based or periodic metering, and scores the
reconstructed signals with NMAE and compression metrics.
"""
from types import ModuleType as _ModuleType

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

# every public name is written once, in the imports above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
