"""Exception types raised by meterdelta."""
from __future__ import annotations


class MeterDeltaError(Exception):
    """Base class for every error raised by this package."""


class EmptyInputError(MeterDeltaError):
    """No samples were provided, or none could be parsed."""


class NonFiniteError(MeterDeltaError):
    """A sample carries a NaN or infinite value."""

    def __init__(self, timestamp):
        super().__init__(f"non-finite sample at timestamp {timestamp}")
        self.timestamp = timestamp


class TimestampRangeError(MeterDeltaError):
    """A timestamp, or the end of its one-second interval, is past int64."""

    def __init__(self, timestamp):
        super().__init__(f"timestamp {timestamp} is outside the range [-2**63, 2**63 - 1)")
        self.timestamp = timestamp


class NegativePowerError(MeterDeltaError):
    """A sample reports negative power."""

    def __init__(self, timestamp, power):
        super().__init__(f"negative power {power} W at timestamp {timestamp}")
        self.timestamp = timestamp
        self.power = power


class DegenerateTraceError(MeterDeltaError):
    """The trace has no pair of samples exactly one resolution step apart."""


class ParseError(MeterDeltaError):
    """A line or row of an input file could not be parsed."""

    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class MissingColumnError(MeterDeltaError):
    """A required column is absent from a CSV header."""

    def __init__(self, name):
        super().__init__(f"required column {name!r} not found in header")
        self.name = name


class DegenerateStatsError(MeterDeltaError):
    """Threshold derivation was asked to scale a zero or infinite base."""


class MismatchedSegmentError(MeterDeltaError):
    """A reading stream and a segment do not describe the same span."""


class ZeroEnergySegmentError(MeterDeltaError):
    """NMAE is undefined on a segment whose powers sum to zero."""


class ZeroCandidateError(MeterDeltaError):
    """Compression ratio needs at least one candidate message."""
