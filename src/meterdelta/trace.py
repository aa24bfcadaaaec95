"""Core data model for 1 Hz power traces.

A trace is a sequence of (timestamp, power) samples on a one-second grid
with the left-hold convention: the sample at time t holds its power constant
over [t, t+1). Gaps (missing seconds) stay explicit. Statistics only ever
sum what is present, and first differences are taken only between samples
that are exactly one resolution step apart, so gaps never manufacture
artificial power spikes.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    DegenerateTraceError,
    EmptyInputError,
    NegativePowerError,
    NonFiniteError,
    TimestampRangeError,
)

log = logging.getLogger(__name__)

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0

# raw samples, as loaded from a file: int64 epoch seconds, float64 watts
SAMPLE_DTYPE = np.dtype([("timestamp", np.int64), ("power", np.float64)])

# steps that trace_stats and segment_trace read at once: a trace-sized temporary would
# lift a sweep's peak memory above its ingest's
_BLOCK = 2**13


def _private(values, dtype) -> np.ndarray:
    """values as a contiguous read-only array that no caller can write: a
    copy only if values could still be written, itself or through a base."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    link = arr if arr is values or arr.base is not None else None  # None: a fresh array
    while isinstance(link, np.ndarray) and not link.flags.writeable:
        link = link.base
    if link is not None:  # a writable array, or a buffer numpy cannot see into
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _set_columns(record, **dtypes) -> None:
    """Replace each named field of a frozen dataclass record by _private(field,
    dtype); the columns must be non-empty, equal-length 1-d arrays."""
    columns = [_private(getattr(record, name), dtype) for name, dtype in dtypes.items()]
    if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns):
        raise ValueError(f"{' and '.join(dtypes)} must be equal-length 1-d arrays")
    if columns[0].size == 0:
        raise ValueError(f"a {type(record).__name__} needs at least one sample")
    for name, column in zip(dtypes, columns):
        object.__setattr__(record, name, column)


@dataclass(frozen=True, eq=False)
class PowerTrace:
    """Validated power trace. Build one with :func:`validate_trace`.

    Timestamps are strictly increasing integer epoch seconds below 2**63 - 1;
    powers are finite, non-negative watts. Arrays are frozen after
    construction, so a trace can be shared across threads freely: a column
    the caller could still write, itself or through a base, is copied first.
    """

    timestamps: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        _set_columns(self, timestamps=np.int64, powers=np.float64)
        ts, pw = self.timestamps, self.powers
        if ts.size > 1 and not np.all(ts[1:] > ts[:-1]):
            raise ValueError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(pw)) or np.any(pw < 0):
            raise ValueError("powers must be finite and non-negative")
        if ts[-1] == 2**63 - 1:  # its hold interval [t, t + 1) would end past int64
            raise TimestampRangeError(2**63 - 1)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def start(self) -> int:
        return int(self.timestamps[0])

    @property
    def end(self) -> int:
        """Exclusive end of coverage: one hold interval past the last sample."""
        return int(self.timestamps[-1]) + 1

    @property
    def duration(self) -> int:
        return self.end - self.start

    @cached_property  # summed once: the powers are frozen
    def total_energy_ws(self) -> float:
        return float(self.powers.sum())

    @cached_property
    def _cumulative_ws(self) -> np.ndarray:
        """Energy before each sample and after the last: entry i sums the
        first i powers in order, so differences of entries telescope."""
        cumulative = np.empty(self.powers.size + 1)
        cumulative[0] = 0.0
        np.cumsum(self.powers, out=cumulative[1:])
        cumulative.flags.writeable = False
        return cumulative

    @property
    def total_energy_wh(self) -> float:
        return self.total_energy_ws / SECONDS_PER_HOUR


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one trace.

    peak_variation_w is the largest one-second power change; changes across
    gaps are never counted. Energies are watt-hours.
    """

    peak_power_w: float
    peak_variation_w: float
    total_energy_wh: float
    mean_daily_energy_wh: float
    coverage: float
    duration_s: int
    gap_count: int


class DiffDistribution(NamedTuple):
    """Sorted, normalized curve of one-second power changes.

    rank_percent[i] is (i + 1) / n for the i-th largest change, so the curve
    is ready for log-log plotting; normalized_delta is each |change| divided
    by the largest one.
    """

    rank_percent: np.ndarray
    normalized_delta: np.ndarray


def _as_samples(raw) -> np.ndarray:
    """raw as a SAMPLE_DTYPE array; a (t, p) pair becomes (int(t), p)."""
    if isinstance(raw, np.ndarray) and raw.dtype == SAMPLE_DTYPE:
        return raw
    pairs = list(raw)
    for t, _ in pairs:
        if t != t or t in (math.inf, -math.inf):
            raise NonFiniteError(t)
    return _sample_array([int(t) for t, _ in pairs], [p for _, p in pairs])


def _sample_array(timestamps, powers) -> np.ndarray:
    """Pack equal-length timestamp (Python int or int64) and power columns."""
    samples = np.empty(len(timestamps), dtype=SAMPLE_DTYPE)
    try:
        samples["timestamp"] = timestamps
    except OverflowError:
        raise TimestampRangeError(next(t for t in timestamps if not -(2**63) <= t < 2**63)) from None
    samples["power"] = powers
    return samples


def _keep_last(ts: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Of the row indices order, stably sorted by their timestamps ts[order], the last of
    each timestamp (a meter overwriting its own reading), in order, as a fresh array."""
    sorted_ts = ts[order]
    last = np.ones(order.size, dtype=bool)  # the final row always stays
    np.not_equal(sorted_ts[:-1], sorted_ts[1:], out=last[:-1])
    del sorted_ts  # before the gather, which sets the peak
    return order[last]


def _last_value_wins(samples: np.ndarray) -> np.ndarray | None:
    """The indices of samples' rows in timestamp order (their stable argsort, cut by _keep_last
    to the last row of each timestamp), or None when every row stays, in place."""
    ts = samples["timestamp"]
    if (ts[1:] > ts[:-1]).all():  # strictly increasing: the stable sort is the identity
        return None
    rows = _keep_last(ts, np.argsort(ts, kind="stable"))  # keeps equal timestamps in input order
    if rows.size < ts.size:
        log.warning("collapsed %d duplicate timestamps (last value wins)", ts.size - rows.size)
    return rows


def _check_powers(samples: np.ndarray) -> None:
    """Raise NonFiniteError or NegativePowerError at the first sample, in
    input order, whose power is not a finite, non-negative number."""
    ts, pw = samples["timestamp"], samples["power"]
    if not np.isfinite(pw).all():
        raise NonFiniteError(int(ts[np.argmin(np.isfinite(pw))]))
    if (pw < 0).any():
        row = int(np.argmax(pw < 0))
        raise NegativePowerError(int(ts[row]), float(pw[row]))


def validate_trace(raw: np.ndarray | Iterable[tuple[float, float]]) -> PowerTrace:
    """Turn raw samples into a :class:`PowerTrace`.

    raw is a SAMPLE_DTYPE array or (timestamp, power) pairs: integer
    timestamps are exact, fractional ones truncate toward zero. Input is
    sorted; duplicate timestamps keep the value seen last, with a warning.

    Raises:
        EmptyInputError: raw contains no samples.
        NonFiniteError: any timestamp or power is NaN or infinite.
        TimestampRangeError: any timestamp falls outside [-2**63, 2**63 - 1).
        NegativePowerError: any power is below zero.
    """
    samples = _as_samples(raw)
    if samples.size == 0:
        raise EmptyInputError("no samples")
    _check_powers(samples)
    rows, ts, pw = _last_value_wins(samples), samples["timestamp"], samples["power"]
    if rows is not None:  # fresh gathers, frozen so that PowerTrace keeps them uncopied
        ts, pw = ts[rows], pw[rows]
        ts.flags.writeable = pw.flags.writeable = False
    return PowerTrace(ts, pw)


def _steps(timestamps: np.ndarray) -> np.ndarray:
    """Differences of increasing timestamps, exact on the uint64 view even 2**63 s apart."""
    return np.diff(timestamps.view(np.uint64))


def _step_blocks(timestamps: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(first, steps) per block of up to _BLOCK steps, in order: steps[i] is _steps' entry
    first + i. Each block starts at the previous one's last sample, so every step is in
    exactly one; all blocks share one buffer, which the next block overwrites."""
    ts = timestamps.view(np.uint64)
    buffer = np.empty(min(_BLOCK, ts.size - 1), np.uint64)
    for first in range(0, ts.size - 1, _BLOCK):
        steps = buffer[:min(_BLOCK, ts.size - 1 - first)]
        np.subtract(ts[first + 1:first + 1 + steps.size], ts[first:first + steps.size], out=steps)
        yield first, steps


def trace_stats(trace: PowerTrace) -> TraceStats:
    """Compute :class:`TraceStats` for a validated trace, reading it a block at a time."""
    pw, duration = trace.powers, trace.duration
    peak_variation, gap_count = 0.0, 0
    changes = np.empty(min(_BLOCK, pw.size - 1))
    for first, steps in _step_blocks(trace.timestamps):
        block = changes[:steps.size]
        np.subtract(pw[first + 1:first + 1 + block.size], pw[first:first + block.size], out=block)
        np.abs(block, out=block)
        peak_variation = np.max(block, where=steps == 1, initial=peak_variation)
        gap_count += int(np.count_nonzero(steps > 1))
    return TraceStats(
        peak_power_w=float(pw.max()),
        peak_variation_w=float(peak_variation),
        total_energy_wh=trace.total_energy_wh,
        mean_daily_energy_wh=trace.total_energy_wh / (duration / SECONDS_PER_DAY),
        coverage=len(trace) / duration,
        duration_s=duration,
        gap_count=gap_count,
    )


def segment_trace(trace: PowerTrace, max_gap: int) -> list[PowerTrace]:
    """Split the trace wherever consecutive timestamps differ by more than
    max_gap seconds. The segments are traces that partition the samples in
    order; each covers [start, end) with end exclusive."""
    if max_gap < 1:
        raise ValueError("max_gap must be >= 1")
    cuts = []  # the first sample of each segment after the first
    for first, steps in _step_blocks(trace.timestamps):
        cuts += (np.flatnonzero(steps > max_gap) + (first + 1)).tolist()
    if log.isEnabledFor(logging.DEBUG):
        for cut in cuts:
            before, after = int(trace.timestamps[cut - 1]), int(trace.timestamps[cut])
            log.debug("split at the gap [%d, %d) of %d s", before + 1, after, after - before - 1)
    bounds = [0, *cuts, len(trace)]
    return [
        PowerTrace(trace.timestamps[a:b], trace.powers[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def first_difference_distribution(trace: PowerTrace) -> DiffDistribution:
    """Sorted, normalized magnitudes of the one-second power changes.

    Zero-valued changes are retained. An all-constant trace normalizes to
    zeros rather than failing; a trace with no adjacent sample pair at all
    raises DegenerateTraceError.
    """
    diffs = np.sort(np.abs(np.diff(trace.powers))[_steps(trace.timestamps) == 1])[::-1]
    if diffs.size == 0:
        raise DegenerateTraceError("no pair of samples exactly one resolution step apart")
    peak = diffs[0]
    normalized = diffs / peak if peak > 0 else np.zeros_like(diffs)
    rank = np.arange(1, diffs.size + 1, dtype=np.float64) / diffs.size
    return DiffDistribution(rank, np.ascontiguousarray(normalized))
