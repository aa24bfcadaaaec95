"""Metering strategies: periodic window averaging and send-on-delta events.

Both strategies turn a segment (a PowerTrace) into a ReadingStream, which
holds only what the receiver reads: each reading's time, trigger and energy.
A reading's power is the segment's sample at or before it (``_powers_at``).
Streams open with a zero-energy "initial" reading at the segment start (the
receiver's baseline, not a transmitted message) and close at the segment's
exclusive end, so the energies of any stream always sum to the segment's
energy.

Energies ride in watt-seconds internally: a 1 Hz integrator's native unit,
which keeps window sums and reconstruction exact. Divide by
SECONDS_PER_HOUR at presentation boundaries. Periodic windows take their
energies from the segment's cumulative sums, computed once per segment.

The send-on-delta scan is a C kernel from ``_kernels`` that writes an event
stream's three columns whole. The kernels are built with cc (never at import)
at the first event sampling, sweep scoring, channel-file parse or mains
combine, and cached in $XDG_CACHE_HOME/meterdelta/.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import library
from .thresholds import Thresholds
from .trace import SECONDS_PER_HOUR, PowerTrace, _set_columns

TRIGGERS = ("initial", "power_delta", "energy", "silence", "window", "final")
INITIAL, POWER_DELTA, ENERGY, SILENCE, WINDOW, FINAL = range(len(TRIGGERS))


@dataclass(frozen=True, eq=False)
class ReadingStream:
    """Ordered readings produced from one segment by one strategy.

    Reading i was sent at timestamps[i] because of TRIGGERS[triggers[i]].
    energy_ws[i] is the energy accumulated since reading i - 1 (zero for the
    initial baseline). The first and last timestamps are the segment's start
    and exclusive end. As in a PowerTrace, the columns are non-empty,
    equal-length 1-d arrays, frozen, each copied first if its caller could
    still write it.
    """

    timestamps: np.ndarray
    triggers: np.ndarray
    energy_ws: np.ndarray

    def __post_init__(self):
        _set_columns(self, timestamps=np.int64, triggers=np.uint8, energy_ws=np.float64)


def sample_time_based(segment: PowerTrace, delta_t: int) -> ReadingStream:
    """Periodic metering: one reading at the end of every delta_t window.

    Windows tile the segment from its start. Full windows emit "window"
    readings; a trailing partial window is flushed as a "final" reading
    covering the remainder. A reading's energy is the sum over the window's
    present samples, so windows inside data gaps emit zero energy.
    """
    if not 1 <= delta_t < math.inf or delta_t != int(delta_t):  # nan and inf fail before int()
        raise ValueError("delta_t must be an integer >= 1")
    delta_t = int(delta_t)
    start, end = segment.start, segment.end
    full, partial = divmod(segment.duration, delta_t)
    readings = 1 + full + (partial > 0)  # with the initial baseline
    stamps, triggers = np.empty(readings, np.int64), np.full(readings, WINDOW, np.uint8)
    stamps[0], triggers[0] = start, INITIAL
    if partial:  # the trailing partial window
        stamps[-1], triggers[-1] = end, FINAL
    # edges start + delta_t * k in wrapping uint64: exact, as each edge fits int64
    edges = stamps[1:1 + full].view(np.uint64)
    edges.fill(min(delta_t, segment.duration))
    np.cumsum(edges, out=edges)
    edges += np.uint64(start % 2**64)
    # cumulative-sum differences telescope, so the stream conserves energy
    # exactly even when individual windows are empty
    cumulative = segment._cumulative_ws[np.searchsorted(segment.timestamps, stamps)]
    energies = np.empty(stamps.size)
    energies[0] = 0.0
    np.subtract(cumulative[1:], cumulative[:-1], out=energies[1:])
    return ReadingStream(stamps, triggers, energies)


def sample_event_based(segment: PowerTrace, th: Thresholds) -> ReadingStream:
    """Send-on-delta metering over one segment.

    Sequential scan carrying three state variables: the time and power of
    the last reading and the energy accumulated since it. Arriving at sample
    time t first books the held energy of the preceding sample, then fires
    at most one trigger:

      power_delta  |power(t) - power(last reading)| >= power_delta_w
      energy       accumulated energy >= energy_wh
      silence      t - t(last reading) >= max_silence_s (when enabled)

    in that priority order. Firing emits a reading carrying the accumulated
    energy and resets all three state variables, including the power
    reference, regardless of which trigger fired. Residual energy is flushed
    as a "final" reading at the segment end. The scan runs in C.
    """
    ts, pw = segment.timestamps, segment.powers
    silence, n = th.max_silence_s, len(ts)
    # 0 turns silence off; a period past the span never fires, so huge ones never reach ctypes
    enabled = silence is not None and silence <= int(ts[-1]) - int(ts[0])
    columns = np.empty(n + 1, np.int64), np.empty(n + 1, np.uint8), np.empty(n + 1)
    rows = library().event_scan(ts, pw, n, th.power_delta_w, th.energy_wh * SECONDS_PER_HOUR,
                                math.ceil(silence) if enabled else 0, *columns)
    return ReadingStream(*(column[:rows] for column in columns))  # copies only the rows written


def _powers_at(segment: PowerTrace, stamps: np.ndarray) -> np.ndarray:
    """The segment's power at each stamp from its start to its exclusive end:
    the sample at or before it, under the left-hold convention."""
    return segment.powers[np.searchsorted(segment.timestamps, stamps, side="right") - 1]


def message_count(stream: ReadingStream) -> int:
    """Number of transmitted messages: every reading except the initial
    baseline, which both strategies share and neither transmits."""
    return len(stream.timestamps) - 1
