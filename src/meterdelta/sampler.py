"""Metering strategies: periodic window averaging and send-on-delta events.

Both strategies turn a segment (a PowerTrace) into a ReadingStream.
Streams open with a zero-energy "initial" reading at the segment start (the
receiver's baseline, not a transmitted message) and close at the segment's
exclusive end, so the energies of any stream always sum to the segment's
energy.

Energies ride in watt-seconds internally: a 1 Hz integrator's native unit,
which keeps window sums and reconstruction exact. Divide by
SECONDS_PER_HOUR at presentation boundaries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thresholds import Thresholds
from .trace import SECONDS_PER_HOUR, PowerTrace

TRIGGERS = ("initial", "power_delta", "energy", "silence", "window", "final")
INITIAL, POWER_DELTA, ENERGY, SILENCE, WINDOW, FINAL = range(len(TRIGGERS))


@dataclass(frozen=True, eq=False)
class ReadingStream:
    """Ordered readings produced from one segment by one strategy.

    Reading i was sent at timestamps[i] because of TRIGGERS[triggers[i]].
    energy_ws[i] is the energy accumulated since reading i - 1 (zero for the
    initial baseline); power_w[i] is the instantaneous power at that time
    under the left-hold convention. The arrays are frozen after
    construction.
    """

    timestamps: np.ndarray
    triggers: np.ndarray
    energy_ws: np.ndarray
    power_w: np.ndarray
    strategy: str
    segment_start: int
    segment_end: int

    def __post_init__(self):
        for name, dtype in (
            ("timestamps", np.int64),
            ("triggers", np.uint8),
            ("energy_ws", np.float64),
            ("power_w", np.float64),
        ):
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @property
    def total_energy_ws(self) -> float:
        return float(self.energy_ws.sum())


def sample_time_based(segment: PowerTrace, delta_t: int) -> ReadingStream:
    """Periodic metering: one reading at the end of every delta_t window.

    Windows tile the segment from its start. Full windows emit "window"
    readings; a trailing partial window is flushed as a "final" reading
    covering the remainder. A reading's energy is the sum over the window's
    present samples, so windows inside data gaps emit zero energy.
    """
    if delta_t != int(delta_t) or int(delta_t) < 1:
        raise ValueError("delta_t must be an integer >= 1")
    delta_t = int(delta_t)
    ts = segment.timestamps
    pw = segment.powers
    start, end = segment.start, segment.end
    # clamped so huge periods fit int64; any period past the end gives one final reading
    step = min(delta_t, segment.duration + 1)

    edges = np.arange(start + step, end + step, step, dtype=np.int64)
    if edges[-1] > end:
        edges[-1] = end
    stamps = np.concatenate(([start], edges))
    bounds = np.searchsorted(ts, stamps)
    # cumulative-sum differences telescope, so the stream conserves energy
    # exactly even when individual windows are empty
    csum = np.concatenate(([0.0], np.cumsum(pw * float(segment.nominal_resolution))))
    energies = np.concatenate(([0.0], csum[bounds[1:]] - csum[bounds[:-1]]))
    powers_at = pw[np.searchsorted(ts, stamps, side="right") - 1]
    triggers = np.where((stamps - start) % step == 0, WINDOW, FINAL)
    triggers[0] = INITIAL
    return ReadingStream(stamps, triggers, energies, powers_at, f"time:dt={delta_t}", start, end)


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
    as a "final" reading at the segment end.
    """
    ts = segment.timestamps.tolist()
    pw = segment.powers.tolist()
    start, end = segment.start, segment.end
    hold = float(segment.nominal_resolution)
    power_delta_w = th.power_delta_w
    energy_ws = th.energy_wh * SECONDS_PER_HOUR  # inf stays inf
    silence = th.max_silence_s

    stamps, triggers, energies, powers = [start], [INITIAL], [0.0], [pw[0]]
    t_last, p_ref, acc = start, pw[0], 0.0
    for i in range(1, len(ts)):
        t = ts[i]
        p = pw[i]
        acc += pw[i - 1] * hold
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
        powers.append(p)
        t_last, p_ref, acc = t, p, 0.0
    acc += pw[-1] * hold
    stamps.append(end)
    triggers.append(FINAL)
    energies.append(acc)
    powers.append(pw[-1])

    strategy = f"event:dp={power_delta_w},e_wh={th.energy_wh},silence={silence}"
    return ReadingStream(stamps, triggers, energies, powers, strategy, start, end)


def message_count(stream: ReadingStream) -> int:
    """Number of transmitted messages: every reading except the initial
    baseline, which both strategies share and neither transmits."""
    return len(stream.timestamps) - 1
