"""Derive event-trigger thresholds from trace statistics.

The rule: take p_percent of the trace's peak one-second power change (or,
optionally, of its plain peak power) as the power trigger, and e_percent of
its mean daily energy as the energy trigger. The two percentages are the
rule's arguments; a ThresholdSpec picks the power base and the rounding. By
default both bases are first rounded up to a whole kilowatt /
kilowatt-hour so thresholds stay round numbers across houses of very
different size; rounding can be disabled for exact proportional scaling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateStatsError
from .trace import TraceStats

POWER_BASES = ("variation", "peak")
ROUNDING_MODES = ("ceil", "none")

DEFAULT_PERCENT_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


@dataclass(frozen=True)
class Thresholds:
    """Event-trigger parameters.

    math.inf disables the power or energy trigger; max_silence_s of None (the
    default operating mode) or math.inf disables the time trigger. At least
    one trigger must remain reachable, or no message after the initial
    baseline would ever be sent.
    """

    power_delta_w: float
    energy_wh: float
    max_silence_s: int | None = None

    def __post_init__(self):
        if not self.power_delta_w > 0:
            raise ValueError("power_delta_w must be positive (math.inf to disable)")
        if not self.energy_wh > 0:
            raise ValueError("energy_wh must be positive (math.inf to disable)")
        if self.max_silence_s is not None and not self.max_silence_s >= 1:
            raise ValueError("max_silence_s must be >= 1 when set")
        # in, not isinf: a huge int silence compares with inf exactly but overflows a float
        if math.isinf(self.power_delta_w) and math.isinf(self.energy_wh) and (
                self.max_silence_s in (None, math.inf)):
            raise ValueError("at least one trigger must be reachable")


@dataclass(frozen=True)
class ThresholdSpec:
    """Which bases :func:`derive_thresholds` scales, and how.

    power_base "variation" scales the peak one-second power change, "peak"
    scales the peak power itself. rounding "ceil" rounds the base up to a
    whole kW / kWh before the percentage applies; "none" uses the raw base.
    """

    power_base: str = "variation"
    rounding: str = "ceil"

    def __post_init__(self):
        if self.power_base not in POWER_BASES:
            raise ValueError(f"power_base must be one of {POWER_BASES}")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(f"rounding must be one of {ROUNDING_MODES}")


def derive_thresholds(stats: TraceStats, p_percent: float, e_percent: float,
                      spec: ThresholdSpec) -> Thresholds:
    """p_percent of the power base and e_percent of the energy base of one trace.

    Raises DegenerateStatsError when the chosen power base or the mean daily
    energy is zero (a flat or empty trace cannot scale a percentage), or the
    energy is infinite (a trace whose energy overflows float64), and
    ValueError, from Thresholds, when a percentage is not positive or NaN.
    """
    base_w = stats.peak_variation_w if spec.power_base == "variation" else stats.peak_power_w
    if base_w <= 0:
        raise DegenerateStatsError(f"power base ({spec.power_base}) is zero")
    energy_base_wh = stats.mean_daily_energy_wh
    if energy_base_wh <= 0:
        raise DegenerateStatsError("mean daily energy is zero")
    if math.isinf(energy_base_wh):
        raise DegenerateStatsError("mean daily energy overflows float64")
    if spec.rounding == "ceil":
        base_w = math.ceil(base_w / 1000.0) * 1000.0
        energy_base_wh = math.ceil(energy_base_wh / 1000.0) * 1000.0
    return Thresholds(p_percent / 100.0 * base_w, e_percent / 100.0 * energy_base_wh)


def threshold_grid(
    stats: TraceStats,
    p_list: Sequence[float],
    e_list: Sequence[float],
    spec: ThresholdSpec,
) -> list[tuple[float, float, Thresholds]]:
    """Cartesian product of the two percentage grids.

    Duplicate percentages are collapsed (first occurrence wins) before the
    product, so a 7 x 7 grid yields exactly 49 cells.
    """
    if not p_list or not e_list:
        raise ValueError("percentage grids must be non-empty")
    p_values = list(dict.fromkeys(p_list))
    e_values = list(dict.fromkeys(e_list))
    return [
        (p, e, derive_thresholds(stats, p, e, spec))
        for p in p_values
        for e in e_values
    ]
