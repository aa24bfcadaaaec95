import dataclasses
import math

import pytest

from meterdelta import (
    DEFAULT_PERCENT_GRID,
    Thresholds,
    ThresholdSpec,
    TraceStats,
    derive_thresholds,
    threshold_grid,
)
from meterdelta.errors import DegenerateStatsError


def stats_like(peak_power=7629.07, peak_variation=5962.49, mean_daily=5438.29):
    return TraceStats(
        peak_power_w=peak_power,
        peak_variation_w=peak_variation,
        total_energy_wh=mean_daily * 7,
        mean_daily_energy_wh=mean_daily,
        coverage=1.0,
        duration_s=7 * 86400,
        gap_count=0,
    )


def test_ceil_rounds_power_base_to_whole_kilowatt():
    # 5962.49 W -> 6 kW base, 1% -> 60 W
    th = derive_thresholds(stats_like(), 1, 1, ThresholdSpec())
    assert th.power_delta_w == 60.0


def test_ceil_rounds_energy_base_to_whole_kilowatt_hour():
    # 5438.29 Wh/day -> 6 kWh base, 1% -> 60 Wh
    th = derive_thresholds(stats_like(), 1, 1, ThresholdSpec())
    assert th.energy_wh == 60.0


def test_full_percentage_can_exceed_raw_base():
    # rounding up makes the 100% threshold unreachable for this trace
    th = derive_thresholds(stats_like(), 100, 1, ThresholdSpec())
    assert th.power_delta_w == 6000.0
    assert th.power_delta_w > stats_like().peak_variation_w


def test_no_rounding_full_percentage_equals_base_exactly():
    spec = ThresholdSpec(rounding="none")
    th = derive_thresholds(stats_like(), 100, 1, spec)
    assert th.power_delta_w == stats_like().peak_variation_w


def test_power_base_peak_uses_peak_power():
    th = derive_thresholds(stats_like(), 1, 1, ThresholdSpec(power_base="peak"))
    assert th.power_delta_w == 80.0  # ceil(7.62907) = 8 kW


def test_silence_never_set_by_derivation():
    assert derive_thresholds(stats_like(), 1, 1, ThresholdSpec()).max_silence_s is None


@pytest.mark.parametrize("rounding", ["ceil", "none"])
def test_strictly_increasing_in_each_percentage(rounding):
    stats = stats_like()
    power_values = [
        derive_thresholds(stats, p, 1, ThresholdSpec(rounding=rounding)).power_delta_w
        for p in DEFAULT_PERCENT_GRID
    ]
    energy_values = [
        derive_thresholds(stats, 1, e, ThresholdSpec(rounding=rounding)).energy_wh
        for e in DEFAULT_PERCENT_GRID
    ]
    assert all(b > a for a, b in zip(power_values, power_values[1:]))
    assert all(b > a for a, b in zip(energy_values, energy_values[1:]))


def test_exact_scaling_covariance_without_rounding():
    spec = ThresholdSpec(rounding="none")
    base = derive_thresholds(stats_like(), 2, 5, spec)
    for k in (2.0, 0.25):
        scaled = derive_thresholds(
            stats_like(5962.49 * k, 5962.49 * k, 5438.29 * k), 2, 5, spec
        )
        # peak == variation here so the power base scales exactly
        assert scaled.power_delta_w == k * base.power_delta_w
        assert scaled.energy_wh == k * base.energy_wh
    scaled = derive_thresholds(stats_like(5962.49 * 3.7, 5962.49 * 3.7, 5438.29 * 3.7), 2, 5, spec)
    base37 = derive_thresholds(stats_like(5962.49, 5962.49, 5438.29), 2, 5, spec)
    assert scaled.power_delta_w == pytest.approx(3.7 * base37.power_delta_w, rel=1e-12)


def test_ceil_scaling_stays_within_rounding_band():
    spec = ThresholdSpec()
    raw_base = 5962.49
    base = derive_thresholds(stats_like(), 10, 1, spec).power_delta_w
    for k in (1.3, 2.7, 8.0):
        scaled = derive_thresholds(stats_like(raw_base * k, raw_base * k, 5438.29), 10, 1, spec)
        # ceil error: |ceil(k b) - k ceil(b)| <= 1000 (1 + k), relative band follows
        eps = (1000.0 / k + 1000.0) / (math.ceil(raw_base / 1000.0) * 1000.0)
        assert k * (1 - eps) <= scaled.power_delta_w / base <= k * (1 + eps)


def test_grid_shapes():
    stats = stats_like()
    assert len(threshold_grid(stats, [1], [1], ThresholdSpec())) == 1
    grid = threshold_grid(stats, DEFAULT_PERCENT_GRID, DEFAULT_PERCENT_GRID, ThresholdSpec())
    assert len(grid) == 49
    cells = {(p, e) for p, e, _ in grid}
    assert len(cells) == 49


def test_grid_deduplicates_before_product():
    grid = threshold_grid(stats_like(), [1, 1, 2], [5], ThresholdSpec())
    assert [(p, e) for p, e, _ in grid] == [(1, 5), (2, 5)]


def test_grid_rejects_empty_lists():
    with pytest.raises(ValueError):
        threshold_grid(stats_like(), [], [1], ThresholdSpec())
    with pytest.raises(ValueError):
        threshold_grid(stats_like(), [1], [], ThresholdSpec())


def test_degenerate_stats_rejected():
    with pytest.raises(DegenerateStatsError):
        derive_thresholds(stats_like(peak_variation=0.0), 1, 1, ThresholdSpec())
    with pytest.raises(DegenerateStatsError):
        derive_thresholds(stats_like(mean_daily=0.0), 1, 1, ThresholdSpec())
    # peak base zero only matters when selected
    derive_thresholds(stats_like(peak_variation=10.0), 1, 1, ThresholdSpec(power_base="variation"))


@pytest.mark.parametrize("rounding", ["ceil", "none"])
def test_overflowing_energy_base_rejected(rounding):
    # a trace whose energy overflows float64 has no finite percentage of it
    with pytest.raises(DegenerateStatsError, match="mean daily energy overflows float64"):
        derive_thresholds(stats_like(mean_daily=math.inf), 1, 1, ThresholdSpec(rounding=rounding))


def test_thresholds_validation():
    Thresholds(power_delta_w=60.0, energy_wh=math.inf)
    Thresholds(power_delta_w=math.inf, energy_wh=60.0)
    Thresholds(power_delta_w=math.inf, energy_wh=math.inf, max_silence_s=60)
    with pytest.raises(ValueError):
        Thresholds(power_delta_w=math.inf, energy_wh=math.inf)
    with pytest.raises(ValueError):
        Thresholds(power_delta_w=0.0, energy_wh=60.0)
    with pytest.raises(ValueError):
        Thresholds(power_delta_w=60.0, energy_wh=-1.0)
    with pytest.raises(ValueError):
        Thresholds(power_delta_w=60.0, energy_wh=60.0, max_silence_s=0)
    with pytest.raises(ValueError):  # NaN silence can never fire
        Thresholds(power_delta_w=math.inf, energy_wh=math.inf, max_silence_s=math.nan)
    with pytest.raises(ValueError):  # infinite silence is disabled, like None
        Thresholds(power_delta_w=math.inf, energy_wh=math.inf, max_silence_s=math.inf)


def test_spec_validation():
    with pytest.raises(ValueError):
        derive_thresholds(stats_like(), 0, 1, ThresholdSpec())
    with pytest.raises(ValueError):
        derive_thresholds(stats_like(), 1, -5, ThresholdSpec())
    with pytest.raises(ValueError):
        derive_thresholds(stats_like(), math.nan, 1, ThresholdSpec())
    with pytest.raises(ValueError):
        ThresholdSpec(power_base="wrong")
    with pytest.raises(ValueError):
        ThresholdSpec(rounding="floor")


def test_spec_holds_only_the_rule_choices():
    # the percentages are arguments of derive_thresholds, not settings of the rule
    assert [f.name for f in dataclasses.fields(ThresholdSpec)] == ["power_base", "rounding"]
