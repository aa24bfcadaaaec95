"""Acceptance suite.

One test per criterion, each printing a PASS line (run with -s or check the
pytest report). The property criteria (1-7) need no external data and finish
in well under a minute. The dataset criteria (8-11) run only when
METERDELTA_REDD_DIR points at the public dataset root (the directory holding
house_1 ... house_6, directly or under low_freq/).
"""
import json
import math
import os
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from meterdelta import (
    DEFAULT_DT_GRID,
    DEFAULT_PERCENT_GRID,
    ThresholdSpec,
    Thresholds,
    derive_thresholds,
    first_difference_distribution,
    load_redd_house,
    message_count,
    nmae,
    reconstruct,
    run_sweep,
    sample_event_based,
    sample_time_based,
    segment_trace,
    threshold_grid,
    trace_stats,
    validate_trace,
)
from meterdelta.cli import main as cli_main
from conftest import TRACE_A_POWERS
from oracles import (
    brute_force_event_readings,
    random_gappy_trace,
    random_step_trace,
    random_thresholds,
    stream_tuples,
)

REDD_DIR = os.environ.get("METERDELTA_REDD_DIR")
needs_dataset = pytest.mark.skipif(not REDD_DIR, reason="METERDELTA_REDD_DIR not set")

REDD_MAX_GAP = 3600

# published per-house mains statistics: house -> (peak power W, peak variation W)
EXPECTED_HOUSE_STATS = {
    1: (7629.07, 5962.49),
    2: (3253.07, 2331.04),
    3: (8059.92, 5640.39),
    4: (4105.19, 2908.52),
    5: (4901.68, 3062.39),
    6: (7686.62, 7328.30),
}


def _ok(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def one_segment(samples):
    return segment_trace(validate_trace(samples), max_gap=10**9)[0]


def trace_a_segment():
    return one_segment([(t, float(p)) for t, p in enumerate(TRACE_A_POWERS)])


# --- property suite -------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """sample_event_based matches the per-second brute-force simulator
    reading-for-reading on 100 randomized piecewise-constant traces."""
    rng = np.random.default_rng(2024)
    for i in range(100):
        samples = random_step_trace(rng, length=1000, max_power=5000)
        seg = one_segment(samples)
        dp, e_wh, silence = random_thresholds(rng)
        stream = sample_event_based(seg, Thresholds(dp, e_wh, silence))
        expected = brute_force_event_readings(
            [t for t, _ in samples], [p for _, p in samples], dp, e_wh, silence
        )
        assert stream_tuples(stream, seg) == expected, f"trace {i} diverged"
    _ok(1, "100/100 randomized traces, exact reading-for-reading match")


def test_criterion_2_energy_conservation():
    """Sum of reading energies equals trace energy for every combination
    tested, within 1e-9 relative tolerance."""
    rng = np.random.default_rng(2025)
    fixtures = [
        trace_a_segment(),
        one_segment([(t, 100.0) for t in range(50)]),
        one_segment(random_step_trace(rng, length=1000)),
        one_segment(random_gappy_trace(rng, length=1000, gap_chance=0.02)),
    ]
    checked = 0
    for seg in fixtures:
        total = seg.total_energy_ws
        for dt in DEFAULT_DT_GRID:
            stream = sample_time_based(seg, dt)
            assert stream.energy_ws.sum() == pytest.approx(total, rel=1e-9)
            checked += 1
        stats = trace_stats(seg)
        if stats.peak_variation_w > 0:
            grid = threshold_grid(
                stats, DEFAULT_PERCENT_GRID, DEFAULT_PERCENT_GRID, ThresholdSpec()
            )
            for _, _, th in grid:
                stream = sample_event_based(seg, th)
                assert stream.energy_ws.sum() == pytest.approx(total, rel=1e-9)
                checked += 1
        for th in (
            Thresholds(150.0, math.inf),
            Thresholds(math.inf, 25.0),
            Thresholds(math.inf, math.inf, max_silence_s=40),
            Thresholds(200.0, 10.0, max_silence_s=600),
        ):
            stream = sample_event_based(seg, th)
            assert stream.energy_ws.sum() == pytest.approx(total, rel=1e-9)
            checked += 1
    _ok(2, f"{checked} strategy/parameter combinations conserve energy")


def test_criterion_3_perfect_capture():
    """When every jump clears the power threshold and the energy trigger is
    disabled, reconstruction equals the original signal exactly."""
    seg_a = trace_a_segment()
    stream = sample_event_based(seg_a, Thresholds(300.0, math.inf))
    assert nmae(seg_a, reconstruct(stream, seg_a)) == 0.0

    rng = np.random.default_rng(2026)
    for _ in range(10):
        # piecewise-constant levels on a coarse lattice: every nonzero jump
        # is a multiple of 500 W, so delta_p=500 captures all of them
        levels = rng.integers(0, 10, size=20) * 500
        powers = np.repeat(levels, rng.integers(1, 30, size=20))
        seg = one_segment(list(enumerate(powers.astype(float))))
        stream = sample_event_based(seg, Thresholds(500.0, math.inf))
        assert nmae(seg, reconstruct(stream, seg)) == 0.0
    _ok(3, "NMAE exactly 0.0 on trace A and 10 random jump-capture traces")


def test_criterion_4_identity_baseline():
    """Periodic sampling at 1 s granularity reproduces every fixture."""
    rng = np.random.default_rng(2027)
    fixtures = [
        trace_a_segment(),
        one_segment([(t, 100.0) for t in range(50)]),
        one_segment(random_step_trace(rng, length=1000)),
        one_segment(random_gappy_trace(rng, length=500, gap_chance=0.03)),
    ]
    for seg in fixtures:
        assert nmae(seg, reconstruct(sample_time_based(seg, 1), seg)) == 0.0
    _ok(4, f"NMAE exactly 0.0 at dt=1 on {len(fixtures)} fixtures")


def test_criterion_5_nmae_hand_check():
    seg = one_segment([(0, 100.0), (1, 100.0), (2, 200.0), (3, 200.0)])
    value = nmae(seg, reconstruct(sample_time_based(seg, 4), seg))
    assert abs(value - 1 / 3) < 1e-12
    _ok(5, f"NMAE {value!r} within 1e-12 of 1/3")


def test_criterion_6_threshold_monotonicity_and_degenerate_limits():
    stats = trace_stats(
        validate_trace(random_step_trace(np.random.default_rng(2028), length=1000))
    )
    for rounding in ("ceil", "none"):
        dps = [
            derive_thresholds(stats, p, 1, ThresholdSpec(rounding=rounding)).power_delta_w
            for p in DEFAULT_PERCENT_GRID
        ]
        ens = [
            derive_thresholds(stats, 1, e, ThresholdSpec(rounding=rounding)).energy_wh
            for e in DEFAULT_PERCENT_GRID
        ]
        assert all(b > a for a, b in zip(dps, dps[1:]))
        assert all(b > a for a, b in zip(ens, ens[1:]))

    rng = np.random.default_rng(2029)
    for _ in range(10):
        seg = one_segment(random_step_trace(rng, length=500))
        no_power = sample_event_based(seg, Thresholds(math.inf, 15.0, max_silence_s=120))
        assert "power_delta" not in {trig for _, trig, _, _ in stream_tuples(no_power, seg)}
        no_energy = sample_event_based(seg, Thresholds(120.0, math.inf, max_silence_s=120))
        assert "energy" not in {trig for _, trig, _, _ in stream_tuples(no_energy, seg)}
    _ok(6, "strictly increasing thresholds; infinite limits never fire their trigger")


def test_criterion_7_deterministic_sweep(tmp_path):
    fixture = tmp_path / "fixture.dat"
    samples = random_step_trace(np.random.default_rng(2030), length=800)
    fixture.write_text("".join(f"{t} {p}\n" for t, p in samples))
    outputs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        code = cli_main(
            ["sweep", "--input", str(fixture), "--out", str(out_dir), "--dt", "1,10,60"]
        )
        assert code == 0
        outputs.append(
            {
                "json": (out_dir / "fixture_sweep.json").read_bytes(),
                "csv": (out_dir / "fixture_sweep.csv").read_bytes(),
            }
        )
    assert outputs[0]["json"] == outputs[1]["json"]
    assert outputs[0]["csv"] == outputs[1]["csv"]
    payload = json.loads(outputs[0]["json"])
    assert payload["time_based"][0]["nmae"] == 0.0
    _ok(7, "two cmd_sweep runs produced byte-identical JSON and CSV")


# --- dataset suite --------------------------------------------------------


def _house_dir(house: int) -> Path:
    root = Path(REDD_DIR)
    for candidate in (root / f"house_{house}", root / "low_freq" / f"house_{house}"):
        if candidate.is_dir():
            return candidate
    raise FileNotFoundError(f"house_{house} not found under {root}")


@lru_cache(maxsize=None)
def _house_trace(house: int, mains: str = "sum"):
    return validate_trace(load_redd_house(_house_dir(house), mains=mains, tolerant=True))


@lru_cache(maxsize=None)
def _house_segments(house: int):
    return tuple(segment_trace(_house_trace(house), REDD_MAX_GAP))


@needs_dataset
def test_criterion_8_house_statistics_reproduce_published_values():
    failures = []
    matched = {}
    for house, (peak, variation) in EXPECTED_HOUSE_STATS.items():
        attempts = {}
        for mains in ("sum", "first", "second"):
            s = trace_stats(_house_trace(house, mains))
            attempts[mains] = (s.peak_power_w, s.peak_variation_w)
            if abs(s.peak_power_w - peak) <= 0.01 and abs(s.peak_variation_w - variation) <= 0.01:
                matched[house] = mains
                break
        else:
            report = "; ".join(
                f"{mode}: peak={got[0]:.2f} var={got[1]:.2f}" for mode, got in attempts.items()
            )
            failures.append(
                f"house {house}: expected peak={peak} var={variation}, got {report}"
            )
    assert not failures, "no mains combination reproduces the published stats:\n" + "\n".join(
        failures
    )
    _ok(8, f"peak power and variation match within 0.01 W via {matched}")


@needs_dataset
def test_criterion_9_compression_band():
    ratios = {}
    for house in (1, 2, 3, 4):
        segments = _house_segments(house)
        stats = trace_stats(_house_trace(house))
        reference = sum(message_count(sample_time_based(s, 10)) for s in segments)
        for e_percent in (1, 2, 5):
            th = derive_thresholds(stats, 1, e_percent, ThresholdSpec())
            count = sum(message_count(sample_event_based(s, th)) for s in segments)
            ratio = reference / count
            ratios[(house, e_percent)] = ratio
            assert 10.0 <= ratio <= 30.0, (
                f"house {house} e={e_percent}%: compression {ratio:.2f} outside [10, 30]"
            )
    summary = ", ".join(f"h{h}/e{e}%={r:.1f}" for (h, e), r in ratios.items())
    _ok(9, f"compression vs 10 s within [10, 30]: {summary}")


@needs_dataset
def test_criterion_10_house_1_headline_point():
    result = run_sweep(_house_trace(1), [60, 300], [10], [1], ThresholdSpec(), max_gap=REDD_MAX_GAP)
    by_dt = {r.dt: r for r in result.time_based}
    event = result.event_based[0]
    assert event.nmae <= 1.1 * by_dt[60].nmae, (
        f"event NMAE {event.nmae:.4f} vs 1.1 x dt=60 NMAE {by_dt[60].nmae:.4f}"
    )
    assert event.message_count < by_dt[300].message_count, (
        f"event count {event.message_count} vs dt=300 count {by_dt[300].message_count}"
    )
    _ok(
        10,
        f"NMAE {event.nmae:.4f} <= 1.1 x {by_dt[60].nmae:.4f}; "
        f"count {event.message_count} < {by_dt[300].message_count}",
    )


@needs_dataset
def test_criterion_11_power_change_distribution_shape():
    shares = {}
    for house in (1, 2, 3, 4):
        curve = first_difference_distribution(_house_trace(house))
        share = float(np.mean(curve.normalized_delta < 0.01))
        shares[house] = share
        assert share >= 0.90, f"house {house}: only {share:.1%} of changes below 1% of peak"
    summary = ", ".join(f"h{h}={s:.1%}" for h, s in shares.items())
    _ok(11, f"share of one-second changes below 1% of peak: {summary}")
