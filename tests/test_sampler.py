import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meterdelta import (
    PowerTrace,
    Thresholds,
    message_count,
    sample_event_based,
    sample_time_based,
    segment_trace,
    validate_trace,
)
from meterdelta.sampler import TRIGGERS, _powers_at
from oracles import (
    brute_force_event_readings,
    brute_force_time_readings,
    random_gappy_trace,
    random_step_trace,
    random_thresholds,
    stream_tuples,
)


def one_segment(samples):
    return segment_trace(validate_trace(samples), max_gap=10**9)[0]


def test_time_based_trace_a_dt2(segment_a):
    stream = sample_time_based(segment_a, 2)
    assert stream_tuples(stream, segment_a) == [
        (0, "initial", 0.0, 100.0),
        (2, "window", 200.0, 100.0),
        (4, "window", 600.0, 500.0),
        (6, "window", 600.0, 100.0),
        (8, "window", 200.0, 100.0),
        (10, "window", 200.0, 100.0),
    ]
    assert message_count(stream) == 5


def test_time_based_dt1_reproduces_samples(segment_a):
    stream = sample_time_based(segment_a, 1)
    energies = stream.energy_ws[1:].tolist()
    assert energies == segment_a.powers.tolist()


def test_time_based_dt10_single_window(segment_a):
    stream = sample_time_based(segment_a, 10)
    assert stream_tuples(stream, segment_a)[1:] == [(10, "window", 1800.0, 100.0)]
    assert message_count(stream) == 1


def test_time_based_partial_window_is_final(segment_a):
    stream = sample_time_based(segment_a, 3)
    assert [(t, trig, e) for t, trig, e, _ in stream_tuples(stream, segment_a)[1:]] == [
        (3, "window", 300.0),
        (6, "window", 1100.0),
        (9, "window", 300.0),
        (10, "final", 100.0),
    ]


def test_time_based_dt_longer_than_segment(segment_a):
    stream = sample_time_based(segment_a, 60)
    assert stream_tuples(stream, segment_a)[1:] == [(10, "final", 1800.0, 100.0)]


def test_time_based_huge_dt_equals_one_window_past_the_end():
    segment = one_segment(random_gappy_trace(np.random.default_rng(7), length=300))
    huge = sample_time_based(segment, 10**20)  # past the int64 range
    one_window = sample_time_based(segment, segment.duration + 1)
    for column in ("timestamps", "triggers", "energy_ws"):
        assert np.array_equal(getattr(huge, column), getattr(one_window, column))
    assert stream_tuples(huge, segment) == stream_tuples(one_window, segment)
    assert [TRIGGERS[c] for c in huge.triggers] == ["initial", "final"]


def test_time_based_windows_at_the_int64_edges():
    # end + delta_t passes 2**63 - 1 at the top; the windows must not
    top = [(2**63 - 8, 100.0), (2**63 - 2, 200.0)]
    bottom = [(-(2**63), 100.0), (-(2**63) + 6, 200.0)]
    for samples in (top, bottom):
        ts, pw = [t for t, _ in samples], [p for _, p in samples]
        seg = one_segment(samples)
        for dt in (1, 5, 7, 8, 10**20):
            assert stream_tuples(sample_time_based(seg, dt), seg) == brute_force_time_readings(
                ts, pw, min(dt, 8))
    seg = one_segment(top)
    assert stream_tuples(sample_time_based(seg, 5), seg) == [
        (2**63 - 8, "initial", 0.0, 100.0),
        (2**63 - 3, "window", 100.0, 100.0),
        (2**63 - 1, "final", 200.0, 200.0),
    ]


def test_time_based_window_edges_past_half_the_int64_range():
    # one segment spanning more than 2**63 seconds: start + delta_t * k must
    # not wrap on the way
    seg = PowerTrace(np.array([-(2**63), 2**63 - 2]), np.array([1.0, 2.0]))
    stream = sample_time_based(seg, 2**63)
    assert stream.timestamps.tolist() == [-(2**63), 0, 2**63 - 1]
    assert [TRIGGERS[c] for c in stream.triggers] == ["initial", "window", "final"]
    assert stream.energy_ws.tolist() == [0.0, 1.0, 2.0]


def test_time_based_rejects_bad_dt(segment_a):
    for bad in (0, 2.5, math.inf, math.nan):  # inf and nan are refused before int() sees them
        with pytest.raises(ValueError, match="delta_t must be an integer >= 1"):
            sample_time_based(segment_a, bad)


def test_time_based_matches_window_sum_oracle():
    rng = np.random.default_rng(23)
    for _ in range(15):
        samples = random_step_trace(rng, length=200)
        seg = one_segment(samples)
        ts = [t for t, _ in samples]
        pw = [p for _, p in samples]
        for dt in (1, 2, 3, 7, 10, 50, 199, 200, 500):
            assert stream_tuples(sample_time_based(seg, dt), seg) == brute_force_time_readings(
                ts, pw, dt
            )


def test_time_based_oracle_on_gappy_segments():
    rng = np.random.default_rng(29)
    for _ in range(10):
        samples = random_gappy_trace(rng, length=150, gap_chance=0.1, max_gap=5)
        seg = one_segment(samples)
        ts = [t for t, _ in samples]
        pw = [p for _, p in samples]
        for dt in (1, 4, 17, 60):
            assert stream_tuples(sample_time_based(seg, dt), seg) == brute_force_time_readings(
                ts, pw, dt
            )


def test_event_trace_a_power_triggers(segment_a):
    stream = sample_event_based(segment_a, Thresholds(300.0, math.inf))
    assert stream_tuples(stream, segment_a) == [
        (0, "initial", 0.0, 100.0),
        (3, "power_delta", 300.0, 500.0),
        (5, "power_delta", 1000.0, 100.0),
        (10, "final", 500.0, 100.0),
    ]
    assert message_count(stream) == 3
    assert stream.energy_ws.sum() == 1800.0


def test_event_energy_triggers(constant_segment):
    # 250 Ws expressed in Wh; each reading fires once 300 Ws accumulate
    th = Thresholds(math.inf, 250.0 / 3600.0)
    stream = sample_event_based(constant_segment, th)
    assert [(t, trig, e) for t, trig, e, _ in stream_tuples(stream, constant_segment)] == [
        (0, "initial", 0.0),
        (3, "energy", 300.0),
        (6, "energy", 300.0),
        (9, "energy", 300.0),
        (10, "final", 100.0),
    ]


def test_event_no_reachable_trigger_gives_initial_and_final(constant_segment):
    stream = sample_event_based(constant_segment, Thresholds(1e12, 1e12))
    assert [TRIGGERS[c] for c in stream.triggers.tolist()] == ["initial", "final"]
    assert stream.energy_ws[-1] == 1000.0
    assert message_count(stream) == 1


def test_event_silence_trigger():
    seg = one_segment([(t, 100.0) for t in range(20)])
    th = Thresholds(math.inf, math.inf, max_silence_s=5)
    stream = sample_event_based(seg, th)
    assert [(t, trig, e) for t, trig, e, _ in stream_tuples(stream, seg)] == [
        (0, "initial", 0.0),
        (5, "silence", 500.0),
        (10, "silence", 500.0),
        (15, "silence", 500.0),
        (20, "final", 500.0),
    ]


def test_event_silence_measured_on_wall_clock_across_gap():
    seg = one_segment([(t, 100.0) for t in range(5)] + [(t, 100.0) for t in range(50, 55)])
    th = Thresholds(math.inf, math.inf, max_silence_s=10)
    stream = sample_event_based(seg, th)
    # first present sample past the deadline is t=50; energy is the 5
    # present seconds held since the initial reading
    assert (50, "silence", 500.0, 100.0) in stream_tuples(stream, seg)


def test_event_power_delta_has_priority_over_energy():
    seg = one_segment([(0, 100.0), (1, 100.0), (2, 600.0), (3, 600.0)])
    # both conditions hold at t=2; the label must say power_delta
    th = Thresholds(400.0, 150.0 / 3600.0)
    stream = sample_event_based(seg, th)
    assert TRIGGERS[stream.triggers[1]] == "power_delta"
    assert stream.timestamps[1] == 2


def test_event_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(15):
        samples = random_step_trace(rng, length=500)
        seg = one_segment(samples)
        dp, e_wh, silence = random_thresholds(rng)
        stream = sample_event_based(seg, Thresholds(dp, e_wh, silence))
        expected = brute_force_event_readings(
            [t for t, _ in samples], [p for _, p in samples], dp, e_wh, silence
        )
        assert stream_tuples(stream, seg) == expected


def test_event_oracle_on_gappy_segments():
    rng = np.random.default_rng(37)
    for _ in range(10):
        samples = random_gappy_trace(rng, length=300, gap_chance=0.05, max_gap=10)
        seg = one_segment(samples)
        dp, e_wh, silence = random_thresholds(rng)
        stream = sample_event_based(seg, Thresholds(dp, e_wh, silence))
        expected = brute_force_event_readings(
            [t for t, _ in samples], [p for _, p in samples], dp, e_wh, silence
        )
        assert stream_tuples(stream, seg) == expected


def test_infinite_power_delta_never_fires_power_trigger():
    rng = np.random.default_rng(41)
    for _ in range(10):
        seg = one_segment(random_step_trace(rng, length=300))
        stream = sample_event_based(seg, Thresholds(math.inf, 20.0))
        assert {TRIGGERS[c] for c in stream.triggers.tolist()} <= {"initial", "energy", "final"}


def test_infinite_energy_never_fires_energy_trigger():
    rng = np.random.default_rng(43)
    for _ in range(10):
        seg = one_segment(random_step_trace(rng, length=300))
        stream = sample_event_based(seg, Thresholds(100.0, math.inf, max_silence_s=60))
        assert {TRIGGERS[c] for c in stream.triggers.tolist()} <= {
            "initial", "power_delta", "silence", "final"
        }


def test_energy_conservation_over_strategies():
    rng = np.random.default_rng(47)
    for _ in range(10):
        seg = one_segment(random_gappy_trace(rng, length=400, gap_chance=0.03))
        total = seg.total_energy_ws
        for dt in (1, 7, 60, 500):
            stream = sample_time_based(seg, dt)
            assert stream.energy_ws.sum() == pytest.approx(total, rel=1e-9)
        for _ in range(5):
            dp, e_wh, silence = random_thresholds(rng)
            stream = sample_event_based(seg, Thresholds(dp, e_wh, silence))
            assert stream.energy_ws.sum() == pytest.approx(total, rel=1e-9)


def test_message_count_bounds():
    rng = np.random.default_rng(53)
    for _ in range(10):
        samples = random_step_trace(rng, length=200)
        seg = one_segment(samples)
        dp, e_wh, silence = random_thresholds(rng)
        assert message_count(sample_event_based(seg, Thresholds(dp, e_wh, silence))) <= len(seg)
        for dt in (1, 3, 50):
            assert message_count(sample_time_based(seg, dt)) <= len(seg)


def test_readings_strictly_increasing_in_time():
    rng = np.random.default_rng(59)
    seg = one_segment(random_gappy_trace(rng, length=300))
    for stream in (
        sample_time_based(seg, 13),
        sample_event_based(seg, Thresholds(50.0, 5.0, max_silence_s=30)),
    ):
        ts = stream.timestamps.tolist()
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert TRIGGERS[stream.triggers[0]] == "initial"
        assert TRIGGERS[stream.triggers[-1]] in ("final", "window")
        columns = [getattr(stream, f.name) for f in fields(stream)]  # every field: these three
        assert [c.dtype for c in columns] == [np.int64, np.uint8, np.float64]
        assert not any(c.flags.writeable for c in columns)


def test_single_sample_segment_flushes_its_energy():
    seg = one_segment([(5, 100.0)])
    for stream in (sample_time_based(seg, 5), sample_event_based(seg, Thresholds(1.0, 1.0))):
        assert [TRIGGERS[c] for c in stream.triggers.tolist()] == ["initial", "final"]
        assert stream.timestamps[-1] == 6
        assert stream.energy_ws.sum() == 100.0
        assert message_count(stream) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5, 60, 300]))
def test_reading_power_is_the_last_sample_at_or_before_it(seed, length):
    rng = np.random.default_rng(seed)
    samples = random_gappy_trace(rng, length=length, gap_chance=0.2, max_gap=30)
    seg = one_segment(samples)
    value_at = dict(samples)

    def last_at_or_before(t):
        while t not in value_at:
            t -= 1
        return value_at[t]

    streams = (sample_time_based(seg, int(rng.integers(1, 100))),
               sample_event_based(seg, Thresholds(*random_thresholds(rng))))
    drawn = rng.integers(seg.start, seg.end, size=50, endpoint=True)  # the exclusive end too
    for stamps in (drawn, *(s.timestamps for s in streams)):
        assert _powers_at(seg, stamps).tolist() == [last_at_or_before(t) for t in stamps.tolist()]
