import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meterdelta import (
    DEFAULT_DT_GRID,
    DEFAULT_PERCENT_GRID,
    PowerTrace,
    ReadingStream,
    ThresholdSpec,
    Thresholds,
    compression_ratio,
    derive_thresholds,
    error_components,
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
from meterdelta.errors import (
    MismatchedSegmentError,
    ZeroCandidateError,
    ZeroEnergySegmentError,
)
from meterdelta import evaluate
from meterdelta._kernels import library
from meterdelta.evaluate import _interval_powers, _pooled_score
from meterdelta.sampler import FINAL, INITIAL, SILENCE, WINDOW
from conftest import trace_samples, traced_peak
from oracles import (indexed_held_powers, random_gappy_trace, random_step_trace,
                     random_thresholds)


def one_segment(samples):
    return segment_trace(validate_trace(samples), max_gap=10**9)[0]


def test_reconstruct_event_stream_recovers_trace_a(segment_a):
    stream = sample_event_based(segment_a, Thresholds(300.0, math.inf))
    recon = reconstruct(stream, segment_a)
    assert np.array_equal(recon.powers, segment_a.powers)
    assert nmae(segment_a, recon) == 0.0


def test_reconstruct_time_based_dt2(segment_a):
    recon = reconstruct(sample_time_based(segment_a, 2), segment_a)
    assert recon.powers.tolist() == [100, 100, 300, 300, 300, 300, 100, 100, 100, 100]


def test_reconstruct_single_interval_average(segment_a):
    recon = reconstruct(sample_time_based(segment_a, 10), segment_a)
    assert recon.powers.tolist() == [180.0] * 10


def test_reconstruct_rejects_foreign_segment(segment_a, constant_segment):
    stream = sample_time_based(constant_segment, 2)
    shifted = one_segment([(t + 1, p) for t, p in trace_samples(segment_a)])
    with pytest.raises(MismatchedSegmentError):
        reconstruct(stream, shifted)
    # the fit check rests on the first and last reading timestamps alone:
    # readings that start after the segment start leave its first samples
    # uncovered, readings that stop short leave its last ones uncovered, and
    # readings from a longer segment with the same start run past its end
    full = sample_time_based(segment_a, 2)
    late = ReadingStream(full.timestamps[1:], full.triggers[1:], full.energy_ws[1:])
    early = ReadingStream(full.timestamps[:-1], full.triggers[:-1], full.energy_ws[:-1])
    longer = one_segment(trace_samples(segment_a) + [(segment_a.end, 50.0)])
    assert longer.start == segment_a.start and longer.end > segment_a.end
    # readings out of order span the segment, yet their intervals overlap
    backwards = ReadingStream([0, 6, 3, 10], [INITIAL, WINDOW, WINDOW, FINAL],
                              [0.0, 600.0, 300.0, 900.0])
    for stream in (late, early, sample_time_based(longer, 2), backwards):
        with pytest.raises(MismatchedSegmentError):
            reconstruct(stream, segment_a)
        with pytest.raises(MismatchedSegmentError):
            _pooled_score([segment_a], [stream])
    # the scoring kernel reads the energies as one per reading interval, from
    # 1-d columns, and an empty stream has no segment start to tile from
    with pytest.raises(ValueError, match="equal-length"):
        ReadingStream(full.timestamps, full.triggers, full.energy_ws[:2])
    columns = (full.timestamps, full.triggers, full.energy_ws)
    with pytest.raises(ValueError, match="equal-length"):
        ReadingStream(*(np.stack([column, column]) for column in columns))
    with pytest.raises(ValueError, match="at least one"):
        ReadingStream([], [], [])


def scoring_cases():
    """(segments, streams) pairs: gappy traces with 2-decimal powers cut into
    many segments, one of them a single sample, under periods from 1 s to
    longer than any segment and under event thresholds with silence, one of
    them firing at every sample; then single gappy segments whose lengths sit
    on both sides of np.sum's pairwise blocks (8 accumulators, leaves of at
    most 128 samples, halves rounded down to a multiple of 8) and deep in its
    pairwise tree, and one segment spanning the int64 range."""
    rng = np.random.default_rng(1807)
    thresholds = (Thresholds(300.0, 5.0), Thresholds(math.inf, 2.5, 30),
                  Thresholds(150.0, math.inf, 7), Thresholds(math.inf, math.inf, 5),
                  Thresholds(math.inf, math.inf, 1))  # every sample fires: one-sample intervals
    for _ in range(6):
        samples = random_gappy_trace(rng, length=600, max_power=500_000, gap_chance=0.03,
                                     max_gap=120)
        samples = [(t, p / 100) for t, p in samples] + [(samples[-1][0] + 500, 123.45)]
        segments = segment_trace(validate_trace(samples), max_gap=60)
        assert len(segments) > 2 and len(segments[-1]) == 1
        for dt in (1, 7, 60, 10**6):
            yield segments, [sample_time_based(s, dt) for s in segments]
        for th in thresholds:
            yield segments, [sample_event_based(s, th) for s in segments]
    long_segments = (  # built in numpy: gaps of 1 to 9 s at random, 2-decimal powers
        PowerTrace(np.cumsum(1 + (rng.random(n) < 0.05) * rng.integers(1, 10, n)),
                   rng.integers(0, 500_000, n) / 100)
        for n in (65535, 65536, 65537, 131081, 10**6 + 3))
    short_segments = (
        one_segment([(t, p / 100) for t, p in random_gappy_trace(rng, length=n, max_power=500_000,
                                                                 gap_chance=0.05)])
        for n in (7, 8, 9, 127, 128, 129, 135, 136, 137, 255, 256, 257, 263, 264, 1023, 1024,
                  1025, 8191, 8192, 8193))
    for seg in itertools.chain(short_segments, long_segments):
        for sample, param in [(sample_time_based, dt) for dt in (1, 3, 10**6)] + [
                (sample_event_based, th) for th in thresholds]:
            yield [seg], [sample(seg, param)]
    (seg,) = segment_trace(validate_trace([(-(2**63), 3.25), (2**63 - 2, 5.5)]), max_gap=2**64)
    for stream in [sample_time_based(seg, 2**64)] + [sample_event_based(seg, th) for th in thresholds]:
        yield [seg], [stream]


def test_held_powers_and_pooled_score_match_the_index_route():
    silences = 0
    for segments, streams in scoring_cases():
        num = den = 0.0
        for seg, stream in zip(segments, streams):
            expected = indexed_held_powers(stream, seg)
            held = reconstruct(stream, seg).powers
            assert held.tobytes() == expected.tobytes()
            # the kernel's numerator is bit for bit np.sum of the numpy route's errors
            total = library().held_error_sum(seg.timestamps, seg.powers, len(seg),
                                             stream.timestamps, _interval_powers(stream, seg))
            assert np.float64(total).tobytes() == np.abs(seg.powers - held).sum().tobytes()
            n, d = error_components(seg, PowerTrace(seg.timestamps, expected))
            num += n
            den += d
            silences += int(np.count_nonzero(stream.triggers == SILENCE))
        count = sum(message_count(s) for s in streams)
        assert _pooled_score(segments, streams) == (num / den, count)
    assert silences > 0


def test_reconstruct_across_the_whole_int64_range():
    # one reading interval of 2**64 - 1 s, which an int64 difference wraps to -1
    (seg,) = segment_trace(validate_trace([(-(2**63), 3.0), (2**63 - 2, 5.0)]), max_gap=2**64)
    recon = reconstruct(sample_time_based(seg, 2**64), seg)
    assert recon.powers.tolist() == [8.0 / 2.0**64] * 2


def test_reconstruction_conserves_energy():
    rng = np.random.default_rng(61)
    for _ in range(10):
        seg = one_segment(random_step_trace(rng, length=300))
        dp, e_wh, silence = random_thresholds(rng)
        for stream in (
            sample_time_based(seg, 7),
            sample_event_based(seg, Thresholds(dp, e_wh, silence)),
        ):
            recon = reconstruct(stream, seg)
            assert float(recon.powers.sum()) == pytest.approx(
                stream.energy_ws.sum(), rel=1e-9
            )


def test_nmae_identity_is_zero(segment_a):
    assert nmae(segment_a, reconstruct(sample_time_based(segment_a, 1), segment_a)) == 0.0


def test_nmae_hand_value():
    seg = one_segment([(0, 100.0), (1, 100.0), (2, 200.0), (3, 200.0)])
    stream = sample_time_based(seg, 4)  # single 150 W average
    value = nmae(seg, reconstruct(stream, seg))
    assert abs(value - 1 / 3) < 1e-12


def test_nmae_all_zero_reconstruction_is_one(segment_a):
    zero = PowerTrace(segment_a.timestamps, np.zeros(len(segment_a)))
    assert nmae(segment_a, zero) == 1.0


def test_nmae_zero_energy_segment_rejected():
    seg = one_segment([(0, 0.0), (1, 0.0)])
    recon = reconstruct(sample_time_based(seg, 1), seg)
    with pytest.raises(ZeroEnergySegmentError):
        nmae(seg, recon)


def test_nmae_grid_mismatch_rejected(segment_a, constant_segment):
    recon = reconstruct(sample_time_based(segment_a, 2), segment_a)
    shifted = one_segment([(t + 1, p) for t, p in trace_samples(constant_segment)])
    with pytest.raises(MismatchedSegmentError):
        nmae(shifted, recon)


def test_nmae_invariant_under_uniform_rescaling(segment_a):
    stream = sample_time_based(segment_a, 3)
    base = nmae(segment_a, reconstruct(stream, segment_a))
    for k in (2.0, 0.5):
        seg_k = one_segment([(t, p * k) for t, p in trace_samples(segment_a)])
        value = nmae(seg_k, reconstruct(sample_time_based(seg_k, 3), seg_k))
        assert value == base
    seg_3 = one_segment([(t, p * 3.0) for t, p in trace_samples(segment_a)])
    value = nmae(seg_3, reconstruct(sample_time_based(seg_3, 3), seg_3))
    assert value == pytest.approx(base, rel=1e-12)


def test_time_based_nmae_matches_direct_window_average(segment_a):
    for dt in (2, 3, 10):
        stream = sample_time_based(segment_a, dt)
        recon = reconstruct(stream, segment_a)
        direct = np.empty(len(segment_a))
        ts = stream.timestamps.tolist()
        for prev_t, cur_t, cur_e in zip(ts, ts[1:], stream.energy_ws[1:].tolist()):
            width = cur_t - prev_t
            mask = (segment_a.timestamps >= prev_t) & (segment_a.timestamps < cur_t)
            direct[mask] = cur_e / width
        assert np.array_equal(recon.powers, direct)


def test_compression_ratio_values():
    assert compression_ratio(60480, 3000) == 20.16
    assert compression_ratio(10, 10) == 1.0
    assert compression_ratio(10, 20) == 0.5
    with pytest.raises(ZeroCandidateError):
        compression_ratio(10, 0)


def sweep_fixture_trace(rng_seed=67, length=600):
    rng = np.random.default_rng(rng_seed)
    return validate_trace(random_step_trace(rng, length=length, max_dwell=30))


def test_run_sweep_default_grid_shape():
    result = run_sweep(sweep_fixture_trace(), DEFAULT_DT_GRID, DEFAULT_PERCENT_GRID,
                       DEFAULT_PERCENT_GRID, ThresholdSpec(), max_gap=3600)
    assert len(result.time_based) == 9
    assert len(result.event_based) == 49


def test_run_sweep_dt1_row_is_exact():
    result = run_sweep(sweep_fixture_trace(), [1], [1], [1], ThresholdSpec(), max_gap=3600)
    assert result.time_based[0].nmae == 0.0


def test_run_sweep_composes_individual_operations():
    trace = sweep_fixture_trace()
    (seg,) = segment_trace(trace, max_gap=3600)
    spec = ThresholdSpec()
    result = run_sweep(trace, [60], [5], [2], spec, max_gap=3600)

    stats = trace_stats(trace)
    th = derive_thresholds(stats, 5, 2, spec)
    time_stream = sample_time_based(seg, 60)
    event_stream = sample_event_based(seg, th)
    ref = message_count(sample_time_based(seg, 10))

    t_row = result.time_based[0]
    assert t_row.nmae == nmae(seg, reconstruct(time_stream, seg))
    assert t_row.message_count == message_count(time_stream)
    assert t_row.compression_vs_10s == ref / t_row.message_count

    e_row = result.event_based[0]
    assert e_row.thresholds == th
    assert e_row.nmae == nmae(seg, reconstruct(event_stream, seg))
    assert e_row.message_count == message_count(event_stream)
    assert e_row.compression_vs_10s == ref / e_row.message_count


def test_run_sweep_pools_error_components_across_segments():
    rng = np.random.default_rng(71)
    part1 = random_step_trace(rng, length=200, start=0)
    part2 = [(t + 10_000, p) for t, p in random_step_trace(rng, length=200, start=0)]
    trace = validate_trace(part1 + part2)
    segments = segment_trace(trace, max_gap=60)
    assert len(segments) == 2

    result = run_sweep(trace, [30], [1], [1], ThresholdSpec(), max_gap=60)
    num = den = 0.0
    for seg in segments:
        n, d = error_components(seg, reconstruct(sample_time_based(seg, 30), seg))
        num += n
        den += d
    assert result.time_based[0].nmae == num / den

    th = derive_thresholds(trace_stats(trace), 1, 1, ThresholdSpec())
    assert result.event_based[0].thresholds == th  # whole-trace stats, not per segment


def test_run_sweep_rows_compose_per_segment_operations_for_any_spec():
    rng = np.random.default_rng(73)
    part1 = random_step_trace(rng, length=300, start=0)
    part2 = [(t + 5_000, p) for t, p in random_step_trace(rng, length=250, start=0)]
    trace = validate_trace(part1 + part2)
    segments = segment_trace(trace, max_gap=60)
    assert len(segments) == 2
    spec = ThresholdSpec("peak", "none")
    result = run_sweep(trace, [30, 60], [2, 10], [1, 5], spec, max_gap=60)

    stats = trace_stats(trace)
    reference = sum(message_count(sample_time_based(seg, 10)) for seg in segments)

    def expected(streams):
        parts = [error_components(seg, reconstruct(st, seg)) for seg, st in zip(segments, streams)]
        count = sum(map(message_count, streams))
        return (sum(n for n, _ in parts) / sum(d for _, d in parts), count, reference / count)

    assert [r.dt for r in result.time_based] == [30, 60]
    for row in result.time_based:
        streams = [sample_time_based(seg, row.dt) for seg in segments]
        assert (row.nmae, row.message_count, row.compression_vs_10s) == expected(streams)
    assert [(r.p_percent, r.e_percent) for r in result.event_based] == [(2, 1), (2, 5), (10, 1), (10, 5)]
    for row in result.event_based:
        th = derive_thresholds(stats, row.p_percent, row.e_percent, spec)
        assert row.thresholds == th
        streams = [sample_event_based(seg, th) for seg in segments]
        assert (row.nmae, row.message_count, row.compression_vs_10s) == expected(streams)


def test_run_sweep_samples_each_segment_once_per_grid_point(monkeypatch):
    # the traced benchmark times and counts sampling by wrapping the public samplers where
    # run_sweep looks them up; a private sampling step would hide every call from it
    calls = {"sample_time_based": [], "sample_event_based": []}
    for name, seen in calls.items():
        def counted(segment, param, sample=getattr(evaluate, name), seen=seen):
            seen.append((segment.start, param))
            return sample(segment, param)
        monkeypatch.setattr(evaluate, name, counted)
    rng = np.random.default_rng(1808)
    trace = validate_trace(random_gappy_trace(rng, length=1500, gap_chance=0.004, max_gap=400))
    starts = [s.start for s in segment_trace(trace, max_gap=60)]
    assert len(starts) >= 3
    dt_list, p_list, e_list = [10, 60, 300], [1, 5], [2, 10, 50]
    result = run_sweep(trace, dt_list, p_list, e_list, ThresholdSpec(), max_gap=60)
    periodic, event = calls.values()
    assert len(periodic) == len(dt_list) * len(starts)
    assert len(event) == len(p_list) * len(e_list) * len(starts)
    assert periodic == [(start, dt) for dt in dt_list for start in starts]
    assert event == [(start, row.thresholds) for row in result.event_based for start in starts]


def test_run_sweep_deterministic():
    trace = sweep_fixture_trace()
    a = run_sweep(trace, [10, 60], [1, 5], [1, 5], ThresholdSpec(), max_gap=3600)
    b = run_sweep(trace, [10, 60], [1, 5], [1, 5], ThresholdSpec(), max_gap=3600)
    assert a == b


def test_run_sweep_deduplicates_dt():
    result = run_sweep(sweep_fixture_trace(), [10, 10, 60], [1], [1], ThresholdSpec(),
                       max_gap=3600)
    assert [r.dt for r in result.time_based] == [10, 60]
    (row,) = run_sweep(sweep_fixture_trace(), [10, 10.0], [1], [1], ThresholdSpec(),
                       max_gap=3600).time_based
    assert type(row.dt) is int and row.dt == 10


def test_run_sweep_rejects_empty_grids():
    trace = sweep_fixture_trace()
    with pytest.raises(ValueError):
        run_sweep(trace, [], [1], [1], ThresholdSpec(), max_gap=3600)
    with pytest.raises(ValueError):
        run_sweep(trace, [10], [], [1], ThresholdSpec(), max_gap=3600)
    for bad in (10.5, math.inf, math.nan):  # not truncated to 10, nor an OverflowError
        with pytest.raises(ValueError, match="delta_t must be an integer >= 1"):
            run_sweep(trace, [bad, 10], [1], [1], ThresholdSpec(), max_gap=3600)


def test_run_sweep_raises_as_a_serial_loop_and_leaves_no_thread_behind():
    # each row is scored on this thread before the next is sampled, so the first error
    # in grid order leaves and no thread is started
    zero = validate_trace([(t, 0.0) for t in range(100)])
    threads = threading.active_count()
    with pytest.raises(ZeroEnergySegmentError):  # the dt = 10 row's, not dt = 10.5's ValueError
        run_sweep(zero, [10, 10.5], [1], [1], ThresholdSpec(), max_gap=3600)
    assert threading.active_count() == threads
    with pytest.raises(ZeroEnergySegmentError):  # not threshold_grid's DegenerateStatsError
        run_sweep(zero, DEFAULT_DT_GRID, DEFAULT_PERCENT_GRID, DEFAULT_PERCENT_GRID,
                  ThresholdSpec(), max_gap=3600)
    assert threading.active_count() == threads
    with pytest.raises(ValueError, match="delta_t must be an integer"):
        run_sweep(sweep_fixture_trace(), [10, 60, 10.5], [1], [1], ThresholdSpec(), max_gap=3600)
    assert threading.active_count() == threads
    run_sweep(sweep_fixture_trace(), DEFAULT_DT_GRID, [1, 5], [1, 5], ThresholdSpec(),
              max_gap=3600)
    assert threading.active_count() == threads


def test_run_sweep_raises_the_first_rows_error_before_it_samples_a_later_row(monkeypatch):
    # each row is scored as soon as it is sampled: the first row's error leaves, not the
    # one the grid's last sampler call would raise, and no event row is sampled
    class FirstRowError(Exception):
        pass

    rng = np.random.default_rng(1810)
    trace = validate_trace(random_gappy_trace(rng, length=1500, gap_chance=0.004, max_gap=400))
    segments = segment_trace(trace, max_gap=60)
    assert len(segments) >= 3
    th_grid = threshold_grid(trace_stats(trace), DEFAULT_PERCENT_GRID, DEFAULT_PERCENT_GRID,
                             ThresholdSpec())
    event_calls, scored = [], []

    def sample_event(segment, th, sample=evaluate.sample_event_based):
        event_calls.append(th)
        if len(event_calls) == len(th_grid) * len(segments):
            raise ValueError("the last cell's sampler fails")
        return sample(segment, th)

    def score(segments, streams):
        scored.append(len(streams))
        raise FirstRowError

    monkeypatch.setattr(evaluate, "sample_event_based", sample_event)
    monkeypatch.setattr(evaluate, "_pooled_score", score)
    threads = threading.active_count()
    with pytest.raises(FirstRowError):  # the first row's error, not the last cell's
        run_sweep(trace, DEFAULT_DT_GRID, DEFAULT_PERCENT_GRID, DEFAULT_PERCENT_GRID,
                  ThresholdSpec(), max_gap=60)
    assert scored == [len(segments)] and event_calls == []
    assert threading.active_count() == threads


def test_run_sweep_holds_one_row_at_a_time():
    # the one segment's prefix sums (0.5 x) beside one event row's scan buffers (about
    # 1.06 x) peak at 1.61-1.62 x the trace's column bytes; with each row queued for a
    # scorer thread the sweep peaked at 1.78-1.90 x on this trace
    trace = validate_trace(random_step_trace(np.random.default_rng(3), length=250_000))
    peak = traced_peak(lambda: run_sweep(trace, DEFAULT_DT_GRID, DEFAULT_PERCENT_GRID,
                                         DEFAULT_PERCENT_GRID, ThresholdSpec(), max_gap=3600))
    assert peak < 1.7 * (trace.timestamps.nbytes + trace.powers.nbytes)


def test_run_sweep_compression_reference_present_even_without_dt10():
    rng = np.random.default_rng(1808)
    samples = random_gappy_trace(rng, length=1500, gap_chance=0.004, max_gap=400)
    trace = validate_trace(samples)
    segments = segment_trace(trace, max_gap=60)
    assert len(segments) >= 3 and all(s.duration % 10 for s in segments)
    result = run_sweep(trace, [60], [1], [1], ThresholdSpec(), max_gap=60)
    ref = sum(message_count(sample_time_based(s, 10)) for s in segments)
    row = result.time_based[0]
    assert row.compression_vs_10s == ref / row.message_count


# The paper's claim, that thresholds set as a percentage of a house's own peak
# fit houses of any size, holds exactly in float64 without rounding: scaling
# every power by 2**k scales every threshold by 2**k and leaves every trigger
# decision and every error ratio as it was. Shifting the clock changes nothing.
@st.composite
def sweep_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([2, 50, 300]))
    ts, pw = np.array(random_gappy_trace(rng, length=n, gap_chance=0.05, max_gap=90)).T
    if draw(st.booleans()):  # 2-decimal watts, as in channel files: inexact in binary
        pw = np.round(np.abs(pw + rng.normal(0.0, 7.0, n)), 2)
    trace = PowerTrace(ts.astype(np.int64), pw)
    spec = ThresholdSpec(draw(st.sampled_from(["variation", "peak"])), "none")
    stats = trace_stats(trace)
    base = stats.peak_variation_w if spec.power_base == "variation" else stats.peak_power_w
    assume(base > 0 and stats.mean_daily_energy_wh > 0)
    max_gap = draw(st.sampled_from([1, 30, 3600]))
    return trace, spec, max_gap


def _sweep(trace, spec, max_gap):
    return run_sweep(trace, [1, 7, 60], [1, 20, math.inf], [0.5, 10], spec, max_gap=max_gap)


def _scores(result):
    """Every row without its thresholds, as text that tells every float bit apart."""
    return repr([(r.dt, r.p_percent, r.e_percent, r.nmae, r.message_count, r.compression_vs_10s)
                 for r in result.time_based + result.event_based])


@settings(max_examples=40, deadline=None)
@given(sweep_cases(), st.integers(-4, 4))
def test_scaling_every_power_by_2_to_the_k_scales_only_the_thresholds(case, k):
    trace, spec, max_gap = case
    base = _sweep(trace, spec, max_gap)
    scaled = _sweep(PowerTrace(trace.timestamps, trace.powers * 2.0**k), spec, max_gap)
    assert _scores(scaled) == _scores(base)
    for a, b in zip(base.event_based, scaled.event_based):
        assert b.thresholds.power_delta_w == a.thresholds.power_delta_w * 2.0**k
        assert b.thresholds.energy_wh == a.thresholds.energy_wh * 2.0**k


@settings(max_examples=40, deadline=None)
@given(sweep_cases(), st.data())
def test_shifting_every_timestamp_changes_no_row(case, data):
    trace, spec, max_gap = case
    first, last = int(trace.timestamps[0]), int(trace.timestamps[-1])
    shift = data.draw(st.one_of(st.sampled_from([-(2**63) - first, 2**63 - 2 - last]),
                                st.integers(-(2**63) - first, 2**63 - 2 - last)))
    shifted = PowerTrace(np.array([t + shift for t in trace.timestamps.tolist()]), trace.powers)
    assert repr(_sweep(shifted, spec, max_gap)) == repr(_sweep(trace, spec, max_gap))


def test_ceil_rounding_breaks_the_scale_relation_where_a_base_crosses_a_whole_kw():
    # 400 W steps; doubled, 800 W steps. Under ceil both peak variations round up to
    # the same 1 kW, so 50 % of it is 500 W for both houses: the small house's steps
    # no longer fire, where without rounding both fire at every step
    ts = np.arange(600)
    small = PowerTrace(ts, np.where(ts // 30 % 2, 500.0, 100.0))
    large = PowerTrace(ts, small.powers * 2.0)
    rows = {rounding: [run_sweep(t, [10], [50], [math.inf], ThresholdSpec("variation", rounding),
                                 max_gap=60).event_based[0] for t in (small, large)]
            for rounding in ("ceil", "none")}
    assert [r.thresholds.power_delta_w for r in rows["ceil"]] == [500.0, 500.0]
    assert [r.message_count for r in rows["ceil"]] == [1, 20]
    assert [r.thresholds.power_delta_w for r in rows["none"]] == [200.0, 400.0]
    assert [r.message_count for r in rows["none"]] == [20, 20]
    assert rows["none"][0].nmae == rows["none"][1].nmae == 0.0
