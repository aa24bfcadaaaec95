import itertools
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meterdelta import (
    PowerTrace,
    ReadingStream,
    combine_mains,
    first_difference_distribution,
    segment_trace,
    trace_stats,
    validate_trace,
)
from meterdelta import _kernels
from meterdelta.errors import (
    DegenerateTraceError,
    EmptyInputError,
    NegativePowerError,
    NonFiniteError,
    TimestampRangeError,
)
from meterdelta.trace import _BLOCK, _last_value_wins, _sample_array
from conftest import trace_samples, traced_peak
from oracles import (random_gappy_trace, random_step_trace, unique_last_value_wins, whole_trace_cuts,
                     whole_trace_stats)


def test_validate_passthrough():
    trace = validate_trace([(0, 100.0), (1, 100.0)])
    assert len(trace) == 2
    assert trace.timestamps.tolist() == [0, 1]
    assert trace.powers.tolist() == [100.0, 100.0]


def test_validate_sorts_out_of_order():
    trace = validate_trace([(1, 50.0), (0, 100.0)])
    assert trace.timestamps.tolist() == [0, 1]
    assert trace.powers.tolist() == [100.0, 50.0]


def test_validate_duplicates_keep_last(caplog):
    with caplog.at_level("WARNING"):
        trace = validate_trace([(0, 100.0), (0, 200.0), (1, 100.0)])
    assert trace_samples(trace) == [(0, 200.0), (1, 100.0)]
    assert "duplicate" in caplog.text


def test_validate_unordered_rows_without_the_compiled_kernels(monkeypatch):
    def no_kernels():
        raise AssertionError("validate_trace built or loaded the C kernels")

    monkeypatch.setattr(_kernels, "library", no_kernels)
    trace = validate_trace([(2, 300.0), (0, 100.0), (2, 250.0), (1, 200.0)])
    assert trace_samples(trace) == [(0, 100.0), (1, 200.0), (2, 250.0)]


def test_validate_duplicates_oracle_over_permutations():
    base = [(0, 100.0), (0, 200.0), (1, 100.0), (1, 50.0)]
    for perm in itertools.permutations(base):
        last_wins = {}
        for t, p in perm:
            last_wins[t] = p
        expected = sorted(last_wins.items())
        assert trace_samples(validate_trace(list(perm))) == expected


@st.composite
def _timestamp_runs(draw, top=2**63 - 1, max_size=40):
    """Timestamps up to top, in any order, strictly increasing, or non-decreasing with adjacent
    repeats. Any order draws from few values, so most such draws hold duplicates and descents."""
    edges = st.sampled_from([-(2**63), -(2**63) + 1, top - 1, top])
    shape = draw(st.sampled_from(["any", "increasing", "repeats"]))
    if shape == "any":
        return draw(st.lists(st.one_of(st.integers(-3, 3), edges), max_size=max_size))
    wide = st.one_of(st.integers(-3, 3), edges, st.integers(-(2**63), top))
    stamps = sorted(set(draw(st.lists(wide, max_size=max_size))))
    if shape == "increasing":
        return stamps
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(stamps), max_size=len(stamps)))
    return [t for t, n in zip(stamps, repeats) for _ in range(n)]


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=900, deadline=None)  # 300 of each shape, as a rule
@given(_timestamp_runs(), st.data())
def test_last_value_wins_is_byte_identical_to_the_unique_route(stamps, data):
    powers = data.draw(st.lists(st.floats(), min_size=len(stamps), max_size=len(stamps)))
    samples = _sample_array(stamps, powers)
    before = samples.tobytes()
    handler, log = _Messages(), logging.getLogger("meterdelta.trace")
    log.addHandler(handler)
    try:
        rows = _last_value_wins(samples)
    finally:
        log.removeHandler(handler)
    expected = unique_last_value_wins(samples)
    assert (samples if rows is None else samples[rows]).tobytes() == expected.tobytes()
    assert samples.tobytes() == before
    # no row order exactly when every row is kept in place
    assert (rows is None) == (stamps == sorted(set(stamps)))
    # warned exactly when rows are dropped, with the count of dropped rows
    dropped = samples.size - expected.size
    warning = f"collapsed {dropped} duplicate timestamps (last value wins)"
    assert handler.messages == ([warning] if dropped else [])


@st.composite
def _raw_samples(draw):
    """A SAMPLE_DTYPE array of one row or more that validate_trace accepts: sorted and unique,
    sorted with duplicates, or unsorted. Powers include -0.0, which combine_mains turns into 0.0."""
    stamps = draw(_timestamp_runs(top=2**63 - 2, max_size=12).filter(len))  # 2**63 - 1 is invalid
    powers = st.one_of(st.just(-0.0), st.floats(0, 1e6))
    return _sample_array(stamps, draw(st.lists(powers, min_size=len(stamps), max_size=len(stamps))))


@settings(max_examples=200, deadline=None)
@given(st.lists(_raw_samples(), min_size=2, max_size=2))
def test_loaders_and_validators_neither_write_to_nor_alias_their_input(legs):
    before = [leg.tobytes() for leg in legs]
    for channels in (legs[:1], legs + legs[:1]):  # refused, and the inputs are still as they were
        with pytest.raises(ValueError, match="need exactly two mains legs"):
            combine_mains(channels)
    total = combine_mains(legs)
    traces = [validate_trace(leg) for leg in legs]
    assert [leg.tobytes() for leg in legs] == before
    results = [total.tobytes()] + [t.timestamps.tobytes() + t.powers.tobytes() for t in traces]
    for leg in legs:  # a later write to an input leaves every result as it was
        leg["timestamp"] ^= 1
        leg["power"] += 1.0
    assert [total.tobytes()] + [t.timestamps.tobytes() + t.powers.tobytes() for t in traces] == results


def test_validate_truncates_fractional_timestamps():
    trace = validate_trace([(0.9, 100.0), (2.1, 50.0)])
    assert trace.timestamps.tolist() == [0, 2]


def test_validate_empty():
    with pytest.raises(EmptyInputError):
        validate_trace([])


def test_validate_negative_power():
    with pytest.raises(NegativePowerError) as err:
        validate_trace([(0, 100.0), (5, -1.0)])
    assert err.value.timestamp == 5


def test_validate_non_finite():
    with pytest.raises(NonFiniteError):
        validate_trace([(0, float("nan"))])
    with pytest.raises(NonFiniteError):
        validate_trace([(0, float("inf"))])
    with pytest.raises(NonFiniteError):
        validate_trace([(0, 1.0), (float("nan"), 1.0)])
    with pytest.raises(NonFiniteError):
        validate_trace([(float("inf"), 1.0), (1, 1.0)])


def test_validate_rejects_timestamps_outside_int64():
    # the int64 cast would turn both large timestamps into INT64_MIN and
    # collapse them as duplicates
    with pytest.raises(TimestampRangeError) as err:
        validate_trace([(2**63 + 10, 1.0), (2**64, 2.0), (5, 3.0)])
    assert err.value.timestamp == 2**63 + 10
    assert "9223372036854775818" in str(err.value)


def test_validate_rejects_the_top_int64_timestamp():
    # a sample at 2**63 - 1 holds its power until 2**63, past int64
    with pytest.raises(TimestampRangeError) as err:
        validate_trace([(5, 1.0), (2**63 - 1, 2.0)])
    assert err.value.timestamp == 2**63 - 1
    assert validate_trace([(2**63 - 2, 1.0)]).end == 2**63 - 1
    # built directly, too: the samplers would wrap its end to -2**63
    with pytest.raises(TimestampRangeError) as err:
        PowerTrace(np.array([2**63 - 3, 2**63 - 1]), np.array([1.0, 2.0]))
    assert err.value.timestamp == 2**63 - 1
    assert PowerTrace(np.array([2**63 - 3, 2**63 - 2]), np.array([1.0, 2.0])).end == 2**63 - 1


@pytest.mark.parametrize("timestamps, powers, message", [
    ([[0, 1]], [[1.0, 2.0]], "equal-length 1-d arrays"),
    ([0, 1], [1.0], "equal-length 1-d arrays"),
    ([], [], "at least one sample"),
    ([0, 2, 1], [1.0, 2.0, 3.0], "strictly increasing"),
    ([0, 0], [1.0, 2.0], "strictly increasing"),
    ([0, 1], [1.0, np.nan], "finite and non-negative"),
    ([0, 1], [np.inf, 1.0], "finite and non-negative"),
    ([0, 1], [1.0, -0.5], "finite and non-negative"),
])
def test_power_trace_rejects_what_validate_trace_never_builds(timestamps, powers, message):
    with pytest.raises(ValueError, match=message):
        PowerTrace(np.array(timestamps, dtype=np.int64), np.array(powers))


def test_power_trace_copies_only_the_columns_a_caller_can_still_write():
    ts, base = np.arange(3), np.array([1.0, 2.0, 3.0])
    locked = base[:]
    locked.setflags(write=False)  # still writable through its base
    for powers in (base[:], locked):
        trace = PowerTrace(ts, powers)
        stream = ReadingStream(ts, [0, 4, 5], powers)  # a reading stream keeps the same rule
        assert trace.total_energy_ws == 6.0
        ts[0], base[0] = -1, 100.0  # the caller's own arrays stay writable
        for timestamps, *columns in ((trace.timestamps, trace.powers),
                                     (stream.timestamps, stream.energy_ws)):
            assert timestamps.tolist() == [0, 1, 2]
            assert all(column.tolist() == [1.0, 2.0, 3.0] for column in columns)
        ts[0], base[0] = 0, 1.0
    # columns no caller can write are kept: a trace's own, and each segment's views of them
    whole = validate_trace([(t, 1.0) for t in (0, 1, 2, 50, 51)])
    again = PowerTrace(whole.timestamps, whole.powers)
    assert again.timestamps is whole.timestamps and again.powers is whole.powers
    for seg in segment_trace(whole, 10):
        assert np.shares_memory(seg.timestamps, whole.timestamps)
        assert np.shares_memory(seg.powers, whole.powers)


def test_validate_trace_allocates_each_column_once():
    n = 100_000
    # sorted: one contiguous copy of each column, 1 x raw; a sorted copy of the samples
    # besides, or copying the columns a second time, would peak at 1.5 x raw or more.
    # reversed: the sort order (0.5 x raw) and one gather of each column (1 x raw);
    # copying the gathers again peaks at 2.5 x raw. Half the rows repeated: the order,
    # then gathers of half the rows (0.5 x raw); copying them again peaks at 1.5 x raw
    for timestamps, bound in ((np.arange(n), 1.25), (np.arange(n)[::-1], 1.75),
                              (np.arange(n)[::-1] // 2, 1.25)):
        raw = _sample_array(timestamps, np.ones(n))
        peak = traced_peak(lambda: validate_trace(raw))
        assert peak < bound * raw.nbytes, (timestamps[:2], peak / raw.nbytes)


@pytest.fixture(scope="module")
def gappy_million():
    """10**6 samples: a gap of 1 to 199 s after about one sample in fifty, and ten of two hours."""
    rng = np.random.default_rng(17)
    steps = np.where(rng.random(10**6 - 1) < 0.02, rng.integers(2, 201, 10**6 - 1), 1)
    steps[rng.choice(steps.size, 10, replace=False)] = 7201
    return PowerTrace(np.concatenate(([0], np.cumsum(steps))), rng.integers(0, 5000, 10**6) * 1.0)


def test_trace_stats_reads_the_trace_in_blocks(gappy_million):
    trace = gappy_million
    # a block's steps and changes; the whole trace's steps, changes and one-second
    # mask at once peaked at 1.06 x its columns
    peak = traced_peak(lambda: trace_stats(trace))
    assert peak < 0.25 * (trace.timestamps.nbytes + trace.powers.nbytes)


def test_segment_trace_reads_the_trace_in_blocks(gappy_million):
    trace = gappy_million
    # a block's steps and the eleven segments; the whole trace's steps alone are 0.5 x its columns
    peak = traced_peak(lambda: segment_trace(trace, 3600))
    assert peak < 0.125 * (trace.timestamps.nbytes + trace.powers.nbytes)


def test_cumulative_sums_are_allocated_once(gappy_million):
    segment = max(segment_trace(gappy_million, 3600), key=len)
    # n + 1 sums, 1 x the powers; a cumsum copied behind a leading zero peaked at 2 x
    peak = traced_peak(lambda: PowerTrace(segment.timestamps, segment.powers)._cumulative_ws)
    assert peak < 1.25 * segment.powers.nbytes


def test_stats_trace_a(trace_a):
    s = trace_stats(trace_a)
    assert s.peak_power_w == 500.0
    assert s.peak_variation_w == 400.0
    assert s.total_energy_wh == 0.5  # 1800 Ws
    assert s.coverage == 1.0
    assert s.duration_s == 10
    assert s.gap_count == 0
    assert s.mean_daily_energy_wh == 0.5 / (10 / 86400)


def test_stats_constant_has_zero_variation(constant_trace):
    assert trace_stats(constant_trace).peak_variation_w == 0.0


def test_stats_exclude_cross_gap_differences():
    trace = validate_trace([(0, 100.0), (1, 100.0), (2, 100.0), (10, 900.0), (11, 900.0)])
    s = trace_stats(trace)
    assert s.peak_variation_w == 0.0  # the 800 W jump spans a gap
    assert s.gap_count == 1
    assert s.duration_s == 12
    assert s.coverage == 5 / 12


# the middle gap is over 2**63 s wide, so its int64 difference wraps negative
WIDE_GAP = [(-(2**63), 10.0), (-(2**63) + 1, 30.0), (2**62, 1000.0), (2**62 + 1, 1010.0)]


def test_stats_count_a_gap_wider_than_2_63():
    s = trace_stats(validate_trace(WIDE_GAP))
    assert s.gap_count == 1
    assert s.peak_variation_w == 20.0
    assert s.duration_s == 2**62 + 2**63 + 2


def test_stats_variation_bounded_by_peak():
    rng = np.random.default_rng(7)
    for _ in range(20):
        trace = validate_trace(random_gappy_trace(rng, length=300))
        s = trace_stats(trace)
        assert s.peak_variation_w <= 2 * s.peak_power_w
        assert 0 <= s.coverage <= 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5000),
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=50,
        unique_by=lambda pair: pair[0],
    ),
    st.randoms(),
)
def test_stats_invariant_under_input_permutation(raw, rnd):
    shuffled = list(raw)
    rnd.shuffle(shuffled)
    assert trace_stats(validate_trace(shuffled)) == trace_stats(validate_trace(raw))


def test_segment_no_gap(trace_a):
    segments = segment_trace(trace_a, max_gap=60)
    assert len(segments) == 1
    assert segments[0].start == 0
    assert segments[0].end == 10


def test_segment_split_on_gap():
    trace = validate_trace([(0, 1.0), (1, 1.0), (2, 1.0), (100, 1.0), (101, 1.0)])
    segments = segment_trace(trace, max_gap=60)
    assert [s.timestamps.tolist() for s in segments] == [[0, 1, 2], [100, 101]]


def test_segment_splits_are_logged_at_debug(caplog):
    trace = validate_trace([(0, 1.0), (1, 1.0), (2, 1.0), (100, 1.0), (101, 1.0)] + WIDE_GAP)
    with caplog.at_level("INFO", logger="meterdelta.trace"):
        segment_trace(trace, max_gap=60)
    assert caplog.records == []
    with caplog.at_level("DEBUG", logger="meterdelta.trace"):
        segment_trace(trace, max_gap=60)
    assert caplog.messages == [
        f"split at the gap [{-(2**63) + 2}, 0) of {2**63 - 2} s",
        "split at the gap [3, 100) of 97 s",
        f"split at the gap [102, {2**62}) of {2**62 - 102} s",
    ]


def test_segment_gap_boundary_is_inclusive():
    trace = validate_trace([(0, 1.0), (1, 1.0), (2, 1.0), (100, 1.0), (101, 1.0)])
    assert len(segment_trace(trace, max_gap=98)) == 1
    assert len(segment_trace(trace, max_gap=97)) == 2


def test_segment_splits_at_a_gap_wider_than_2_63():
    segments = segment_trace(validate_trace(WIDE_GAP), max_gap=3600)
    assert [s.timestamps.tolist() for s in segments] == [[-(2**63), -(2**63) + 1],
                                                        [2**62, 2**62 + 1]]


def test_segment_rejects_bad_max_gap(trace_a):
    with pytest.raises(ValueError):
        segment_trace(trace_a, max_gap=0)


def test_segments_partition_and_energy_adds_up():
    rng = np.random.default_rng(11)
    for _ in range(10):
        trace = validate_trace(random_gappy_trace(rng, length=400, gap_chance=0.05))
        for max_gap in (1, 10, 100):
            segments = segment_trace(trace, max_gap)
            for column in ("timestamps", "powers"):
                parts = [getattr(s, column) for s in segments]
                assert np.array_equal(np.concatenate(parts), getattr(trace, column))
            total = sum(s.total_energy_wh for s in segments)
            assert total == pytest.approx(trace_stats(trace).total_energy_wh, rel=1e-9)


def test_peak_variation_is_max_over_segments():
    rng = np.random.default_rng(13)
    trace = validate_trace(random_gappy_trace(rng, length=500, gap_chance=0.05))
    expected = trace_stats(trace).peak_variation_w
    for max_gap in (1, 5, 50):
        segments = segment_trace(trace, max_gap)
        assert max(trace_stats(s).peak_variation_w for s in segments) == expected


def _block_edge_trace(n, steps, anchor, edge_step, constant, seed) -> PowerTrace:
    """n samples whose steps are all 1 s ("ones"), all gaps ("gaps") or mostly 1 s ("mixed").
    edge_step, unless None, is forced at the steps either side of each block edge, and one
    of them carries a 10 MW change. anchor puts the first timestamp at -2**63 ("low"), the
    last at 2**63 - 2 ("high"), both, with a first step over 2**63 s, or neither."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(2, 10**4, n - 1)
    step = {"ones": np.ones(n - 1, np.int64), "gaps": gaps,
            "mixed": np.where(rng.random(n - 1) < 0.1, gaps, 1)}[steps].tolist()
    powers = np.full(n, 250.0) if constant else rng.random(n) * 5000
    edges = [e for e in (_BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK) if e < n - 1]
    if edge_step is not None and edges:
        for edge in edges:
            step[edge] = edge_step
        if not constant:
            powers[rng.choice(edges) + 1] = 1e7
    first = {"low": -(2**63), "high": 2**63 - 2 - sum(step)}.get(anchor, int(rng.integers(-10**12, 10**12)))
    if anchor == "both" and step:
        first, step[0] = -(2**63), step[0] + 2**64 - 2 - sum(step)
    return PowerTrace(list(itertools.accumulate(step, initial=first)), powers)


@settings(max_examples=120, deadline=None)
@given(n=st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
       steps=st.sampled_from(["ones", "gaps", "mixed"]),
       anchor=st.sampled_from(["low", "high", "both", "neither"]),
       edge_step=st.sampled_from([None, 1, 2, 3601]),
       constant=st.booleans(),
       max_gap=st.one_of(st.sampled_from([1, 10, 3600, 2**63, 10**30]), st.integers(1, 2**64)),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, steps="ones", anchor="high", edge_step=None, constant=True, max_gap=1, seed=0)
@example(n=_BLOCK - 1, steps="mixed", anchor="neither", edge_step=None, constant=False, max_gap=10, seed=1)
@example(n=_BLOCK, steps="gaps", anchor="low", edge_step=None, constant=False, max_gap=1, seed=2)
@example(n=_BLOCK + 1, steps="gaps", anchor="neither", edge_step=1, constant=False, max_gap=10, seed=3)
@example(n=_BLOCK + 1, steps="ones", anchor="high", edge_step=3601, constant=False, max_gap=3600, seed=4)
@example(n=2 * _BLOCK + 1, steps="mixed", anchor="both", edge_step=2, constant=False, max_gap=10**30, seed=5)
@example(n=2 * _BLOCK + 1, steps="ones", anchor="low", edge_step=None, constant=True, max_gap=1, seed=6)
def test_block_wise_stats_and_cuts_equal_the_whole_trace_oracles(n, steps, anchor, edge_step, constant,
                                                                 max_gap, seed):
    trace = _block_edge_trace(n, steps, anchor, edge_step, constant, seed)
    assert trace_stats(trace) == whole_trace_stats(trace)
    cuts = list(itertools.accumulate(map(len, segment_trace(trace, max_gap))))[:-1]
    assert cuts == whole_trace_cuts(trace.timestamps, max_gap)


def test_diffdist_trace_a(trace_a):
    curve = first_difference_distribution(trace_a)
    assert curve.normalized_delta.tolist() == [1.0, 1.0, 0, 0, 0, 0, 0, 0, 0]
    assert np.allclose(curve.rank_percent, np.arange(1, 10) / 9)


def test_diffdist_constant_is_all_zero(constant_trace):
    curve = first_difference_distribution(constant_trace)
    assert not curve.normalized_delta.any()
    assert curve.rank_percent[-1] == 1.0


def test_diffdist_skips_a_gap_wider_than_2_63():
    curve = first_difference_distribution(validate_trace(WIDE_GAP))
    assert curve.normalized_delta.tolist() == [1.0, 0.5]


def test_diffdist_degenerate():
    with pytest.raises(DegenerateTraceError):
        first_difference_distribution(validate_trace([(0, 1.0)]))
    with pytest.raises(DegenerateTraceError):
        first_difference_distribution(validate_trace([(0, 1.0), (5, 2.0), (10, 3.0)]))


def test_diffdist_sorted_and_normalized():
    rng = np.random.default_rng(17)
    for _ in range(20):
        trace = validate_trace(random_step_trace(rng, length=200))
        curve = first_difference_distribution(trace)
        assert np.all(np.diff(curve.normalized_delta) <= 0)
        if curve.normalized_delta.any():
            assert curve.normalized_delta[0] == 1.0
        assert np.all(np.diff(curve.rank_percent) > 0)
        assert curve.rank_percent[-1] == 1.0
