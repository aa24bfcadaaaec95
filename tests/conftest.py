import tracemalloc

import pytest

from meterdelta import segment_trace, validate_trace


def traced_peak(run) -> int:
    """The peak bytes that tracemalloc sees allocated while run() runs, after one
    untraced warm-up call, so that nothing first-call-only is counted."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def trace_samples(trace):
    """A trace's samples as (timestamp, power) tuples of Python numbers."""
    return list(zip(trace.timestamps.tolist(), trace.powers.tolist()))


# two-step fixture used throughout: 400 W jumps at t=3 and t=5
TRACE_A_POWERS = [100, 100, 100, 500, 500, 100, 100, 100, 100, 100]


@pytest.fixture
def trace_a():
    return validate_trace([(t, float(p)) for t, p in enumerate(TRACE_A_POWERS)])


@pytest.fixture
def segment_a(trace_a):
    (seg,) = segment_trace(trace_a, max_gap=3600)
    return seg


@pytest.fixture
def constant_trace():
    return validate_trace([(t, 100.0) for t in range(10)])


@pytest.fixture
def constant_segment(constant_trace):
    (seg,) = segment_trace(constant_trace, max_gap=3600)
    return seg
