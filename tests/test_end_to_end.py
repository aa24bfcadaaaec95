"""`meterdelta sweep` on whole house directories against tests/oracles.py::reference_sweep."""
import contextlib
import io
import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from meterdelta import (ThresholdSpec, load_redd_house, sample_event_based, sample_time_based,
                        segment_trace, validate_trace)
from meterdelta.cli import _sweep_csv, _sweep_json, main
from meterdelta.errors import DegenerateStatsError

from oracles import reference_sweep

CENTS = st.integers(0, 400_000)  # 2-decimal watts, as in channel files: inexact in binary
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n", "\n \n"])  # some with a blank line


@st.composite
def houses(draw):
    """(max_gap, the texts of channel_1.dat and channel_2.dat) of one house."""
    max_gap = draw(st.integers(1, 30))
    steps = draw(st.lists(st.just(1) | st.integers(1, 3 * max_gap), max_size=60))
    # the int64 edges too: the last start puts the last sample at 2**63 - 2
    start = draw(st.sampled_from([0, 1_303_132_929, -(2**63), 2**63 - 3 - sum(steps)]))
    # the first two seconds are adjacent and in both legs, so the trace has a one-second change
    stamps = list(itertools.accumulate([1, *steps], initial=start))
    texts = []
    for _ in range(2):
        lines = [(t, draw(CENTS)) for t in stamps[:2]]
        lines += [(t, draw(CENTS)) for t in stamps[2:] if draw(st.integers(0, 9))]  # misses 1 in 10
        lines += [(t, draw(CENTS)) for t, _ in draw(st.lists(st.sampled_from(lines), max_size=3))]
        if draw(st.booleans()):  # out of timestamp order
            lines = draw(st.permutations(lines))
        texts.append("".join(f"{t} {c // 100}.{c % 100:02d}{draw(LINE_ENDS)}" for t, c in lines))
    return max_gap, texts


@settings(max_examples=30, deadline=None)
@given(houses(), st.lists(st.integers(1, 120), min_size=1, max_size=3),
       st.lists(st.sampled_from([1.0, 5.0, 20.0, 100.0, math.inf]), min_size=1, max_size=2),
       st.lists(st.sampled_from([0.5, 2.0, 50.0]), min_size=1, max_size=2),
       st.sampled_from(["variation", "peak"]), st.sampled_from(["ceil", "none"]))
def test_sweep_reports_match_the_reference_sweep(tmp_path_factory, house, dts, ps, es, base, rounding):
    max_gap, texts = house
    root = tmp_path_factory.mktemp("sweep")
    house_dir = root / "house"
    house_dir.mkdir()
    for n, text in enumerate(texts, 1):
        (house_dir / f"channel_{n}.dat").write_text(text, encoding="utf-8", newline="")
    out = root / "out"
    argv = ["sweep", "--input", str(house_dir), "--out", str(out), "--max-gap", str(max_gap),
            "--dt", ",".join(map(str, dts)), "--p-percent", ",".join(map(repr, ps)),
            "--e-percent", ",".join(map(repr, es)), "--power-base", base, "--rounding", rounding]
    try:
        expected = reference_sweep(house_dir, dts, ps, es, ThresholdSpec(base, rounding), max_gap)
    except DegenerateStatsError:  # a flat trace, or one with no energy: no threshold to derive
        assert main(argv) == 1
        return
    # each row's stream of each segment holds the segment's energy: a reading with energy,
    # dropped or doubled, moves the sum by 0.01 Ws or more, far past the tolerance here
    rows = [(sample_time_based, r.dt) for r in expected.time_based]
    rows += [(sample_event_based, r.thresholds) for r in expected.event_based]
    for segment in segment_trace(validate_trace(load_redd_house(house_dir)), max_gap):
        energy = math.fsum(segment.powers)
        for sample, param in rows:
            assert math.isclose(math.fsum(sample(segment, param).energy_ws), energy,
                                rel_tol=1e-9, abs_tol=1e-9)  # the floor: all-zero segments
    assert main(argv) == 0
    assert (out / "house_sweep.json").read_bytes() == _sweep_json("house", expected).encode()
    assert (out / "house_sweep.csv").read_bytes() == _sweep_csv(expected).encode()


DAMAGE = {  # a line that each breaks a channel file in its own way
    "malformed": st.sampled_from(["12 3 4", "12 watts", "twelve 3.00", "12", "12 nan"]),
    "negative power": CENTS.map(lambda c: f"12 -{c // 100 + 1}.{c % 100:02d}"),
    "timestamp of 2**63": CENTS.map(lambda c: f"{2**63} {c // 100}.{c % 100:02d}"),
}


@settings(max_examples=30, deadline=None)
@given(houses(), st.sampled_from(sorted(DAMAGE)), st.integers(0, 1), st.data())
def test_sweep_on_a_damaged_house_fails_cleanly_and_writes_nothing(tmp_path_factory, house, kind,
                                                                   leg, data):
    max_gap, texts = house
    text = texts[leg]
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]  # line starts, and the end
    at = data.draw(st.sampled_from(starts))
    texts[leg] = f"{text[:at]}{data.draw(DAMAGE[kind])}{data.draw(LINE_ENDS)}{text[at:]}"
    root = tmp_path_factory.mktemp("damaged")
    house_dir = root / "house"
    house_dir.mkdir()
    for n, text in enumerate(texts, 1):
        (house_dir / f"channel_{n}.dat").write_text(text, encoding="utf-8", newline="")
    out = root / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["sweep", "--input", str(house_dir), "--out", str(out),
                     "--max-gap", str(max_gap)])
    assert code in (1, 2)
    lines = stderr.getvalue().splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert "Traceback" not in stderr.getvalue()
    assert not out.exists() or not any(out.iterdir())
