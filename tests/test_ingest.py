import gzip
import io
import locale
import os
import subprocess
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from meterdelta import combine_mains, load_csv, load_redd_channel, load_redd_house
from meterdelta.errors import EmptyInputError, MissingColumnError, ParseError, TimestampRangeError
from meterdelta.trace import SAMPLE_DTYPE, _sample_array
from oracles import sorted_leg_sum


def channel_text(samples) -> str:
    """samples in the channel line format, which reads back exactly."""
    return "".join(f"{int(t)} {float(p)!r}\n" for t, p in samples)


def test_redd_basic(tmp_path):
    f = tmp_path / "channel_1.dat"
    f.write_text("1303132930 222.02\n1303132931 221.97\n")
    assert load_redd_channel(f).tolist() == [(1303132930, 222.02), (1303132931, 221.97)]


def test_redd_accepts_stream_and_crlf():
    stream = io.StringIO("0 1.5\r\n1 2.5\r\n")
    assert load_redd_channel(stream).tolist() == [(0, 1.5), (1, 2.5)]


def test_redd_skips_blank_lines():
    assert load_redd_channel(io.StringIO("0 1\n\n1 2\n")).tolist() == [(0, 1.0), (1, 2.0)]


def test_redd_empty_file(tmp_path):
    f = tmp_path / "empty.dat"
    f.write_text("")
    with pytest.raises(EmptyInputError):
        load_redd_channel(f)


def test_redd_strict_parse_errors():
    with pytest.raises(ParseError) as err:
        load_redd_channel(io.StringIO("1303132930 abc\n"))
    assert err.value.line_no == 1
    with pytest.raises(ParseError):
        load_redd_channel(io.StringIO("1 2 3\n"))
    with pytest.raises(ParseError):
        load_redd_channel(io.StringIO("1.5 2\n"))  # non-integer timestamp
    with pytest.raises(ParseError):
        load_redd_channel(io.StringIO("1 nan\n"))


def test_redd_tolerant_skips_and_logs(caplog):
    text = "0 1\nbogus line here\n2 3\n4 inf\n5 6\n"
    with caplog.at_level("WARNING"):
        samples = load_redd_channel(io.StringIO(text), tolerant=True)
    assert samples.tolist() == [(0, 1.0), (2, 3.0), (5, 6.0)]
    assert "skipped 2" in caplog.text


def test_redd_tolerant_equals_strict_on_good_lines_only():
    good = [(i, float(i) * 1.5) for i in range(20)]
    lines = [f"{t} {p}" for t, p in good]
    for pos in (0, 7, 19):
        lines.insert(pos, "garbage")
    mixed = "\n".join(lines) + "\n"
    assert load_redd_channel(io.StringIO(mixed), tolerant=True).tolist() == good
    with pytest.raises(ParseError):
        load_redd_channel(io.StringIO(mixed))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.floats(min_value=0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_redd_round_trip(samples):
    assert load_redd_channel(io.StringIO(channel_text(samples))).tolist() == [
        (int(t), float(p)) for t, p in samples
    ]


def test_redd_round_trip_to_file(tmp_path):
    f = tmp_path / "out.dat"
    samples = [(0, 100.0), (1, 222.02)]
    f.write_text(channel_text(samples), encoding="utf-8")
    assert load_redd_channel(f).tolist() == samples


def test_redd_array_round_trip(tmp_path):
    text = "1303132930 222.02\n1303132931 0.1\n9007199254740993 1e+20\n1303132929 5.0\n"
    f = tmp_path / "channel_1.dat"
    f.write_text(text)
    samples = load_redd_channel(f)
    assert channel_text(samples) == text
    again = load_redd_channel(io.StringIO(channel_text(samples)))
    assert again.dtype == samples.dtype
    assert again.tobytes() == samples.tobytes()


def test_csv_basic():
    assert load_csv(io.StringIO("t,p\n0,100\n1,200\n"), "t", "p").tolist() == [(0, 100.0), (1, 200.0)]


def test_csv_missing_column():
    with pytest.raises(MissingColumnError) as err:
        load_csv(io.StringIO("t,q\n0,100\n"), "t", "p")
    assert err.value.name == "p"


def test_csv_extra_columns_ignored():
    text = "t,p,extra\n0,100,x\n1,200,y\n"
    assert load_csv(io.StringIO(text), "t", "p").tolist() == [(0, 100.0), (1, 200.0)]


def test_csv_extra_columns_match_naive_reader():
    rng_rows = [(i, 10.0 * i, f"junk{i}", i * 3) for i in range(25)]
    text = "ts,watts,a,b\n" + "".join(f"{t},{p},{a},{b}\n" for t, p, a, b in rng_rows)
    naive = []
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        naive.append((int(float(fields[0])), float(fields[1])))
    assert load_csv(io.StringIO(text), "ts", "watts").tolist() == naive


def test_csv_fractional_timestamps_truncate_toward_zero():
    text = "t,p\n3.9,100\n5.1,50\n"
    assert load_csv(io.StringIO(text), "t", "p").tolist() == [(3, 100.0), (5, 50.0)]


def test_csv_integer_timestamps_are_exact():
    text = f"t,p\n{2**53 + 1},100\n{2**53 + 2},50\n{-(2**63)},1\n{2**63 - 1}.5,2\n"
    assert load_csv(io.StringIO(text), "t", "p").tolist() == [
        (2**53 + 1, 100.0), (2**53 + 2, 50.0), (-(2**63), 1.0), (2**63 - 1, 2.0)
    ]


@pytest.mark.parametrize("token", [str(2**63), f"{-(2**63) - 1}", "1e30"])
def test_csv_timestamp_outside_int64(token):
    with pytest.raises(TimestampRangeError):
        load_csv(io.StringIO(f"t,p\n0,1\n{token},2\n"), "t", "p")


def test_csv_custom_delimiter():
    assert load_csv(io.StringIO("t;p\n0;1\n"), "t", "p", delimiter=";").tolist() == [(0, 1.0)]


def test_csv_header_whitespace_stripped():
    assert load_csv(io.StringIO(" t , p \n0,1\n"), "t", "p").tolist() == [(0, 1.0)]


def test_csv_short_row():
    text = "t,p\n0,100\n1\n"
    with pytest.raises(ParseError) as err:
        load_csv(io.StringIO(text), "t", "p")
    assert err.value.line_no == 3
    assert load_csv(io.StringIO(text), "t", "p", tolerant=True).tolist() == [(0, 100.0)]


def test_csv_empty_and_header_only():
    with pytest.raises(EmptyInputError):
        load_csv(io.StringIO(""), "t", "p")
    with pytest.raises(EmptyInputError):
        load_csv(io.StringIO("t,p\n"), "t", "p")


@pytest.mark.parametrize("tolerant", [False, True])
def test_unreadable_text_is_a_parse_error(tmp_path, tolerant):
    # no stream is left to resume after these errors, so tolerant mode fails too
    f = tmp_path / "binary.dat"
    f.write_bytes(b"0 1\n1 2\n2 \xff\n")
    with pytest.raises(ParseError, match="not UTF-8 text"):
        load_redd_channel(f, tolerant=tolerant)
    # a byte stream decodes line by line, so the line number is exact
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        load_redd_channel(io.BytesIO(b"0 1\n1 2\n2 \xff\n"), tolerant=tolerant)
    assert err.value.line_no == 3
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        load_csv(io.BytesIO(b"time\xff,power\n0,1\n"), tolerant=tolerant)
    assert err.value.line_no == 1
    huge_field = 'timestamp,power\n0,1\n1,"' + "x" * 140_000 + '"\n2,3\n'
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        load_csv(io.StringIO(huge_field), tolerant=tolerant)
    assert err.value.line_no == 3


def test_combine_pointwise_sum():
    mains1 = [(0, 100.0), (1, 100.0)]
    mains2 = [(0, 50.0), (1, 60.0)]
    assert combine_mains([mains1, mains2]).tolist() == [(0, 150.0), (1, 160.0)]


def test_combine_intersection_drops_partial_timestamps():
    assert combine_mains([[(0, 100.0), (1, 100.0)], [(0, 50.0)]]).tolist() == [(0, 150.0)]


def test_combine_rejects_a_single_channel():
    with pytest.raises(ValueError, match="need exactly two mains legs, got 1"):
        combine_mains([[(0, 1.0), (5, 2.0)]])


def test_combine_requires_channels():
    with pytest.raises(ValueError, match="need exactly two mains legs, got 0"):
        combine_mains([])


def test_combine_duplicates_keep_last():
    assert combine_mains([[(0, 1.0), (0, 5.0)], [(0, 2.0)]]).tolist() == [(0, 7.0)]


def test_combine_logs_samples_lost_to_intersection(caplog):
    with caplog.at_level("WARNING"):
        combined = combine_mains([[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], [(1, 2.0), (3, 2.0)]])
    assert combined.tolist() == [(1, 3.0), (3, 3.0)]
    assert "dropped [2, 0] samples per channel" in caplog.text


def test_combine_logs_each_legs_collapsed_rows_then_the_dropped_ones(caplog):
    # leg 1 repeats 2 and 3 and swaps 2 with 1; leg 2 repeats 1 and swaps 1 with 0
    legs = [[(0, 1.0), (2, 1.0), (1, 1.0), (2, 5.0), (3, 1.0), (3, 2.0)],
            [(1, 1.0), (0, 1.0), (1, 2.0), (4, 1.0)]]
    with caplog.at_level("WARNING"):
        combined = combine_mains(legs)
    assert combined.tolist() == [(0, 2.0), (1, 3.0)]
    assert [record.getMessage() for record in caplog.records] == [
        "collapsed 2 duplicate timestamps (last value wins)",
        "collapsed 1 duplicate timestamps (last value wins)",
        "dropped [2, 1] samples per channel (timestamps not in every channel)",
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.floats(min_value=0, max_value=1e4, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
            unique_by=lambda pair: pair[0],
        ),
        min_size=2,
        max_size=2,
    )
)
def test_combine_commutative(channels):
    assert combine_mains(channels).tolist() == combine_mains(list(reversed(channels))).tolist()
    with pytest.raises(ValueError, match="need exactly two mains legs, got 1"):
        combine_mains(channels[:1])


def test_combine_sums_in_channel_order():
    # 0.0 + first + second, as the builtin sum adds them: one rounding, so either order
    legs = [[(0, 0.1)], [(0, 0.2)]]
    assert combine_mains(legs).tolist() == combine_mains(legs[::-1]).tolist() == [(0, 0.1 + 0.2)]
    with pytest.raises(ValueError, match="need exactly two mains legs, got 3"):  # whose order mattered
        combine_mains([[(0, 0.3)], [(0, 0.2)], [(0, 0.1)]])


# 2-decimal meter readings, with both zeros named: floats(min_value=0) never draws -0.0
_LEG = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20),
        st.one_of(st.sampled_from([0.0, -0.0]), st.integers(-10**6, 10**6).map(lambda c: c / 100)),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LEG, min_size=2, max_size=2))
@example([[(0, -0.0)], [(0, -0.0)]])
# an in-order row whose timestamp comes again later, which wins
@example([[(0, 1.0), (1, 2.0), (0, 3.0), (1, 4.0)], [(1, 0.5), (0, 0.25)]])
# repeats only among the displaced rows
@example([[(5, 1.0), (2, 2.0), (3, 4.0), (2, 3.0), (2, 5.0)], [(2, 1.0), (3, 1.0), (5, 1.0)]])
# the first row holds the leg's largest timestamp, so every later row is displaced
@example([[(20, 1.0), (3, 2.0), (1, 3.0), (20, 4.0), (0, 5.0)], [(0, 1.0), (1, 1.0), (20, 1.0)]])
@example([[(2**63 - 2, 1.0), (-(2**63), 2.0), (2**63 - 2, 3.0)],
          [(-(2**63), 4.0), (2**63 - 2, 5.0), (-(2**63), 6.0)]])
@example([[(7, 1.5)], [(7, 2.25)]])  # one-row legs
@example([[(7, 1.5)], [(8, 2.25)]])
def test_leg_sum_is_bit_identical_to_the_reference_routes(legs):
    per_second = [dict(leg) for leg in legs]
    common = sorted(set.intersection(*map(set, per_second)))
    # per second, the builtin sum in channel order, which turns -0.0 + -0.0 into 0.0
    total = np.array([sum(leg[t] for leg in per_second) for t in common], dtype=np.float64)
    references = [(legs, common, total)]
    # and the sorted route, in both leg orders
    references += [(pair, *sorted_leg_sum(pair)) for pair in (legs, legs[::-1])]
    # each leg also as a SAMPLE_DTYPE array, in every layout, one layout per leg in turn
    for shift in range(len(LAYOUTS)):
        arrays = [_laid_out(leg, LAYOUTS[(k + shift) % len(LAYOUTS)]) for k, leg in enumerate(legs)]
        references.append((arrays, common, total))
    for channels, timestamps, powers in references:
        combined = combine_mains(channels)
        assert combined["timestamp"].tolist() == timestamps
        assert combined["power"].tobytes() == powers.tobytes()
    for channels in (legs[:1], legs + legs[:1]):  # one leg, or three, is no house total
        with pytest.raises(ValueError, match=f"need exactly two mains legs, got {len(channels)}"):
            combine_mains(channels)


LAYOUTS = ("contiguous", "reversed", "every other row")


def _laid_out(pairs, layout):
    """pairs as a SAMPLE_DTYPE array holding the same rows in the same order: contiguous, a
    [::-1] view of the rows reversed, or every other row of a larger array whose other rows
    would change the sum if read."""
    rows = _sample_array([t for t, _ in pairs], [p for _, p in pairs])
    if layout == "reversed":
        return rows[::-1].copy()[::-1]
    if layout == "every other row":
        wide = np.zeros(2 * rows.size, SAMPLE_DTYPE)
        wide["power"] = 1e300
        wide[1::2] = rows
        return wide[1::2]
    return rows


def test_combine_mains_holds_no_sorted_copy_of_a_leg():
    rng = np.random.default_rng(5)
    legs = []
    for _ in range(2):  # unsorted, with a duplicate timestamp every 100 rows
        stamps = rng.permutation(100_000)
        stamps[::100] = stamps[1::100]
        legs.append(_sample_array(stamps, rng.random(stamps.size)))
    combine_mains(legs)  # warm-up: nothing first-call-only is counted below
    tracemalloc.start()
    try:
        combine_mains(legs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two legs' row orders (half a leg each) and the total: 2 x one leg;
    # a sorted copy of each leg besides would peak at 3.5 x one leg
    assert peak < 2.25 * legs[0].nbytes


def test_combine_mains_holds_no_row_order_of_a_nearly_sorted_leg():
    rng = np.random.default_rng(7)
    legs = []
    for _ in range(2):  # in order but for 20 swapped neighbours and 5 repeated timestamps
        stamps = np.arange(100_000)
        picked = rng.choice(np.arange(3, stamps.size - 1, 3), 25, replace=False)
        swapped, repeated = picked[:20], picked[20:]
        stamps[swapped], stamps[swapped + 1] = stamps[swapped + 1], stamps[swapped]
        stamps[repeated] = stamps[repeated - 1]
        legs.append(_sample_array(stamps, rng.random(stamps.size)))
    combine_mains(legs)  # warm-up: nothing first-call-only is counted below
    tracemalloc.start()
    try:
        combine_mains(legs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the total (one leg) and the few displaced rows; a full row order of each
    # leg besides would peak at 2 x one leg
    assert peak < 1.25 * legs[0].nbytes


@pytest.fixture
def house_dir(tmp_path):
    d = tmp_path / "house_9"
    d.mkdir()
    (d / "channel_1.dat").write_text("0 100\n1 100\n2 100\n")
    (d / "channel_2.dat").write_text("0 50\n1 60\n")
    return d


def test_house_loader_modes(house_dir):
    assert load_redd_house(house_dir).tolist() == [(0, 150.0), (1, 160.0)]
    assert load_redd_house(house_dir, mains="first").tolist() == [(0, 100.0), (1, 100.0), (2, 100.0)]
    assert load_redd_house(house_dir, mains="second").tolist() == [(0, 50.0), (1, 60.0)]
    with pytest.raises(ValueError):
        load_redd_house(house_dir, mains="bogus")


# Each case is parsed by load_redd_channel from a path, where the scanner
# reads first, and by the line parser alone, from an open text stream.
PARSER_CORPUS = {
    "plain": b"1303132930 222.02\n1303132931 221.97\n",
    "underscore_timestamp": b"1_000 5\n",
    "underscore_power": b"1 1_0\n",
    "nan_power": b"0 1\n1 nan\n2 3\n",
    "inf_power": b"0 1\n1 inf\n2 3\n",
    "INF_power": b"1 INF\n",
    "Infinity_power": b"1 -Infinity\n",
    "overflowing_exponent": b"1 1e400\n",
    "400_digit_power": b"1 " + b"9" * 400 + b"\n",
    "400_digit_fraction": b"1 0." + b"0" * 396 + b"1234\n",
    "fractional_timestamp": b"1.5 2\n",
    "float_timestamp": b"5.0 2\n",
    "exponent_timestamp": b"1e3 2\n",
    "comment_line": b"# header\n0 1\n",
    "trailing_comment": b"0 1 # watts\n",
    "one_field": b"0 1\n1\n2 3\n",
    "three_fields": b"0 1\n1 2 3\n2 3\n",
    "timestamp_2_63": b"9223372036854775808 1\n",
    "timestamp_minus_2_63": b"-9223372036854775808 1\n",
    "timestamp_2_63_minus_1": b"9223372036854775807 1\n",
    "timestamp_below_int64": b"-9223372036854775809 1\n",
    "crlf": b"0 1.5\r\n1 2.5\r\n",
    "tabs": b"0\t1\n1 \t 2\n",
    "blank_lines": b"\n0 1\n\n  \t\n1 2\n\n",
    "leading_plus": b"+5 +1.5\n",
    "exponents": b"1 1e3\n2 1E-3\n3 .5\n4 5.\n",
    "not_utf8": b"0 1\n1 2\n\xff 3\n",
    "arabic_indic_digits": "\u0661\u0662 \u0663\n".encode(),
    "fullwidth_digits": "\uff11\uff12 \uff13\n".encode(),
    "utf8_bom": b"\xef\xbb\xbf0 1\n1 2\n",
    "empty": b"",
    "newlines_only": b"\n\n\n",
    "bare_cr": b"0 1\r1 2\r",
    "mixed_line_ends": b"0 1\r\n1 2\n2 3\r",
    "next_line_inside": "0 1\u00852\n".encode(),
    "line_separator_inside": "0 1\u20282\n".encode(),
    "next_line_as_separator": "0\u00851\n".encode(),
    "line_separator_as_separator": "0\u20281\n".encode(),
    "negative_zero": b"-0 -0.0\n",
    "hex_power": b"1 0x10\n",
    "no_final_newline": b"0 1\n1 2",
    "unicode_spaces_only": " \t\u00a0\u2028\u3000\n\x0b\x1c\n".encode(),
    "no_break_space_as_separator": "0\u00a01\n".encode(),
    # the scanner divides powers of up to 15 significant and 22 fraction
    # digits; the 16, 17 and 23 digit cases are ones that division rounds wrong
    "digits_15": b"1 123456789.012345\n2 0.999999999999999\n",
    "digits_16": b"1 9194344.306190379\n",
    "digits_17": b"1 827.37886539498228\n",
    "fraction_digits_22": b"1 0.0000000000000000123456\n",
    "fraction_digits_23": b"1 0.00000000000000000508481\n",
    "power_2_53_plus_1": b"1 9007199254740993\n",
    "leading_zeros": b"007 0.000123\n0008 007\n",
    "trailing_spaces_before_crlf": b"0 1  \r\n1 2\t\r\n",
    "lone_cr_inside": b"0 1\r\n1 2\r3\n",
    "vertical_tab_as_separator": b"0\x0b1\n",
    "file_separator_as_separator": b"0\x1c1\n",
    "nul_byte": b"0 1\n1 \x002\n",
    # large files: a line over 1 MiB, 60 000 lines, and 150 000 CRLF lines
    # without a final newline
    "line_over_one_block": b"0 1\n1 " + b"0" * (1 << 20) + b"2\n2 3\n",
    "line_across_a_block_boundary": b"".join(b"%d 222.02\n" % (1303132930 + i) for i in range(60000)),
    "blocks_without_final_newline": b"".join(b"%d 0.5\r\n" % i for i in range(150000))[:-2],
}
# the cases the scanner must read without the line parser
SCANNED = ("plain", "crlf", "tabs", "blank_lines", "leading_plus", "negative_zero",
           "no_final_newline", "timestamp_minus_2_63", "timestamp_2_63_minus_1",
           "400_digit_fraction", "digits_15", "digits_16", "digits_17", "fraction_digits_22",
           "fraction_digits_23", "power_2_53_plus_1", "leading_zeros", "trailing_spaces_before_crlf",
           "line_over_one_block", "line_across_a_block_boundary", "blocks_without_final_newline")


def _outcome(parse):
    try:
        samples = parse()
    except Exception as exc:  # the comparison covers every error type
        return type(exc), str(exc)
    return samples.dtype, samples.tobytes()


@pytest.mark.parametrize("tolerant", [False, True])
@pytest.mark.parametrize("name", sorted(PARSER_CORPUS))
def test_path_parse_equals_line_parser(tmp_path, caplog, name, tolerant):
    f = tmp_path / f"{name}.dat"
    f.write_bytes(PARSER_CORPUS[name])
    with caplog.at_level("WARNING"):
        fast = _outcome(lambda: load_redd_channel(f, tolerant=tolerant))
        fast_log = caplog.text
        caplog.clear()
        with open(f, encoding="utf-8", newline="") as stream:
            lines = _outcome(lambda: load_redd_channel(stream, tolerant=tolerant))
    assert fast == lines
    assert fast_log == caplog.text


def test_clean_file_never_reaches_the_line_parser(tmp_path, monkeypatch, caplog):
    f = tmp_path / "channel_1.dat"
    f.write_text("1303132930 222.02\n1303132931 221.97\n\n1303132933 0.1\n")

    def refuse(*args):
        raise AssertionError("line parser called")

    monkeypatch.setattr("meterdelta.ingest._parse_channel_line", refuse)
    with caplog.at_level("DEBUG", logger="meterdelta.ingest"):
        samples = load_redd_channel(f)
    assert samples.tolist() == [(1303132930, 222.02), (1303132931, 221.97), (1303132933, 0.1)]
    assert caplog.records == []


@pytest.mark.parametrize("name", SCANNED)
def test_scanner_reads_its_grammar_alone(tmp_path, monkeypatch, caplog, name):
    # test_path_parse_equals_line_parser checks the values
    f = tmp_path / f"{name}.dat"
    f.write_bytes(PARSER_CORPUS[name])

    def refuse(*args):
        raise AssertionError("line parser called")

    monkeypatch.setattr("meterdelta.ingest._parse_channel_line", refuse)
    with caplog.at_level("DEBUG", logger="meterdelta.ingest"):
        load_redd_channel(f)
    assert caplog.records == []


def test_line_parser_takes_over_when_the_scanner_refuses(tmp_path, caplog):
    clean, refused = tmp_path / "channel_1.dat", tmp_path / "channel_2.dat"
    clean.write_text("1303132930 222.02\n1303132931 221.97\n\n1303132933 0.1\n")
    # a form feed separates fields for str.split, not in the scanner's grammar
    refused.write_text("1303132930 222.02\n1303132931\f221.97\n\n1303132933 0.1\n")
    expected = load_redd_channel(clean)
    with caplog.at_level("DEBUG", logger="meterdelta.ingest"):
        samples = load_redd_channel(refused)
    assert samples.dtype == expected.dtype
    assert samples.tobytes() == expected.tobytes()
    (record,) = caplog.records
    assert record.levelname == "DEBUG"
    assert str(refused) in record.getMessage()


INT64_EDGES = st.one_of(st.integers(-(2**63) - 2, -(2**63) + 2), st.integers(2**63 - 3, 2**63 + 1),
                        st.integers(-(10**12), 10**12))
POWER_TEXT = st.one_of(
    st.from_regex(r"[+-]?[0-9]{0,19}(\.[0-9]{0,24})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.floats(allow_nan=False).map(repr),
)
CHANNEL_LINE = st.builds("{}{}{}{}".format, INT64_EDGES, st.sampled_from([" ", "\t", " \t "]),
                         POWER_TEXT, st.sampled_from(["\n", "\r\n", " \n"]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(CHANNEL_LINE, min_size=1, max_size=4), st.booleans())
def test_random_numbers_parse_as_the_line_parser_reads_them(tmp_path, caplog, lines, tolerant):
    f = tmp_path / "channel_1.dat"
    f.write_text("".join(lines), encoding="ascii", newline="")
    caplog.clear()
    with caplog.at_level("WARNING"):
        fast = _outcome(lambda: load_redd_channel(f, tolerant=tolerant))
        fast_log = caplog.text
        caplog.clear()
        with open(f, encoding="utf-8", newline="") as stream:
            slow = _outcome(lambda: load_redd_channel(stream, tolerant=tolerant))
    assert fast == slow
    assert fast_log == caplog.text


def test_a_decimal_comma_locale_only_costs_speed(tmp_path, monkeypatch, caplog):
    # strtod follows LC_NUMERIC: with a decimal comma it stops at the "." of
    # 1.5e3, and the scanner must refuse the file rather than read 1
    definition = tmp_path / "comma"
    definition.write_text('LC_NUMERIC\ndecimal_point ","\nthousands_sep "."\n'
                          'grouping 3;3\nEND LC_NUMERIC\n')
    try:
        subprocess.run(["localedef", "-c", "-i", str(definition), "-f", "UTF-8",
                        str(tmp_path / "comma.UTF-8")], capture_output=True, timeout=60)
    except OSError:
        pytest.skip("no localedef")
    monkeypatch.setenv("LOCPATH", str(tmp_path))
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        locale.setlocale(locale.LC_NUMERIC, "comma.UTF-8")
    except locale.Error:
        pytest.skip("cannot build a locale with a decimal comma")
    f = tmp_path / "channel_1.dat"
    f.write_bytes(b"0 1.5e3\n1 2.5\n2 1e2\n")
    try:
        with caplog.at_level("DEBUG", logger="meterdelta.ingest"):
            samples = load_redd_channel(f)
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)
    assert samples.tolist() == [(0, 1500.0), (1, 2.5), (2, 100.0)]
    (record,) = caplog.records
    assert str(f) in record.getMessage()


def test_path_is_opened_as_named(tmp_path):
    packed = gzip.compress(b"0 1\n1 2\n")
    (tmp_path / "channel_1.dat.gz").write_bytes(packed)
    with pytest.raises(FileNotFoundError):  # the sibling is not read in its place
        load_redd_channel(tmp_path / "channel_1.dat")
    (tmp_path / "channel_2.gz").write_bytes(packed)
    with pytest.raises(ParseError, match="not UTF-8"):  # nor is a .gz path unpacked
        load_redd_channel(tmp_path / "channel_2.gz")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_path_is_read_once(monkeypatch, caplog):
    def read_pipe(text, **kwargs):
        read_end, write_end = os.pipe()
        os.write(write_end, text)
        os.close(write_end)
        try:
            return load_redd_channel(f"/dev/fd/{read_end}", **kwargs)
        finally:
            os.close(read_end)

    lines = b"".join(b"%d 2\n" % t for t in range(1, 500))
    samples = read_pipe(b"0 1\nnot a line\n" + lines, tolerant=True)
    assert samples["timestamp"].tolist() == list(range(500))

    def refuse(*args):
        raise AssertionError("line parser called")

    monkeypatch.setattr("meterdelta.ingest._parse_channel_line", refuse)
    caplog.clear()  # of the skipped-line warning
    with caplog.at_level("DEBUG", logger="meterdelta.ingest"):
        samples = read_pipe(b"0 1\n" + lines)
    assert samples["timestamp"].tolist() == list(range(500))
    assert caplog.records == []
