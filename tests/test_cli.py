import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import meterdelta
from meterdelta import segment_trace, validate_trace
from meterdelta.cli import build_parser, main

from conftest import TRACE_A_POWERS
from oracles import random_gappy_trace


@pytest.fixture
def trace_a_file(tmp_path):
    f = tmp_path / "trace_a.dat"
    f.write_text("".join(f"{t} {p}\n" for t, p in enumerate(TRACE_A_POWERS)))
    return f


@pytest.fixture
def house_dir(tmp_path):
    d = tmp_path / "house_9"
    d.mkdir()
    (d / "channel_1.dat").write_text("0 100\n1 100\n2 100\n")
    (d / "channel_2.dat").write_text("0 50\n1 60\n")
    return d


def test_stats_prints_table(trace_a_file, capsys):
    assert main(["stats", "--input", str(trace_a_file)]) == 0
    out = capsys.readouterr().out
    assert "trace_a" in out
    assert "500.00" in out
    assert "0.50" in out


def test_stats_writes_csv(trace_a_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["stats", "--input", str(trace_a_file), "--out", str(out_dir)]) == 0
    lines = (out_dir / "stats.csv").read_text().splitlines()
    assert lines[0].startswith("trace_id,peak_power_w")
    assert lines[1].startswith("trace_a,500.00,400.00,0.50,")


def test_stats_missing_file_exits_1(tmp_path, capsys):
    assert main(["stats", "--input", str(tmp_path / "nope.dat")]) == 1
    assert "error:" in capsys.readouterr().err


def test_stats_csv_format(tmp_path, capsys):
    f = tmp_path / "data.csv"
    f.write_text("ts,watts\n0,100\n1,200\n")
    code = main(
        ["stats", "--input", str(f), "--format", "csv",
         "--timestamp-col", "ts", "--power-col", "watts"]
    )
    assert code == 0
    assert "200.00" in capsys.readouterr().out


def _cli_process(args, env_update=None, **run_args):
    """`python -m meterdelta.cli args` with stdout block-buffered, as a shell pipe or file gives it."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(Path(meterdelta.__file__).parents[1]), **(env_update or {}))
    return subprocess.run([sys.executable, "-m", "meterdelta.cli", *args], env=env, timeout=60, **run_args)


def test_stats_on_unordered_csv_rows_needs_no_compiler(tmp_path):
    # only parsing channel files, the mains merge, event sampling and sweep scoring build
    # the C kernels; validating rows out of order with a repeated timestamp is numpy alone
    data = tmp_path / "unordered.csv"
    data.write_text("timestamp,power\n2,300\n0,100\n2,250\n1,200\n")
    (tmp_path / "no_cc").mkdir()
    (tmp_path / "empty_cache").mkdir()

    def stats(env_update):
        return _cli_process(["stats", "--input", str(data), "--format", "csv"], env_update,
                            capture_output=True, text=True)

    without_cc = stats({"PATH": str(tmp_path / "no_cc"),
                        "XDG_CACHE_HOME": str(tmp_path / "empty_cache")})
    with_cc = stats({"XDG_CACHE_HOME": str(tmp_path / "cache")})
    assert without_cc.returncode == with_cc.returncode == 0, without_cc.stderr
    assert without_cc.stdout == with_cc.stdout
    assert "\nunordered " in without_cc.stdout and " 250.00 " in without_cc.stdout
    assert without_cc.stderr == with_cc.stderr
    assert "collapsed 1 duplicate timestamps" in without_cc.stderr


def test_stats_parse_error_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.dat"
    f.write_text("0 abc\n")
    assert main(["stats", "--input", str(f)]) == 1


def test_timestamp_outside_int64_exits_1(tmp_path, capsys):
    f = tmp_path / "huge.dat"
    f.write_text(f"{2**63 + 10} 1.0\n{2**64} 2.0\n5 3.0\n")
    assert main(["stats", "--input", str(f)]) == 1
    assert "error: timestamp 9223372036854775818" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fmt, text, duration, gaps",
    [
        ("redd", f"{2**53 + 1} 100\n{2**53 + 3} 100\n", 3, 1),
        ("csv", f"timestamp,power\n{2**53 + 1},100\n{2**53 + 2},100\n", 2, 0),
    ],
)
def test_stats_timestamps_above_2_53_are_exact(tmp_path, capsys, fmt, text, duration, gaps):
    f = tmp_path / "big.dat"
    f.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["stats", "--input", str(f), "--format", fmt, "--out", str(out_dir)]) == 0
    row = (out_dir / "stats.csv").read_text().splitlines()[1].split(",")
    assert row[-2:] == [str(duration), str(gaps)]


def test_unreadable_input_exits_1(tmp_path, capsys):
    binary = tmp_path / "binary.dat"
    binary.write_bytes(b"0 100\n1 \xff\xfe\n")
    huge_field = tmp_path / "huge_field.csv"
    huge_field.write_text('timestamp,power\n0,1\n1,"' + "x" * 140_000 + '"\n')
    for argv in (
        ["--input", str(binary)],
        ["--input", str(binary), "--tolerant"],
        ["--input", str(huge_field), "--format", "csv"],
    ):
        assert main(["stats", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "Traceback" not in err


def test_unsupported_operation_while_loading_exits_1(trace_a_file, capsys, monkeypatch):
    # io.UnsupportedOperation is an OSError and a ValueError: an input error all the same
    def refuse(path, tolerant):
        raise io.UnsupportedOperation("read")

    monkeypatch.setattr("meterdelta.cli.load_redd_channel", refuse)
    assert main(["stats", "--input", str(trace_a_file)]) == 1
    assert capsys.readouterr().err == "error: read\n"


def test_non_utf8_input_name_keeps_its_bytes(tmp_path, monkeypatch):
    f = tmp_path / os.fsdecode(b"\xffx.dat")
    f.write_text("0 100\n1 200\n")
    out_dir = tmp_path / "out"
    # the stdout of a UTF-8 mode run, which writes such a name with surrogateescape, and
    # one that encodes strictly, as under PYTHONIOENCODING=utf-8:strict
    for errors in ("surrogateescape", "strict"):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors=errors)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["stats", "--input", str(f), "--out", str(out_dir)]) == 0
        stdout.flush()
        table = stdout.buffer.getvalue().splitlines()
        assert len(table) == 2 and table[1].startswith(b"\xffx ")
        assert (out_dir / "stats.csv").read_bytes().splitlines()[1].startswith(b"\xffx,200.00,")


def test_stdout_may_be_a_text_stream(trace_a_file, capsys):
    # a caller's io.StringIO has no bytes layer: it gets the same text
    assert main(["stats", "--input", str(trace_a_file)]) == 0
    expected = capsys.readouterr().out
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["stats", "--input", str(trace_a_file)]) == 0
    assert stdout.getvalue() == expected and expected.startswith("trace ")


@pytest.fixture
def noisy_house(tmp_path):
    """A two-leg house over 6000 s whose legs each miss some seconds and repeat others."""
    rng = np.random.default_rng(1834)
    house = tmp_path / "house"
    house.mkdir()
    for n in (1, 2):
        stamps = [t for t in range(6000) if rng.random() > 0.01]
        stamps += rng.choice(stamps, 20).tolist()
        house.joinpath(f"channel_{n}.dat").write_text(
            "".join(f"{t} {rng.uniform(0, 3000):.2f}\n" for t in sorted(stamps)))
    return house


@pytest.mark.parametrize("command, min_stdout", [
    (["stats"], 1),
    (["sample", "--strategy", "time", "--delta-t", "1"], 64 * 1024 + 1),  # past a pipe's buffer
    (["sweep", "--max-gap", "60"], 0),
], ids=["stats", "sample", "sweep"])
def test_the_cli_process_ends_with_every_output_out(noisy_house, tmp_path, capsysbinary,
                                                   command, min_stdout):
    # the process ends without interpreter finalization, so no output may wait for it
    def args(side):
        return [*command, "--input", str(noisy_house), *(["--out", str(tmp_path / side)]
                                                        if command[0] == "sweep" else [])]

    assert main(args("main")) == 0
    expected = capsysbinary.readouterr()
    done = _cli_process(args("process"), capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected.out, expected.err)
    assert len(done.stdout) >= min_stdout
    assert b"collapsed" in done.stderr and b"dropped" in done.stderr
    files = [{p.name: p.read_bytes() for p in (tmp_path / side).glob("*")} for side in ("main", "process")]
    assert files[0] == files[1]
    assert len(files[0]) == (2 if command[0] == "sweep" else 0)


def test_the_cli_process_keeps_its_exit_codes(trace_a_file, tmp_path):
    for args, code, message in (
        (["stats", "--input", str(tmp_path / "nope.dat")], 1, "error: "),
        (["sweep", "--input", str(trace_a_file)], 2, "error: sweep needs --out"),  # main returns it
        (["stats", "--input", str(trace_a_file), "--bogus"], 2, "unrecognized arguments"),  # argparse exits
    ):
        done = _cli_process(args, capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (code, "")
        assert message in done.stderr and "Traceback" not in done.stderr


def test_a_sweep_runs_with_stdout_closed(trace_a_file, tmp_path):
    # sys.stdout is None in such a process: a sweep writes nothing there and exits 0
    done = _cli_process(["sweep", "--input", str(trace_a_file), "--out", str(tmp_path / "out")],
                        preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["trace_a_sweep.csv", "trace_a_sweep.json"]


@pytest.mark.parametrize("command", [["stats"], ["diffdist"], ["sample", "--strategy", "time", "--delta-t", "5"]])
def test_a_command_writing_stdout_exits_1_with_stdout_closed(trace_a_file, command):
    done = _cli_process([*command, "--input", str(trace_a_file)], preexec_fn=lambda: os.close(1),
                        stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (1, "error: stdout is closed\n")


def test_a_stdout_that_takes_no_output_exits_1(trace_a_file):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        done = _cli_process(["stats", "--input", str(trace_a_file)], stdout=write_end,
                            stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Exception ignored" not in done.stderr


def test_empty_delimiter_exits_2(tmp_path, capsys):
    f = tmp_path / "data.csv"
    f.write_text("timestamp,power\n0,100\n")
    assert main(["stats", "--input", str(f), "--format", "csv", "--delimiter", ""]) == 2
    assert "error: --delimiter" in capsys.readouterr().err


def test_tolerant_flag_recovers(tmp_path, capsys):
    f = tmp_path / "bad.dat"
    f.write_text("0 100\nnot a line\n1 100\n")
    assert main(["stats", "--input", str(f)]) == 1
    assert main(["stats", "--input", str(f), "--tolerant"]) == 0


def test_log_level_selects_the_records_on_stderr(tmp_path, capsys):
    f = tmp_path / "bad.dat"
    f.write_text("0 100\nnot a line\n1 100\n")
    stats = ["stats", "--input", str(f), "--tolerant"]
    skipped = "skipped 1 unparseable lines: 2\n"
    package_log = logging.getLogger("meterdelta")
    before = package_log.handlers[:], package_log.propagate, package_log.level
    # each call sets its own level, whatever the previous call left
    for level, expected in [(None, skipped),  # as Python's last-resort handler wrote it
                            ("DEBUG", f"the channel scanner cannot read {f}; parsing it line by line\n"
                             + skipped),
                            ("ERROR", ""), (None, skipped)]:
        assert main(stats + (["--log-level", level] if level else [])) == 0
        assert capsys.readouterr().err == expected
        assert (package_log.handlers, package_log.propagate, package_log.level) == before


@pytest.mark.parametrize("text", ["", "\n", " \t\r\n\u2028\u00a0\n"])
def test_empty_channel_file_writes_one_error_line(tmp_path, capsys, text):
    f = tmp_path / "empty.dat"
    f.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no reader may warn on a file without a field
        assert main(["stats", "--input", str(f)]) == 1
    assert capsys.readouterr().err == "error: no parseable samples in input\n"


def test_diffdist_stdout(trace_a_file, capsys):
    assert main(["diffdist", "--input", str(trace_a_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rank_percent,normalized_delta"
    assert lines[1] == "0.111111111,1.000000000"
    assert lines[2] == "0.222222222,1.000000000"
    assert lines[3] == "0.333333333,0.000000000"
    assert len(lines) == 10


def test_diffdist_to_dir(trace_a_file, tmp_path):
    out_dir = tmp_path / "dd"
    assert main(["diffdist", "--input", str(trace_a_file), "--out", str(out_dir)]) == 0
    assert (out_dir / "trace_a_diffdist.csv").exists()


def test_sample_event_readings_csv(trace_a_file, capsys):
    code = main(
        ["sample", "--input", str(trace_a_file), "--strategy", "event",
         "--delta-p", "300"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "timestamp,trigger,energy_wh,power_w"
    assert lines[1] == "0,initial,0.000000,100.00"
    assert lines[2] == "3,power_delta,0.083333,500.00"
    assert lines[3] == "5,power_delta,0.277778,100.00"
    assert lines[4] == "10,final,0.138889,100.00"


def test_sample_time_readings_csv(trace_a_file, capsys):
    code = main(
        ["sample", "--input", str(trace_a_file), "--strategy", "time", "--delta-t", "5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0,initial,0.000000,100.00"
    assert lines[2] == "5,window,0.361111,100.00"  # 1300 Ws
    assert lines[3] == "10,window,0.138889,100.00"  # 500 Ws


def test_sample_at_the_top_of_int64(tmp_path, capsys):
    edge = tmp_path / "edge.dat"
    edge.write_text("9223372036854775800 100\n9223372036854775806 200\n")
    assert main(["sample", "--input", str(edge), "--strategy", "time", "--delta-t", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "9223372036854775800,initial,0.000000,100.00",
        "9223372036854775805,window,0.027778,100.00",
        "9223372036854775807,final,0.055556,200.00",
    ]
    top = tmp_path / "top.dat"
    top.write_text("9223372036854775800 100\n9223372036854775807 200\n")
    for strategy in (["time", "--delta-t", "5"], ["event", "--delta-p", "50"]):
        assert main(["sample", "--input", str(top), "--strategy", *strategy]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: timestamp 9223372036854775807") and "Traceback" not in err


def test_sample_event_derives_thresholds_when_unset(trace_a_file, capsys):
    code = main(
        ["sample", "--input", str(trace_a_file), "--strategy", "event",
         "--p-percent", "50", "--e-percent", "100", "--rounding", "none"]
    )
    assert code == 0
    out = capsys.readouterr().out
    # 50% of 400 W peak variation = 200 W: both jumps still fire
    assert "3,power_delta" in out


def test_sample_time_requires_delta_t(trace_a_file, capsys):
    assert main(["sample", "--input", str(trace_a_file), "--strategy", "time"]) == 2
    for bad in ("0", "-5"):
        code = main(
            ["sample", "--input", str(trace_a_file), "--strategy", "time", "--delta-t", bad]
        )
        assert code == 2
        assert "error: time strategy needs --delta-t" in capsys.readouterr().err


@pytest.mark.parametrize("strategy, flags, unread", [
    ("time", ["--delta-t", "2", "--delta-p", "1", "--max-silence", "1"], "--delta-p, --max-silence"),
    ("time", ["--delta-t", "2", "--energy", "1"], "--energy"),
    ("event", ["--delta-t", "2", "--delta-p", "1000"], "--delta-t"),
])
def test_sample_rejects_the_other_strategys_flags(tmp_path, capsys, strategy, flags, unread):
    # the input does not exist: the flags are checked before any input is read
    missing = str(tmp_path / "missing.dat")
    assert main(["sample", "--input", missing, "--strategy", strategy, *flags]) == 2
    assert capsys.readouterr().err == f"error: --strategy {strategy} does not read {unread}\n"


@pytest.mark.parametrize("strategy, flags, message", [
    (["time", "--delta-t", "2"], ["--p-percent", "5", "--rounding", "none"],
     "--strategy time does not read --p-percent, --rounding"),
    (["event", "--delta-p", "5"], ["--power-base", "peak"],
     "--strategy event with --delta-p or --energy does not read --power-base"),
    (["event", "--energy", "1", "--delta-p", "5"],
     ["--rounding", "ceil", "--e-percent", "1", "--power-base", "variation", "--p-percent", "1"],
     "--strategy event with --delta-p or --energy does not read "
     "--p-percent, --e-percent, --power-base, --rounding"),
])
def test_sample_rejects_the_threshold_rule_flags_where_it_derives_no_thresholds(
        tmp_path, capsys, strategy, flags, message):
    # given with their default values too, and checked before any input is read
    missing = str(tmp_path / "missing.dat")
    assert main(["sample", "--input", missing, "--strategy", *strategy, *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags", [["--p-percent", "5,50"], ["--e-percent", "1,2"],
                                   ["--p-percent", "5,50", "--e-percent", "1,2"]])
def test_sample_reads_one_percentage_pair(trace_a_file, tmp_path, capsys, flags):
    # the input does not exist: the lists are refused before any input is read
    missing = str(tmp_path / "missing.dat")
    assert main(["sample", "--input", missing, "--strategy", "event", *flags]) == 2
    assert capsys.readouterr() == ("", "error: sample reads one --p-percent and one --e-percent value\n")
    outputs = []
    for rule in (["--p-percent", "5"], ["--p-percent", "5", "--e-percent", "1", "--power-base",
                                         "variation", "--rounding", "ceil"]):
        assert main(["sample", "--input", str(trace_a_file), "--strategy", "event", *rule]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]  # a flag not given takes the first value of the sweep's default


@pytest.mark.parametrize("fmt, flags, message", [
    ("redd", ["--delimiter", ";"], "--format redd does not read --delimiter"),
    ("redd", ["--timestamp-col", "x"], "--format redd does not read --timestamp-col"),
    ("redd", ["--delimiter", ",", "--power-col", "power"],
     "--format redd does not read --power-col, --delimiter"),
    ("csv", ["--mains", "second"], "--format csv does not read --mains"),
    ("redd", ["--mains", "sum"], "--format redd on channel files does not read --mains"),
])
def test_each_format_rejects_the_flags_it_does_not_read(tmp_path, capsys, fmt, flags, message):
    # given with their default values too; the input does not exist, so the
    # flags are checked before any input is read
    missing = str(tmp_path / "missing.dat")
    for command in (["stats"], ["diffdist"], ["sample", "--strategy", "event"],
                    ["sweep", "--out", str(tmp_path / "out")]):
        assert main([*command, "--input", missing, "--format", fmt, *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_mains_needs_a_house_directory_among_the_inputs(trace_a_file, house_dir, capsys):
    assert main(["stats", "--input", str(trace_a_file), "--input", str(house_dir),
                 "--mains", "first"]) == 0
    assert "100.00" in capsys.readouterr().out.splitlines()[2]  # house_9 under --mains first


def test_huge_periods_exit_0(trace_a_file, tmp_path, capsys):
    huge = "99999999999999999999"
    code = main(
        ["sample", "--input", str(trace_a_file), "--strategy", "time", "--delta-t", huge]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["0,initial,0.000000,100.00", "10,final,0.500000,100.00"]
    out_dir = tmp_path / "out"
    assert main(["sweep", "--input", str(trace_a_file), "--out", str(out_dir), "--dt", huge]) == 0
    assert json.loads((out_dir / "trace_a_sweep.json").read_text())["time_based"][0]["count"] == 1
    # past any float: both reports hold the integer exactly (only a float inf becomes null)
    huger = "1" + "0" * 400
    assert main(["sweep", "--input", str(trace_a_file), "--out", str(out_dir), "--dt", huger]) == 0
    assert json.loads((out_dir / "trace_a_sweep.json").read_text())["time_based"] == [
        {"dt": 10**400, "nmae": 0.711111, "count": 1}]
    assert (out_dir / "trace_a_sweep.csv").read_text().splitlines()[1] == f"time,{huger},,,,,0.711111,1,"


def test_sample_event_bad_thresholds_exit_2(trace_a_file, tmp_path, capsys):
    # checked before any input is read: a missing input exits 2 too, not 1 with its file error
    missing = str(tmp_path / "missing.dat")
    for bad in (["--delta-p", "0"], ["--energy", "-1"], ["--delta-p", "100", "--max-silence", "0"],
                ["--delta-p", "inf"], ["--delta-p", "-1"], ["--delta-p", "nan"], ["--energy", "0"],
                ["--max-silence", "0"]):  # the last with derived thresholds
        for path in (str(trace_a_file), missing):
            assert main(["sample", "--input", path, "--strategy", "event", *bad]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sample_silence_only(trace_a_file, capsys):
    code = main(
        ["sample", "--input", str(trace_a_file), "--strategy", "event",
         "--delta-p", "inf", "--max-silence", "4"]
    )
    assert code == 0
    assert "4,silence" in capsys.readouterr().out


def test_sweep_requires_out(trace_a_file):
    assert main(["sweep", "--input", str(trace_a_file)]) == 2


def test_sweep_writes_json_and_csv(trace_a_file, tmp_path):
    out_dir = tmp_path / "sweep"
    code = main(
        ["sweep", "--input", str(trace_a_file), "--out", str(out_dir),
         "--dt", "1,2", "--p-percent", "50,100", "--e-percent", "100",
         "--rounding", "none"]
    )
    assert code == 0
    payload = json.loads((out_dir / "trace_a_sweep.json").read_text())
    assert payload["trace_id"] == "trace_a"
    assert payload["stats"]["peak_power_w"] == 500.0
    assert payload["time_based"][0] == {"dt": 1, "nmae": 0.0, "count": 10}
    first_event = payload["event_based"][0]
    assert first_event["p_percent"] == 50.0
    assert first_event["delta_p_w"] == 200.0
    assert first_event["nmae"] == 0.0
    csv_lines = (out_dir / "trace_a_sweep.csv").read_text().splitlines()
    assert csv_lines[0] == (
        "strategy,dt,p_percent,e_percent,delta_p_w,energy_wh,nmae,count,compression_vs_10s"
    )
    assert csv_lines[1] == "time,1,,,,,0.000000,10,"
    assert any(line.startswith("event,,50,100,200.00,") for line in csv_lines)


def test_sweep_reruns_byte_identical(trace_a_file, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(
            ["sweep", "--input", str(trace_a_file), "--out", str(d), "--dt", "1,2,5"]
        )
        assert code == 0
    for name in ("trace_a_sweep.json", "trace_a_sweep.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_sweep_json_writes_null_for_inf(trace_a_file, tmp_path, capsys):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    out_dir = tmp_path / "out"
    code = main(["sweep", "--input", str(trace_a_file), "--out", str(out_dir), "--dt", "2",
                 "--p-percent", "inf,50,1e308", "--e-percent", "50", "--rounding", "none"])
    assert code == 0
    payload = json.loads((out_dir / "trace_a_sweep.json").read_text(), parse_constant=refuse)
    cells = [(r["p_percent"], r["delta_p_w"]) for r in payload["event_based"]]
    assert cells == [(None, None), (50.0, 200.0), (1e308, None)]
    assert None not in [r["energy_wh"] for r in payload["event_based"]]
    assert "event,,inf,50,inf," in (out_dir / "trace_a_sweep.csv").read_text()
    # a finite trace whose error sum overflows float64 scores inf, which has no JSON form either
    # and no CSV holds it either: the sweep fails before writing either report
    big = tmp_path / "big.dat"
    big.write_text("0 1.5e308\n" + "".join(f"{t} 0\n" for t in range(1, 30)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["sweep", "--input", str(big), "--out", str(out_dir), "--dt", "30",
                     "--rounding", "none"])
    assert code == 1
    assert capsys.readouterr().err == "error: big: sweep results are not finite\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["trace_a_sweep.csv", "trace_a_sweep.json"]


@pytest.mark.parametrize("command", [
    ["sweep"],
    ["sample", "--strategy", "event"],
    ["sweep", "--rounding", "none"],
    ["sample", "--strategy", "event", "--rounding", "none"],
])
def test_energy_that_overflows_exits_1_at_derivation(command, tmp_path, capsys):
    big = tmp_path / "big.dat"
    big.write_text("0 1e308\n1 1.5e308\n2 1e308\n")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([*command, "--input", str(big), "--out", str(out_dir)])
    assert code == 1
    assert capsys.readouterr().err == "error: mean daily energy overflows float64\n"
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_failed_replace_leaves_no_file(trace_a_file, tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    out_dir = tmp_path / "out"
    assert main(["sweep", "--input", str(trace_a_file), "--out", str(out_dir), "--dt", "2"]) == 1
    assert capsys.readouterr().err == "error: replace refused\n"
    assert list(out_dir.iterdir()) == []  # neither the target nor a temporary file


def test_sweep_bad_grid_exits_2(trace_a_file, tmp_path, capsys):
    code = main(
        ["sweep", "--input", str(trace_a_file), "--out", str(tmp_path / "x"),
         "--dt", "0,10"]
    )
    assert code == 2
    code = main(
        ["sweep", "--input", str(trace_a_file), "--out", str(tmp_path / "x"),
         "--p-percent", "abc"]
    )
    assert code == 2
    capsys.readouterr()
    # 1e308 % derives inf watts or watt-hours: no trigger in a cell is reachable
    for grid in (["--p-percent", "1,nan"], ["--p-percent", "inf", "--e-percent", "inf"],
                 ["--p-percent", "1e308", "--e-percent", "inf"],
                 ["--p-percent", "1e308", "--e-percent", "1e308"]):
        code = main(["sweep", "--input", str(trace_a_file), "--out", str(tmp_path / "x"), *grid])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_max_gap_validation(trace_a_file, tmp_path, capsys):
    for command in (["sample", "--strategy", "event"], ["sweep", "--out", str(tmp_path / "out")]):
        assert main([*command, "--input", str(trace_a_file), "--max-gap", "0"]) == 2
        assert capsys.readouterr().err == "error: --max-gap must be >= 1\n"
    with pytest.raises(SystemExit) as err:  # stats splits no trace: it has no --max-gap
        main(["stats", "--input", str(trace_a_file), "--max-gap", "0"])
    assert err.value.code == 2


COMMON_FLAGS = {"--input", "--format", "--mains", "--timestamp-col", "--power-col", "--delimiter",
                "--tolerant", "--out", "--log-level"}
METERING_FLAGS = {"--max-gap", "--p-percent", "--e-percent", "--power-base", "--rounding"}


def test_each_subcommand_takes_exactly_its_flags():
    (subcommands,) = [a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
             for name, sub in subcommands.choices.items()}
    assert flags == {
        "stats": COMMON_FLAGS,
        "diffdist": COMMON_FLAGS,
        "sample": COMMON_FLAGS | METERING_FLAGS
        | {"--strategy", "--delta-t", "--delta-p", "--energy", "--max-silence"},
        "sweep": COMMON_FLAGS | METERING_FLAGS | {"--dt"},
    }
    assert {name: len(f) for name, f in flags.items()} == {"stats": 9, "diffdist": 9,
                                                          "sample": 19, "sweep": 15}


@pytest.mark.parametrize("flag, value", [("--max-gap", "60"), ("--p-percent", "5"),
                                         ("--e-percent", "5"), ("--power-base", "peak"),
                                         ("--rounding", "none")])
def test_stats_and_diffdist_reject_the_metering_flags(trace_a_file, capsys, flag, value):
    for command in ("stats", "diffdist"):
        with pytest.raises(SystemExit) as err:
            main([command, "--input", str(trace_a_file), flag, value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err


@pytest.mark.parametrize("flags, message", [
    (["--p-percent", "0"], "percent values must be positive"),
    (["--e-percent", "5,nan"], "percent values must be positive"),
    (["--p-percent", "abc"], "--p-percent expects a comma-separated list of numbers, got 'abc'"),
    (["--e-percent", ","], "--e-percent must not be empty"),
    (["--p-percent", "inf", "--e-percent", "inf"],
     "the grid cell with both percentages inf disables every trigger"),
])
def test_sample_and_sweep_check_the_metering_flags(trace_a_file, tmp_path, capsys, flags, message):
    out_dir = tmp_path / "out"
    for command in (["sample", "--strategy", "event"], ["sweep", "--out", str(out_dir)]):
        assert main([*command, "--input", str(trace_a_file), *flags]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--power-base", "--rounding"])
def test_sample_and_sweep_take_only_the_rule_choices(trace_a_file, tmp_path, capsys, flag):
    for command in (["sample", "--strategy", "event"], ["sweep", "--out", str(tmp_path / "out")]):
        with pytest.raises(SystemExit) as err:
            main([*command, "--input", str(trace_a_file), flag, "bogus"])
        assert err.value.code == 2
        assert f"argument {flag}: invalid choice: 'bogus'" in capsys.readouterr().err


def test_unknown_flag_exits_2(trace_a_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["stats", "--input", str(trace_a_file), "--bogus"])
    assert err.value.code == 2
    # a sweep always writes both reports: there is no flag choosing one
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--input", str(trace_a_file), "--out", str(out_dir), "--emit", "csv"])
    assert err.value.code == 2
    assert "unrecognized arguments: --emit csv" in capsys.readouterr().err
    assert not out_dir.exists()


def test_mains_modes(house_dir, capsys):
    assert main(["stats", "--input", str(house_dir)]) == 0
    assert "160.00" in capsys.readouterr().out  # sum peaks at 100+60
    assert main(["stats", "--input", str(house_dir), "--mains", "first"]) == 0
    assert "100.00" in capsys.readouterr().out
    assert main(["stats", "--input", str(house_dir), "--mains", "second"]) == 0
    assert "60.00" in capsys.readouterr().out


@pytest.mark.parametrize("leg, alone", [(1, "first"), (2, "second")])
def test_a_negative_leg_reading_fails_as_the_summed_house(tmp_path, capsys, leg, alone):
    house = tmp_path / "house"
    house.mkdir()
    for n in (1, 2):  # the sum would read 5 W at timestamp 0
        (house / f"channel_{n}.dat").write_text(f"0 {-5 if n == leg else 10}\n1 10\n2 10\n")
    for mains in ("sum", alone):
        assert main(["stats", "--input", str(house), "--mains", mains]) == 1
        assert capsys.readouterr() == ("", "error: negative power -5.0 W at timestamp 0\n")


def test_swapping_the_mains_legs_leaves_the_sweep_byte_identical(tmp_path):
    rng = np.random.default_rng(1817)
    stamps = [t for t, _ in random_gappy_trace(rng, length=900, gap_chance=0.01, max_gap=120)]
    legs = []
    for _ in range(2):  # each leg misses some seconds, repeats some and is out of order
        kept = [t for t in stamps if rng.random() > 0.02]
        kept += [int(t) for t in rng.choice(kept, 20)]
        rng.shuffle(kept)
        legs.append("".join(f"{t} {rng.uniform(0, 3000):.2f}\n" for t in kept))
    reports = []
    for side, order in (("a", legs), ("b", legs[::-1])):
        house = tmp_path / side / "house"
        house.mkdir(parents=True)
        for n, text in enumerate(order, 1):
            (house / f"channel_{n}.dat").write_text(text)
        out = tmp_path / side / "out"
        assert main(["sweep", "--input", str(house), "--out", str(out), "--max-gap", "60"]) == 0
        reports.append([(out / f"house_sweep.{ext}").read_bytes() for ext in ("json", "csv")])
    assert reports[0] == reports[1]


def test_multiple_inputs_one_table(trace_a_file, house_dir, capsys):
    assert main(["stats", "--input", str(trace_a_file), "--input", str(house_dir)]) == 0
    out = capsys.readouterr().out
    assert "trace_a" in out and "house_9" in out


def test_multiple_inputs_to_stdout_rejected(trace_a_file, house_dir):
    code = main(
        ["diffdist", "--input", str(trace_a_file), "--input", str(house_dir)]
    )
    assert code == 2


@pytest.mark.parametrize("command", [["stats"], ["diffdist"], ["sweep"],
                                     ["sample", "--strategy", "time", "--delta-t", "2"]])
def test_inputs_sharing_a_trace_id_exit_2_before_writing(tmp_path, capsys, command):
    inputs = [tmp_path / side / "house.dat" for side in ("a", "b")]
    for f in inputs:
        f.parent.mkdir()
        f.write_text("0 100\n1 200\n2 300\n")
    out_dir = tmp_path / "out"
    args = [*command, "--input", str(inputs[0]), "--input", str(inputs[1]), "--out", str(out_dir)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out_dir.exists()
    assert str(inputs[0]) in captured.err and str(inputs[1]) in captured.err


def test_trace_id_of_dot_and_of_a_symlink(house_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(house_dir)
    out_dir = tmp_path / "out"
    grid = ["--dt", "10", "--p-percent", "1", "--e-percent", "1"]
    assert main(["sweep", "--input", ".", "--out", str(out_dir), *grid]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["house_9_sweep.csv", "house_9_sweep.json"]
    assert json.loads((out_dir / "house_9_sweep.json").read_text())["trace_id"] == "house_9"
    (tmp_path / "alias").symlink_to(house_dir)
    assert main(["stats", "--input", str(tmp_path / "alias")]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[0] == "alias"


# sha256 of each output on the gappy fixture below; any byte that changes
# across commits fails this test, unlike the rerun test, which compares two
# runs of the same code
PINNED_SHA256 = {
    "sweep.json": "69932639af7c157966fe2b7775aea0b26c4913ee93739efc4a718f9a31d56289",
    "sweep.csv": "60f24fdf2d352664afea21a51f34bd9a2237a28ddb2b96d883996a414f6db167",
    "sample_event": "dcbb232de901d938d026b7552610cef1ba5a7b21d453780806a5af0c365619b3",
    "sample_time_dt7": "0403bcbc30cb5bb6c3fa825b5664ab7b6fecf4877c5cdc963930b56f78593acc",
    "stats_table": "d104fe925ec608bbb9cd246c6b87257e0fbfc55761aa94d7b326ccd9dafc4847",
    "stats.csv": "dfe391a989250699acf973b673c3d687d0342cb26a63538f04c9b84127b907d9",
    "diffdist.csv": "7996ecd98098ecfe170f76df572fd1aebf03f89270781fa53ad67fcabb3e17bf",
}


def test_outputs_match_pinned_digests(tmp_path, capsys):
    samples = random_gappy_trace(
        np.random.default_rng(1808), length=1500, gap_chance=0.004, max_gap=400
    )
    durations = [s.duration for s in segment_trace(validate_trace(samples), 60)]
    assert len(durations) >= 3 and all(d % 10 for d in durations)
    f = tmp_path / "gappy.dat"
    f.write_text("".join(f"{t} {p}\n" for t, p in samples))
    common = ["--input", str(f)]
    metering = [*common, "--max-gap", "60"]

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    assert main(["sweep", *metering, "--out", str(tmp_path / "out")]) == 0
    got = {
        "sweep.json": sha((tmp_path / "out" / "gappy_sweep.json").read_bytes()),
        "sweep.csv": sha((tmp_path / "out" / "gappy_sweep.csv").read_bytes()),
    }
    capsys.readouterr()
    for name, extra in (
        ("sample_event", ["--strategy", "event"]),
        ("sample_time_dt7", ["--strategy", "time", "--delta-t", "7"]),
    ):
        assert main(["sample", *metering, *extra]) == 0
        got[name] = sha(capsys.readouterr().out.encode("utf-8"))
    # a second input whose trace id holds a comma pins the csv quoting
    f2 = tmp_path / "gappy,b.dat"
    f2.write_bytes(f.read_bytes())
    stats_dir = tmp_path / "stats"
    assert main(["stats", *common, "--input", str(f2), "--out", str(stats_dir)]) == 0
    got["stats_table"] = sha(capsys.readouterr().out.encode("utf-8"))
    got["stats.csv"] = sha((stats_dir / "stats.csv").read_bytes())
    assert main(["diffdist", *common, "--out", str(tmp_path / "out")]) == 0
    got["diffdist.csv"] = sha((tmp_path / "out" / "gappy_diffdist.csv").read_bytes())
    assert got == PINNED_SHA256
