"""Command-line frontend.

Subcommands (sample and sweep, which meter a trace, alone take the metering
flags --max-gap, --p-percent, --e-percent, --power-base and --rounding):
  stats     per-trace statistics table
  diffdist  sorted, normalized one-second power-change curve as CSV
  sample    run one metering strategy and emit its readings CSV
  sweep     evaluate full parameter grids, writing both a JSON and a CSV report

Numeric output uses fixed formats, set per column by STATS_COLUMNS and
SWEEP_COLUMNS, so reruns are byte-identical. Files under --out are replaced
atomically. Exit codes: 0 success; 1 input or parse error (any
MeterDeltaError or OSError, such as input that is not UTF-8 text, a trace
whose energy overflows float64, or non-finite sweep results, before either
report is written); 2 settings error (any other ValueError, such as a flag
that the --format or the sample strategy does not read, more than one
percentage, a threshold not positive or a --max-silence below 1 for sample,
a NaN percentage, inf in both grids, or two inputs with one trace id).

Each command flushes stdout itself, so a write that fails (a closed pipe, a
full disk) is an OSError and exits 1. main(argv) returns the exit code;
run_and_exit, which `python -m meterdelta.cli` and the `meterdelta` script
call, then ends the process without interpreter finalization.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from operator import attrgetter
from pathlib import Path
from typing import NoReturn

from .errors import MeterDeltaError
from .evaluate import DEFAULT_DT_GRID, SweepResult, run_sweep
from .ingest import MAINS_MODES, load_csv, load_redd_channel, load_redd_house
from .sampler import TRIGGERS, _powers_at, sample_event_based, sample_time_based
from .thresholds import (DEFAULT_PERCENT_GRID, POWER_BASES, ROUNDING_MODES, Thresholds, ThresholdSpec,
                         derive_thresholds)
from .trace import (SECONDS_PER_HOUR, PowerTrace, TraceStats, first_difference_distribution,
                    segment_trace, trace_stats, validate_trace)


# TraceStats field, stdout heading, stdout width, format ("d": an integer, ".Nf": N decimals,
# which the JSON rounds to); drives the stdout table, stats.csv and the sweep JSON's "stats"
STATS_COLUMNS = (
    ("peak_power_w", "peak_w", 12, ".2f"),
    ("peak_variation_w", "peak_var_w", 13, ".2f"),
    ("total_energy_wh", "energy_wh", 15, ".2f"),
    ("mean_daily_energy_wh", "daily_wh", 13, ".2f"),
    ("coverage", "coverage", 10, ".6f"),
    ("duration_s", "duration_s", 12, "d"),
    ("gap_count", "gaps", 7, "d"),
)
# sweep report column, the EvalResult attribute it shows, its format (as above, or "g": the
# shortest form, as is in the JSON) and the strategies whose rows hold it
SWEEP_COLUMNS = (
    ("dt", "dt", "d", ("time",)),
    ("p_percent", "p_percent", "g", ("event",)),
    ("e_percent", "e_percent", "g", ("event",)),
    ("delta_p_w", "thresholds.power_delta_w", ".2f", ("event",)),
    ("energy_wh", "thresholds.energy_wh", ".2f", ("event",)),
    ("nmae", "nmae", ".6f", ("time", "event")),
    ("count", "message_count", "d", ("time", "event")),
    ("compression_vs_10s", "compression_vs_10s", ".6f", ("event",)),
)


def _stat_cells(stats: TraceStats, padded: bool) -> list[str]:
    return [format(getattr(stats, field), f">{width if padded else ''}{kind}")
            for field, _, width, kind in STATS_COLUMNS]


def _json_value(value, kind: str):
    """value rounded to an ".Nf" kind's N decimals; a float inf, which JSON has no number for, as None."""
    if kind.endswith("f"):
        value = round(value, int(kind[1:-1]))
    return None if isinstance(value, float) and math.isinf(value) else value  # an int of any size as is


def _numbers(text: str, kind, flag: str) -> tuple:
    try:
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers, got {text!r}")
    if not values:
        raise ValueError(f"{flag} must not be empty")
    return values


def _refuse(args, mode: str, names) -> None:
    """Raise ValueError naming each flag of names that was given (not None): mode does not read it."""
    if given := [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None]:
        raise ValueError(f"{mode} does not read {', '.join(given)}")


def _check(args) -> None:
    """Validate the parsed flags, replacing the list flags by tuples of numbers and adding
    args.spec (metering commands) and args.thresholds (sample); raises ValueError."""
    # first, while a flag not given is still None
    _refuse(args, f"--format {args.format}", FORMAT_FLAGS["redd" if args.format == "csv" else "csv"])
    if args.format == "redd" and not any(map(os.path.isdir, args.input)):
        _refuse(args, "--format redd on channel files", ("mains",))
    vars(args).update({n: v for n, v in FORMAT_FLAGS[args.format].items() if getattr(args, n) is None})
    if args.command == "sample":
        time, derived = args.strategy == "time", args.delta_p is None and args.energy is None
        _refuse(args, f"--strategy {args.strategy}",
                ("delta_p", "energy", "max_silence") if time else ("delta_t",))
        _refuse(args, "--strategy time" if time else "--strategy event with --delta-p or --energy",
                () if derived and not time else ("p_percent", "e_percent", "power_base", "rounding"))
        if time and (args.delta_t is None or args.delta_t < 1):
            raise ValueError("time strategy needs --delta-t >= 1")
        if args.max_silence is not None and args.max_silence < 1:  # derived thresholds take it too
            raise ValueError("--max-silence must be >= 1")
        args.thresholds = None if time or derived else Thresholds(  # checked before any input loads
            math.inf if args.delta_p is None else args.delta_p,
            math.inf if args.energy is None else args.energy, args.max_silence)
    if args.command in METERING_COMMANDS and args.max_gap < 1:
        raise ValueError("--max-gap must be >= 1")
    if args.format == "csv" and len(args.delimiter) != 1:
        raise ValueError("--delimiter must be a single character")
    if args.command == "sweep":
        args.dt = DEFAULT_DT_GRID if args.dt is None else _numbers(args.dt, int, "--dt")
        if min(args.dt) < 1:
            raise ValueError("--dt values must be >= 1")
    if args.command in METERING_COMMANDS:  # a flag not given reads the grid; sample its first value
        grid = DEFAULT_PERCENT_GRID[:1] if args.command == "sample" else DEFAULT_PERCENT_GRID
        args.p_percent = grid if args.p_percent is None else _numbers(args.p_percent, float, "--p-percent")
        args.e_percent = grid if args.e_percent is None else _numbers(args.e_percent, float, "--e-percent")
        if not all(v > 0 for v in args.p_percent + args.e_percent):  # NaN fails too
            raise ValueError("percent values must be positive")
        if math.inf in args.p_percent and math.inf in args.e_percent:
            raise ValueError("the grid cell with both percentages inf disables every trigger")
        if args.command == "sample" and len(args.p_percent + args.e_percent) > 2:
            raise ValueError("sample reads one --p-percent and one --e-percent value")
        args.spec = ThresholdSpec(args.power_base or "variation", args.rounding or "ceil")
    args.out = Path(args.out) if args.out else None
    if args.out is None and args.command == "sweep":
        raise ValueError("sweep needs --out")
    if args.out is None and args.command in ("diffdist", "sample") and len(args.input) > 1:
        raise ValueError("multiple inputs need --out (stdout handles one trace)")


def _load_traces(args) -> list[tuple[str, PowerTrace]]:
    """(trace id, trace) per input; ids must be distinct, as they name the outputs."""
    paths = {}
    for path in map(Path, args.input):
        full = Path(os.path.abspath(path))  # "." takes its directory's name, a symlink keeps its own
        trace_id = full.name if full.is_dir() else full.stem
        if paths.setdefault(trace_id, path) is not path:
            raise ValueError(f"inputs {paths[trace_id]} and {path} share the trace id {trace_id!r}")
    traces = []
    for trace_id, path in paths.items():
        if args.format == "csv":
            raw = load_csv(path, args.timestamp_col, args.power_col,
                           delimiter=args.delimiter, tolerant=args.tolerant)
        elif path.is_dir():
            raw = load_redd_house(path, mains=args.mains, tolerant=args.tolerant)
        else:
            raw = load_redd_channel(path, tolerant=args.tolerant)
        traces.append((trace_id, validate_trace(raw)))
    return traces


def _csv_text(header: list[str], rows) -> str:
    """CSV with the quoting a trace id or an empty cell needs; numeric-only
    outputs join f-strings instead, which is faster on a million rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: Path | None = None, name: str = "") -> None:
    """Write text as UTF-8 to stdout, or to out/name atomically via a temporary file."""
    data = text.encode("utf-8", "surrogateescape")  # a non-UTF-8 trace id keeps its bytes
    if out is None:
        if sys.stdout is None:  # a process started with descriptor 1 closed
            raise OSError("stdout is closed")
        sys.stdout.flush()  # what was written before goes first
        if hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.write(data)
        else:  # a text stream, such as a caller's io.StringIO
            sys.stdout.write(text)
        sys.stdout.flush()  # here, so that a write that fails is the command's OSError: exit 1
        return
    out.mkdir(parents=True, exist_ok=True)
    tmp = out / f".{name}.{os.getpid()}.tmp"
    try:
        tmp.write_bytes(data)
        os.replace(tmp, out / name)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_stats(args) -> int:
    stats = [(trace_id, trace_stats(trace)) for trace_id, trace in _load_traces(args)]
    lines = [f"{'trace':<20}" + "".join(f"{head:>{width}}" for _, head, width, _ in STATS_COLUMNS)]
    lines += [f"{trace_id:<20}" + "".join(_stat_cells(s, padded=True)) for trace_id, s in stats]
    _emit("\n".join(lines) + "\n")  # the table goes to stdout, with or without --out
    if args.out is not None:
        rows = [[trace_id, *_stat_cells(s, padded=False)] for trace_id, s in stats]
        _emit(_csv_text(["trace_id", *(c[0] for c in STATS_COLUMNS)], rows), args.out, "stats.csv")
    return 0


def cmd_diffdist(args) -> int:
    for trace_id, trace in _load_traces(args):
        curve = first_difference_distribution(trace)
        lines = ["rank_percent,normalized_delta"]
        lines += [f"{rank:.9f},{delta:.9f}" for rank, delta in
                  zip(curve.rank_percent.tolist(), curve.normalized_delta.tolist())]
        _emit("\n".join(lines) + "\n", args.out, f"{trace_id}_diffdist.csv")
    return 0


def cmd_sample(args) -> int:
    for trace_id, trace in _load_traces(args):
        sample, param = sample_event_based, args.thresholds
        if args.strategy == "time":
            sample, param = sample_time_based, args.delta_t
        elif param is None:  # no threshold given: derive both from this trace, like one sweep cell
            th = derive_thresholds(trace_stats(trace), args.p_percent[0], args.e_percent[0], args.spec)
            param = Thresholds(th.power_delta_w, th.energy_wh, args.max_silence)
        lines = ["timestamp,trigger,energy_wh,power_w"]
        for seg in segment_trace(trace, args.max_gap):
            s = sample(seg, param)
            columns = (s.timestamps, s.triggers, s.energy_ws / SECONDS_PER_HOUR, _powers_at(seg, s.timestamps))
            lines += [f"{t},{TRIGGERS[code]},{e_wh:.6f},{p:.2f}"
                      for t, code, e_wh, p in zip(*(c.tolist() for c in columns))]
        _emit("\n".join(lines) + "\n", args.out, f"{trace_id}_readings.csv")
    return 0


def _sweep_rows(result: SweepResult) -> list[tuple[str, dict]]:
    """(strategy, {column: (value, format)} of the columns it holds) per row, time rows first."""
    return [(s, {name: (attrgetter(attr)(r), kind) for name, attr, kind, held in SWEEP_COLUMNS if s in held})
            for s in ("time", "event") for r in getattr(result, f"{s}_based")]


def _sweep_json(trace_id: str, result: SweepResult) -> str:
    stats = {field: _json_value(getattr(result.stats, field), kind) for field, _, _, kind in STATS_COLUMNS}
    payload = {"trace_id": trace_id, "stats": stats, "time_based": [], "event_based": []}
    for strategy, cells in _sweep_rows(result):
        payload[f"{strategy}_based"].append({name: _json_value(*cell) for name, cell in cells.items()})
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _sweep_csv(result: SweepResult) -> str:
    rows = [[strategy, *(format(*cells[name]) if name in cells else "" for name, *_ in SWEEP_COLUMNS)]
            for strategy, cells in _sweep_rows(result)]
    return _csv_text(["strategy", *(c[0] for c in SWEEP_COLUMNS)], rows)


def cmd_sweep(args) -> int:
    for trace_id, trace in _load_traces(args):
        result = run_sweep(trace, args.dt, args.p_percent, args.e_percent, args.spec, max_gap=args.max_gap)
        # nmae alone can overflow here, from an error sum past float64
        if not all(math.isfinite(r.nmae) for r in result.time_based + result.event_based):
            raise MeterDeltaError(f"{trace_id}: sweep results are not finite")
        _emit(_sweep_json(trace_id, result), args.out, f"{trace_id}_sweep.json")
        _emit(_sweep_csv(result), args.out, f"{trace_id}_sweep.csv")
    return 0


COMMANDS = {
    "stats": (cmd_stats, "print per-trace statistics"),
    "diffdist": (cmd_diffdist, "emit the normalized power-change curve"),
    "sample": (cmd_sample, "emit readings for one strategy"),
    "sweep": (cmd_sweep, "evaluate full parameter grids"),
}
METERING_COMMANDS = ("sample", "sweep")  # they alone segment a trace and derive thresholds
FORMAT_FLAGS = {"redd": {"mains": "sum"},  # the flags one --format alone reads, with their defaults
                "csv": {"timestamp_col": "timestamp", "power_col": "power", "delimiter": ","}}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", action="append", required=True, metavar="PATH",
                        help="trace file, or house directory for --format redd (repeatable)")
    common.add_argument("--format", choices=("redd", "csv"), default="redd")
    common.add_argument("--mains", choices=tuple(MAINS_MODES),
                        help="how to combine a house directory's two mains channels")
    for flag in ("--timestamp-col", "--power-col", "--delimiter"):  # read by --format csv alone
        common.add_argument(flag)
    common.add_argument("--tolerant", action="store_true",
                        help="skip unparseable lines instead of failing")
    common.add_argument("--out", default=None, metavar="DIR")
    common.add_argument("--log-level", default="WARNING", choices=("DEBUG", "WARNING", "ERROR"))
    metering = argparse.ArgumentParser(add_help=False)
    metering.add_argument("--max-gap", type=int, default=3600, metavar="N",
                          help="split traces at data gaps longer than N seconds")
    metering.add_argument("--p-percent", metavar="LIST")
    metering.add_argument("--e-percent", metavar="LIST")
    metering.add_argument("--power-base", choices=POWER_BASES)
    metering.add_argument("--rounding", choices=ROUNDING_MODES)

    parser = argparse.ArgumentParser(
        prog="meterdelta",
        description="Event-based metering with derived thresholds, benchmarked against periodic metering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {name: sub.add_parser(name, help=text, parents=[common, metering]
                                 if name in METERING_COMMANDS else [common])
            for name, (_, text) in COMMANDS.items()}

    subs["sample"].add_argument("--strategy", choices=("time", "event"), required=True)
    subs["sample"].add_argument("--delta-t", type=int, default=None, metavar="S")
    subs["sample"].add_argument("--delta-p", type=float, default=None, metavar="W")
    subs["sample"].add_argument("--energy", type=float, default=None, metavar="WH")
    subs["sample"].add_argument("--max-silence", type=int, default=None, metavar="S")

    subs["sweep"].add_argument("--dt", metavar="LIST")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log = logging.getLogger("meterdelta")  # to stderr as bare messages, for this call only
    saved = log.handlers, log.propagate, log.level
    log.handlers, log.propagate = [logging.StreamHandler(sys.stderr)], False
    log.setLevel(args.log_level)
    try:
        _check(args)
        return COMMANDS[args.command][0](args)
    except (MeterDeltaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # input errors first: io.UnsupportedOperation is an OSError and a ValueError
        return 1 if isinstance(exc, (MeterDeltaError, OSError)) else 2
    finally:
        log.handlers, log.propagate = saved[:2]
        log.setLevel(saved[2])


def run_and_exit() -> NoReturn:
    """Run main() on sys.argv and end the process with its code, without interpreter
    finalization (module teardown, the final garbage collection, atexit hooks): by then
    _emit has flushed stdout and written each file whole, and no other thread is running."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None in a process started with the descriptor closed
            try:
                stream.flush()
            except OSError:  # output that failed to go out has already failed main
                code = code or 1
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
