"""Command-line frontend.

Subcommands:
  stats     per-trace statistics table
  diffdist  sorted, normalized one-second power-change curve as CSV
  sample    run one metering strategy and emit its readings CSV
  sweep     evaluate full parameter grids, writing JSON/CSV reports

Numeric output uses fixed decimal formats (watts and watt-hours 2 places,
error fractions 6, curve fractions 9) so reruns are byte-identical and
outputs diff cleanly. Exit codes: 0 success, 1 input or parse error, 2
configuration error.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import MeterDeltaError
from .evaluate import DEFAULT_DT_GRID, SweepResult, run_sweep
from .ingest import load_csv, load_redd_channel, load_redd_house
from .sampler import TRIGGERS, ReadingStream, sample_event_based, sample_time_based
from .thresholds import DEFAULT_PERCENT_GRID, Thresholds, ThresholdSpec, derive_thresholds
from .trace import (
    SECONDS_PER_HOUR,
    PowerTrace,
    first_difference_distribution,
    segment_trace,
    trace_stats,
    validate_trace,
)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    inputs: tuple[Path, ...]
    fmt: str
    mains: str
    max_gap: int
    timestamp_col: str
    power_col: str
    delimiter: str
    tolerant: bool
    out: Path | None
    emit: str
    dt_list: tuple[int, ...]
    p_list: tuple[float, ...]
    e_list: tuple[float, ...]
    spec: ThresholdSpec


def _parse_number_list(text: str, kind, flag: str) -> tuple:
    try:
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated list of numbers, got {text!r}")
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def _config_from_args(args) -> RunConfig:
    if args.max_gap < 1:
        raise ConfigError("--max-gap must be >= 1")
    if len(args.delimiter) != 1:
        raise ConfigError("--delimiter must be a single character")
    dt_list = _parse_number_list(args.dt, int, "--dt") if hasattr(args, "dt") else ()
    if dt_list and min(dt_list) < 1:
        raise ConfigError("--dt values must be >= 1")
    p_list = _parse_number_list(args.p_percent, float, "--p-percent")
    e_list = _parse_number_list(args.e_percent, float, "--e-percent")
    if min(p_list) <= 0 or min(e_list) <= 0:
        raise ConfigError("percent values must be positive")
    try:
        spec = ThresholdSpec(
            p_percent=p_list[0],
            e_percent=e_list[0],
            power_base=args.power_base,
            rounding=args.rounding,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(
        inputs=tuple(Path(p) for p in args.input),
        fmt=args.format,
        mains=args.mains,
        max_gap=args.max_gap,
        timestamp_col=args.timestamp_col,
        power_col=args.power_col,
        delimiter=args.delimiter,
        tolerant=args.tolerant,
        out=Path(args.out) if args.out else None,
        emit=getattr(args, "emit", "both"),
        dt_list=dt_list,
        p_list=p_list,
        e_list=e_list,
        spec=spec,
    )


def _load_traces(cfg: RunConfig) -> list[tuple[str, PowerTrace]]:
    traces = []
    for path in cfg.inputs:
        if cfg.fmt == "redd":
            if path.is_dir():
                raw = load_redd_house(path, mains=cfg.mains, tolerant=cfg.tolerant)
            else:
                raw = load_redd_channel(path, tolerant=cfg.tolerant)
        else:
            raw = load_csv(
                path,
                cfg.timestamp_col,
                cfg.power_col,
                delimiter=cfg.delimiter,
                tolerant=cfg.tolerant,
            )
        trace_id = path.name if path.is_dir() else path.stem
        traces.append((trace_id, validate_trace(raw)))
    return traces


def _open_out(cfg: RunConfig, filename: str):
    cfg.out.mkdir(parents=True, exist_ok=True)
    return open(cfg.out / filename, "w", encoding="utf-8", newline="")


def _require_single_or_out(cfg: RunConfig) -> None:
    if cfg.out is None and len(cfg.inputs) > 1:
        raise ConfigError("multiple inputs need --out (stdout handles one trace)")


STATS_HEADER = (
    f"{'trace':<20}{'peak_w':>12}{'peak_var_w':>13}{'energy_wh':>15}"
    f"{'daily_wh':>13}{'coverage':>10}{'duration_s':>12}{'gaps':>7}"
)


def cmd_stats(cfg: RunConfig) -> int:
    traces = _load_traces(cfg)
    print(STATS_HEADER)
    rows = []
    for trace_id, trace in traces:
        s = trace_stats(trace)
        print(
            f"{trace_id:<20}{s.peak_power_w:>12.2f}{s.peak_variation_w:>13.2f}"
            f"{s.total_energy_wh:>15.2f}{s.mean_daily_energy_wh:>13.2f}"
            f"{s.coverage:>10.6f}{s.duration_s:>12d}{s.gap_count:>7d}"
        )
        rows.append((trace_id, s))
    if cfg.out is not None:
        with _open_out(cfg, "stats.csv") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                [
                    "trace_id",
                    "peak_power_w",
                    "peak_variation_w",
                    "total_energy_wh",
                    "mean_daily_energy_wh",
                    "coverage",
                    "duration_s",
                    "gap_count",
                ]
            )
            for trace_id, s in rows:
                writer.writerow(
                    [
                        trace_id,
                        f"{s.peak_power_w:.2f}",
                        f"{s.peak_variation_w:.2f}",
                        f"{s.total_energy_wh:.2f}",
                        f"{s.mean_daily_energy_wh:.2f}",
                        f"{s.coverage:.6f}",
                        s.duration_s,
                        s.gap_count,
                    ]
                )
    return 0


def cmd_diffdist(cfg: RunConfig) -> int:
    _require_single_or_out(cfg)
    for trace_id, trace in _load_traces(cfg):
        curve = first_difference_distribution(trace)
        lines = ["rank_percent,normalized_delta"]
        lines += [
            f"{rank:.9f},{delta:.9f}"
            for rank, delta in zip(curve.rank_percent.tolist(), curve.normalized_delta.tolist())
        ]
        text = "\n".join(lines) + "\n"
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            with _open_out(cfg, f"{trace_id}_diffdist.csv") as fh:
                fh.write(text)
    return 0


def _readings_csv(streams: list[ReadingStream]) -> str:
    lines = ["timestamp,trigger,energy_wh,power_w"]
    for s in streams:
        columns = (s.timestamps, s.triggers, s.energy_ws / SECONDS_PER_HOUR, s.power_w)
        lines += [
            f"{t},{TRIGGERS[code]},{e_wh:.6f},{p:.2f}"
            for t, code, e_wh, p in zip(*(c.tolist() for c in columns))
        ]
    return "\n".join(lines) + "\n"


def _sample_thresholds(args, cfg: RunConfig, trace: PowerTrace) -> Thresholds:
    if args.delta_p is None and args.energy is None:
        # no explicit thresholds: derive them from the first grid percentages
        derived = derive_thresholds(trace_stats(trace), cfg.spec)
        if args.max_silence is None:
            return derived
        return Thresholds(derived.power_delta_w, derived.energy_wh, args.max_silence)
    return Thresholds(
        power_delta_w=args.delta_p if args.delta_p is not None else float("inf"),
        energy_wh=args.energy if args.energy is not None else float("inf"),
        max_silence_s=args.max_silence,
    )


def cmd_sample(cfg: RunConfig, args) -> int:
    _require_single_or_out(cfg)
    if args.strategy == "time" and (args.delta_t is None or args.delta_t < 1):
        raise ConfigError("time strategy needs --delta-t >= 1")
    for trace_id, trace in _load_traces(cfg):
        segments = segment_trace(trace, cfg.max_gap)
        if args.strategy == "time":
            streams = [sample_time_based(seg, args.delta_t) for seg in segments]
        else:
            try:
                th = _sample_thresholds(args, cfg, trace)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            streams = [sample_event_based(seg, th) for seg in segments]
        text = _readings_csv(streams)
        if cfg.out is None:
            sys.stdout.write(text)
        else:
            with _open_out(cfg, f"{trace_id}_readings.csv") as fh:
                fh.write(text)
    return 0


def _sweep_payload(result: SweepResult) -> dict:
    s = result.stats
    return {
        "trace_id": result.trace_id,
        "stats": {
            "peak_power_w": round(s.peak_power_w, 2),
            "peak_variation_w": round(s.peak_variation_w, 2),
            "total_energy_wh": round(s.total_energy_wh, 2),
            "mean_daily_energy_wh": round(s.mean_daily_energy_wh, 2),
            "coverage": round(s.coverage, 6),
            "duration_s": s.duration_s,
            "gap_count": s.gap_count,
        },
        "time_based": [
            {"dt": r.dt, "nmae": round(r.nmae, 6), "count": r.message_count}
            for r in result.time_based
        ],
        "event_based": [
            {
                "p_percent": r.p_percent,
                "e_percent": r.e_percent,
                "delta_p_w": round(r.thresholds.power_delta_w, 2),
                "energy_wh": round(r.thresholds.energy_wh, 2),
                "nmae": round(r.nmae, 6),
                "count": r.message_count,
                "compression_vs_10s": round(r.compression_vs_10s, 6),
            }
            for r in result.event_based
        ],
    }


def _write_sweep_csv(result: SweepResult, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        [
            "strategy",
            "dt",
            "p_percent",
            "e_percent",
            "delta_p_w",
            "energy_wh",
            "nmae",
            "count",
            "compression_vs_10s",
        ]
    )
    for r in result.time_based:
        writer.writerow(["time", r.dt, "", "", "", "", f"{r.nmae:.6f}", r.message_count, ""])
    for r in result.event_based:
        writer.writerow(
            [
                "event",
                "",
                f"{r.p_percent:g}",
                f"{r.e_percent:g}",
                f"{r.thresholds.power_delta_w:.2f}",
                f"{r.thresholds.energy_wh:.2f}",
                f"{r.nmae:.6f}",
                r.message_count,
                f"{r.compression_vs_10s:.6f}",
            ]
        )


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.out is None:
        raise ConfigError("sweep needs --out")
    for trace_id, trace in _load_traces(cfg):
        segments = segment_trace(trace, cfg.max_gap)
        result = run_sweep(
            segments, cfg.dt_list, cfg.p_list, cfg.e_list, cfg.spec, trace_id=trace_id
        )
        if cfg.emit in ("json", "both"):
            with _open_out(cfg, f"{trace_id}_sweep.json") as fh:
                json.dump(_sweep_payload(result), fh, indent=2)
                fh.write("\n")
        if cfg.emit in ("csv", "both"):
            with _open_out(cfg, f"{trace_id}_sweep.csv") as fh:
                _write_sweep_csv(result, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", action="append", required=True, metavar="PATH",
                        help="trace file, or house directory for --format redd (repeatable)")
    common.add_argument("--format", choices=("redd", "csv"), default="redd")
    common.add_argument("--mains", choices=("sum", "first", "second"), default="sum",
                        help="how to combine a house directory's two mains channels")
    common.add_argument("--max-gap", type=int, default=3600, metavar="N",
                        help="split traces at data gaps longer than N seconds")
    common.add_argument("--timestamp-col", default="timestamp")
    common.add_argument("--power-col", default="power")
    common.add_argument("--delimiter", default=",")
    common.add_argument("--tolerant", action="store_true",
                        help="skip unparseable lines instead of failing")
    common.add_argument("--out", default=None, metavar="DIR")
    common.add_argument("--p-percent", default=",".join(f"{v:g}" for v in DEFAULT_PERCENT_GRID),
                        metavar="LIST")
    common.add_argument("--e-percent", default=",".join(f"{v:g}" for v in DEFAULT_PERCENT_GRID),
                        metavar="LIST")
    common.add_argument("--power-base", choices=("variation", "peak"), default="variation")
    common.add_argument("--rounding", choices=("ceil", "none"), default="ceil")

    parser = argparse.ArgumentParser(
        prog="meterdelta",
        description="Event-based metering with derived thresholds, benchmarked against periodic metering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", parents=[common], help="print per-trace statistics")
    sub.add_parser("diffdist", parents=[common], help="emit the normalized power-change curve")

    p_sample = sub.add_parser("sample", parents=[common], help="emit readings for one strategy")
    p_sample.add_argument("--strategy", choices=("time", "event"), required=True)
    p_sample.add_argument("--delta-t", type=int, default=None, metavar="S")
    p_sample.add_argument("--delta-p", type=float, default=None, metavar="W")
    p_sample.add_argument("--energy", type=float, default=None, metavar="WH")
    p_sample.add_argument("--max-silence", type=int, default=None, metavar="S")

    p_sweep = sub.add_parser("sweep", parents=[common], help="evaluate full parameter grids")
    p_sweep.add_argument("--dt", default=",".join(str(v) for v in DEFAULT_DT_GRID),
                         metavar="LIST")
    p_sweep.add_argument("--emit", choices=("json", "csv", "both"), default="both")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "stats":
            return cmd_stats(cfg)
        if args.command == "diffdist":
            return cmd_diffdist(cfg)
        if args.command == "sample":
            return cmd_sample(cfg, args)
        return cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MeterDeltaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
