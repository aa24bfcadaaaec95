"""Loaders for on-disk trace formats.

Two formats are supported: the space-separated channel files used by public
residential datasets ("<epoch seconds> <watts>", one sample per line) and
generic delimited CSV with a header row. Loaders return a SAMPLE_DTYPE array
(int64 timestamps, float64 watts) in file order; validation into a
PowerTrace happens separately.

A channel path is read once, whole, and its bytes are scanned by the C
scanner of ``_kernels`` when all of them fit the scanner's strict grammar;
otherwise the Python line parser reads the same bytes. CSV and streams
always go through the Python line parsers, which alone report errors.
"""
from __future__ import annotations

import csv
import functools
import io
import logging
import math
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._kernels import library
from .errors import EmptyInputError, MissingColumnError, ParseError, TimestampRangeError
from .trace import SAMPLE_DTYPE, _as_samples, _check_powers, _sample_array

log = logging.getLogger(__name__)

# channel numbers read by each mains mode
MAINS_MODES = {"sum": (1, 2), "first": (1,), "second": (2,)}


def _as_lines(source) -> Iterator[str]:
    """Yield decoded lines from a path, a text stream, or a byte stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield from fh
    else:
        for line in source:
            yield line.decode("utf-8") if isinstance(line, bytes) else line


def _numbered(items: Iterable, first: int) -> Iterator[tuple[int, object]]:
    """enumerate(items, first), except that text which cannot be decoded or
    split into fields raises ParseError at the line reached. No stream is
    left to resume after that, so tolerant mode cannot skip it either."""
    number = first
    try:
        for item in items:
            yield number, item
            number += 1
    except UnicodeDecodeError as exc:
        raise ParseError(number, f"not UTF-8 text here or later ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(number, str(exc)) from None


def _collect(numbered, parse, tolerant: bool, unit: str) -> np.ndarray:
    """Parse the non-empty items of (number, item) pairs into a SAMPLE_DTYPE
    array, raising at the first malformed item or, if tolerant, logging them."""
    timestamps: list[int] = []
    powers: list[float] = []
    rejected: list[int] = []
    for number, item in numbered:
        if not item:
            continue
        try:
            t, p = parse(number, item)
        except ParseError:
            if not tolerant:
                raise
            rejected.append(number)
        else:
            timestamps.append(t)
            powers.append(p)
    if rejected:
        more = f" (+{len(rejected) - 10} more)" if len(rejected) > 10 else ""
        shown = ", ".join(map(str, rejected[:10])) + more
        log.warning("skipped %d unparseable %s: %s", len(rejected), unit, shown)
    if not timestamps:
        raise EmptyInputError("no parseable samples in input")
    return _sample_array(timestamps, powers)


def load_redd_channel(source, *, tolerant: bool = False) -> np.ndarray:
    """Parse "<epoch seconds> <watts>" lines into a SAMPLE_DTYPE array.

    Strict mode raises ParseError at the first malformed line. Tolerant mode
    skips malformed lines and logs their line numbers. Blank lines are
    skipped; CRLF endings are accepted. A path, pipes included, is read
    once, whole, and its bytes go to the C scanner of ``_kernels.c`` (built
    with cc at the first call), which accepts a strict ASCII grammar only;
    if it refuses any line, or finds no row, the line parser, the only
    error reporter, reads the same bytes.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_bytes()
        if not text.endswith(b"\n"):  # the scanner needs a final newline
            text += b"\n"
        samples = np.empty(text.count(b"\n"), SAMPLE_DTYPE)
        rows = library().scan_channel(text, len(text), samples, samples.size)
        if rows > 0:
            return samples[:rows]
        log.debug("the channel scanner cannot read %s; parsing it line by line", source)
        # splits lines as open(source, newline="") does; str.splitlines would also
        # split at U+2028, \x0b and \x1c and renumber the lines
        source = io.TextIOWrapper(io.BytesIO(text), encoding="utf-8", newline="")
    lines = (line.split() for line in _as_lines(source))
    return _collect(_numbered(lines, 1), _parse_channel_line, tolerant, "lines")


def _parse_channel_line(line_no: int, tokens: list[str]) -> tuple[int, float]:
    if len(tokens) != 2:
        raise ParseError(line_no, f"expected 2 fields, got {len(tokens)}")
    try:
        timestamp = int(tokens[0])
    except ValueError:
        raise ParseError(line_no, f"non-integer timestamp {tokens[0]!r}") from None
    try:
        power = float(tokens[1])
    except ValueError:
        raise ParseError(line_no, f"non-numeric power {tokens[1]!r}") from None
    if not math.isfinite(power):
        raise ParseError(line_no, f"non-finite power {tokens[1]!r}")
    return timestamp, power


def load_csv(
    source,
    timestamp_col: str = "timestamp",
    power_col: str = "power",
    *,
    delimiter: str = ",",
    tolerant: bool = False,
) -> np.ndarray:
    """Parse a delimited text file with a header row naming the columns.

    Extra columns are ignored; rows missing either selected column fail.
    Fractional timestamps are truncated toward zero onto the 1 s grid.
    """
    rows = _numbered(csv.reader(_as_lines(source), delimiter=delimiter), 1)
    _, header = next(rows, (1, None))
    if header is None:
        raise EmptyInputError("empty file: no header row")
    names = [h.strip() for h in header]
    if timestamp_col not in names:
        raise MissingColumnError(timestamp_col)
    if power_col not in names:
        raise MissingColumnError(power_col)
    t_idx = names.index(timestamp_col)
    p_idx = names.index(power_col)

    parse = functools.partial(_parse_csv_row, t_idx=t_idx, p_idx=p_idx)
    return _collect(rows, parse, tolerant, "rows")


def _parse_csv_row(row_no: int, row: list[str], t_idx: int, p_idx: int) -> tuple[int, float]:
    if len(row) <= max(t_idx, p_idx):
        raise ParseError(row_no, f"row has {len(row)} fields, need {max(t_idx, p_idx) + 1}")
    try:
        raw_t = Decimal(row[t_idx])
    except InvalidOperation:
        raise ParseError(row_no, f"non-numeric timestamp {row[t_idx]!r}") from None
    if not raw_t.is_finite():
        raise ParseError(row_no, f"non-finite timestamp {row[t_idx]!r}")
    # checked before int(), which would expand a huge exponent digit by digit
    if not -(2**63) <= raw_t < 2**63:
        raise TimestampRangeError(raw_t)
    try:
        power = float(row[p_idx])
    except ValueError:
        raise ParseError(row_no, f"non-numeric power {row[p_idx]!r}") from None
    if not math.isfinite(power):
        raise ParseError(row_no, f"non-finite power {row[p_idx]!r}")
    return int(raw_t), power


def _displaced_rows(leg: np.ndarray) -> np.ndarray:
    """The indices of leg's rows at or below the largest timestamp before them, sorted
    stably by timestamp and cut to the last row of each timestamp."""
    ts = leg["timestamp"]
    rows = np.flatnonzero(ts[1:] <= np.maximum.accumulate(ts[:-1]))
    rows += 1
    rows = rows[np.argsort(ts[rows], kind="stable")]  # keeps equal timestamps in file order
    return rows[:library().last_rows(leg, rows, rows.size)]


def combine_mains(channels: Sequence) -> np.ndarray:
    """Sum the two mains legs per timestamp, keeping only timestamps in both.

    A missing reading on either leg means the house total is unknown for
    that second; filling with zero would corrupt the peak statistics, so
    intersection semantics are deliberate (and logged). Within a leg,
    duplicate timestamps keep the last value. A C kernel reads each leg in
    file order and merges in its displaced rows (those at or below a
    timestamp earlier in the file, few in a meter's file), so no full row
    order of a leg is built. It writes 0.0 + first + second, exact and the
    same in either leg order. Any number of channels
    but two raises ValueError. No power is checked: a negative reading in one
    leg can vanish in the sum (-5 W + 10 W gives 5 W, which validate_trace
    then accepts), so load_redd_house checks each leg before the sum.
    """
    if len(channels) != 2:
        raise ValueError(f"need exactly two mains legs, got {len(channels)}")
    legs = [np.ascontiguousarray(_as_samples(ch)) for ch in channels]  # C reads rows in place
    (a, b), (da, db) = legs, [_displaced_rows(leg) for leg in legs]
    total, distinct = np.empty(min(a.size, b.size), SAMPLE_DTYPE), np.empty(2, np.int64)
    rows = library().merge_legs(a, a.size, da, da.size, b, b.size, db, db.size, total, distinct)
    total = total[:rows]
    for leg, count in zip(legs, distinct):
        if count < leg.size:
            log.warning("collapsed %d duplicate timestamps (last value wins)", leg.size - count)
    dropped = [int(count) - total.size for count in distinct]
    if any(dropped):
        log.warning("dropped %s samples per channel (timestamps not in every channel)", dropped)
    return total


def load_redd_house(house_dir, *, mains: str = "sum", tolerant: bool = False) -> np.ndarray:
    """Load a house's mains from a dataset directory.

    The directory must contain channel_1.dat and channel_2.dat (the two
    mains legs). mains selects "sum" (per-timestamp sum over the
    intersection), "first" or "second" (single leg). Under "sum" each leg
    must hold finite, non-negative powers, as validate_trace demands of one.
    """
    if mains not in MAINS_MODES:
        raise ValueError(f"mains must be one of {tuple(MAINS_MODES)}, got {mains!r}")
    paths = [Path(house_dir) / f"channel_{n}.dat" for n in MAINS_MODES[mains]]
    legs = [load_redd_channel(path, tolerant=tolerant) for path in paths]
    if mains != "sum":
        return legs[0]
    for leg in legs:  # before the sum, which could hide a negative reading
        _check_powers(leg)
    return combine_mains(legs)
