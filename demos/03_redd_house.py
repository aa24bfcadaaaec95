"""Walkthrough on a real house from the public REDD dataset.

Needs METERDELTA_REDD_DIR pointing at the dataset root (the directory that
contains house_1 ... house_6, directly or under low_freq/). The dataset is
license-gated, so this package ships no downloader; request access at
redd.csail.mit.edu and unpack the low_freq archive.

Run:  METERDELTA_REDD_DIR=/path/to/redd python3 demos/03_redd_house.py [house]
"""
import os
import sys
from pathlib import Path

import numpy as np

from meterdelta import (
    ThresholdSpec,
    derive_thresholds,
    first_difference_distribution,
    load_redd_house,
    message_count,
    run_sweep,
    sample_event_based,
    sample_time_based,
    segment_trace,
    trace_stats,
    validate_trace,
)


def find_house(root: Path, house: int) -> Path:
    for candidate in (root / f"house_{house}", root / "low_freq" / f"house_{house}"):
        if candidate.is_dir():
            return candidate
    raise SystemExit(f"house_{house} not found under {root}")


def main():
    root = os.environ.get("METERDELTA_REDD_DIR")
    if not root:
        raise SystemExit(
            "METERDELTA_REDD_DIR is not set; point it at the dataset root to run this demo"
        )
    house = int(sys.argv[1]) if len(sys.argv) > 1 else 1

    house_dir = find_house(Path(root), house)
    print(f"Loading mains of {house_dir} (sum of both channels) ...")
    trace = validate_trace(load_redd_house(house_dir, tolerant=True))
    stats = trace_stats(trace)
    print(f"  samples    {len(trace):>12}")
    print(f"  span       {stats.duration_s / 86400:>12.2f} days")
    print(f"  coverage   {stats.coverage:>12.1%}")
    print(f"  peak       {stats.peak_power_w:>12.2f} W")
    print(f"  peak 1 s change {stats.peak_variation_w:>7.2f} W")
    print(f"  energy     {stats.total_energy_wh:>12.2f} Wh")
    print()

    curve = first_difference_distribution(trace)
    below = float(np.mean(curve.normalized_delta < 0.01))
    print(f"{below:.1%} of one-second power changes are below 1% of the largest one,")
    print("which is why a 1% power threshold already suppresses most messages.")
    print()

    segments = segment_trace(trace, max_gap=3600)
    thresholds = derive_thresholds(stats, 1, 1, ThresholdSpec())
    event_count = sum(message_count(sample_event_based(s, thresholds)) for s in segments)
    reference = sum(message_count(sample_time_based(s, 10)) for s in segments)
    print(
        f"Thresholds at 1%/1%: {thresholds.power_delta_w:.0f} W / {thresholds.energy_wh:.0f} Wh "
        f"-> {event_count} messages, {reference / event_count:.1f}:1 vs 10 s periodic"
    )
    print()

    print("Headline comparison (10% power, 1% energy):")
    result = run_sweep(trace, [60, 300], [10], [1], ThresholdSpec(), max_gap=3600)
    event = result.event_based[0]
    by_dt = {r.dt: r for r in result.time_based}
    print(f"  event point     NMAE {event.nmae:.4f}  messages {event.message_count}")
    print(f"  periodic 60 s   NMAE {by_dt[60].nmae:.4f}  messages {by_dt[60].message_count}")
    print(f"  periodic 300 s  NMAE {by_dt[300].nmae:.4f}  messages {by_dt[300].message_count}")
    print()
    print("The event point should sit near the 60 s error with fewer messages")
    print("than the 300 s strategy sends.")


if __name__ == "__main__":
    main()
