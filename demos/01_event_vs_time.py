"""Event-based vs periodic metering on one synthetic day.

Builds a household-like 1 Hz power signal (base load, a duty-cycling fridge,
morning and evening appliance bursts), derives event thresholds from the
signal's own statistics, then meters it both ways and compares reconstruction
error against message volume.

Run:  python3 demos/01_event_vs_time.py
"""
import numpy as np

from meterdelta import (
    ThresholdSpec,
    derive_thresholds,
    message_count,
    nmae,
    reconstruct,
    sample_event_based,
    sample_time_based,
    segment_trace,
    trace_stats,
    validate_trace,
)

DAY = 86400


def synthetic_day(seed=42):
    rng = np.random.default_rng(seed)
    power = np.full(DAY, 180.0)  # always-on base load

    # fridge: ~600 s on at 120 W, ~900 s off, forever
    t = 0
    while t < DAY:
        on = int(rng.normal(600, 60))
        off = int(rng.normal(900, 90))
        power[t : t + on] += 120.0
        t += max(on + off, 300)

    # bursts of big appliances in the morning and evening
    for hour, count in ((7, 4), (12, 2), (18, 6)):
        for _ in range(count):
            start = hour * 3600 + int(rng.integers(0, 3600))
            duration = int(rng.integers(120, 1800))
            power[start : start + duration] += float(rng.integers(800, 2800))

    power += rng.normal(0, 3, DAY)  # measurement jitter
    return validate_trace(list(enumerate(np.clip(power, 0, None))))


def main():
    trace = synthetic_day()
    stats = trace_stats(trace)
    (segment,) = segment_trace(trace, max_gap=3600)

    print("Synthetic day statistics")
    print(f"  peak power        {stats.peak_power_w:10.1f} W")
    print(f"  peak 1 s change   {stats.peak_variation_w:10.1f} W")
    print(f"  energy            {stats.total_energy_wh:10.1f} Wh")
    print()

    thresholds = derive_thresholds(stats, 1, 1, ThresholdSpec())
    print(f"Derived thresholds at 1% / 1%: power delta {thresholds.power_delta_w:.0f} W, "
          f"energy {thresholds.energy_wh:.0f} Wh")
    print()

    print(f"{'strategy':<22}{'messages':>10}{'NMAE':>10}")
    for dt in (10, 60, 300, 900):
        stream = sample_time_based(segment, dt)
        err = nmae(segment, reconstruct(stream, segment))
        print(f"{'periodic dt=' + str(dt) + ' s':<22}{message_count(stream):>10}{err:>10.4f}")

    stream = sample_event_based(segment, thresholds)
    err = nmae(segment, reconstruct(stream, segment))
    print(f"{'event-based 1%/1%':<22}{message_count(stream):>10}{err:>10.4f}")
    print()
    reference = message_count(sample_time_based(segment, 10))
    print(f"Compression vs the 10 s periodic reference: "
          f"{reference / message_count(stream):.1f}:1")


if __name__ == "__main__":
    main()
