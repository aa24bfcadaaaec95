"""Full parameter sweep across periodic and event grids.

Evaluates the default 9-point periodic grid and the 7 x 7 event threshold
grid on a synthetic trace, then prints the NMAE and message-count matrices.
Each event row fixes the energy percentage; columns vary the power-change
percentage. The same tables back the CLI's `sweep` JSON/CSV reports.

Run:  python3 demos/02_threshold_sweep.py
"""
import numpy as np

from meterdelta import (
    DEFAULT_DT_GRID,
    DEFAULT_PERCENT_GRID,
    ThresholdSpec,
    run_sweep,
    validate_trace,
)


def random_walk_trace(seed=7, length=4 * 3600):
    """Step signal wandering between a handful of power plateaus."""
    rng = np.random.default_rng(seed)
    levels = [200.0]
    while len(levels) < length:
        jump = float(rng.integers(-1500, 2500))
        levels.extend([max(0.0, levels[-1] + jump)] * int(rng.integers(30, 900)))
    return validate_trace(list(enumerate(levels[:length])))


def main():
    result = run_sweep(
        random_walk_trace(),
        DEFAULT_DT_GRID,
        DEFAULT_PERCENT_GRID,
        DEFAULT_PERCENT_GRID,
        ThresholdSpec(),
        max_gap=3600,
    )

    print("Periodic strategies")
    print(f"{'dt [s]':>8}{'messages':>10}{'NMAE':>10}")
    for row in result.time_based:
        print(f"{row.dt:>8}{row.message_count:>10}{row.nmae:>10.4f}")
    print()

    header = "".join(f"{p:>9.0f}%" for p in DEFAULT_PERCENT_GRID)
    print("Event-based NMAE (rows: energy %, columns: power-change %)")
    print(f"{'':>6}{header}")
    for e in DEFAULT_PERCENT_GRID:
        cells = [r for r in result.event_based if r.e_percent == e]
        line = "".join(f"{r.nmae:>10.4f}" for r in sorted(cells, key=lambda r: r.p_percent))
        print(f"{e:>5.0f}%{line}")
    print()

    print("Event-based message counts")
    print(f"{'':>6}{header}")
    for e in DEFAULT_PERCENT_GRID:
        cells = [r for r in result.event_based if r.e_percent == e]
        line = "".join(
            f"{r.message_count:>10}" for r in sorted(cells, key=lambda r: r.p_percent)
        )
        print(f"{e:>5.0f}%{line}")
    print()

    best = min(result.event_based, key=lambda r: r.nmae * r.message_count)
    print(
        f"Cheapest good point: {best.p_percent:.0f}%/{best.e_percent:.0f}% -> "
        f"NMAE {best.nmae:.4f} with {best.message_count} messages "
        f"({best.compression_vs_10s:.1f}:1 vs 10 s periodic)"
    )


if __name__ == "__main__":
    main()
