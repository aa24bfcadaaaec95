"""Small-size checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gen
import run
import traced_cli
import verify

SMALL_HOUSE_S = 120_000
SMALL_DENSE = 20_000


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _traced_sweep(source: Path, out: Path, *grid: str) -> tuple[dict, dict]:
    """Sweep at the given grid flags under the tracer; (sweep JSON, metrics)."""
    spans = out.parent / f"{out.name}_spans.json"
    subprocess.run(
        [sys.executable, str(run.BENCH / "traced_cli.py"), str(spans),
         "sweep", "--input", str(source), "--out", str(out), *grid],
        env=run.child_env(), cwd=run.ROOT, check=True, capture_output=True,
    )
    (doc,) = [json.loads(p.read_text()) for p in out.glob("*_sweep.json")]
    metrics = traced_cli.layer_metrics([json.loads(spans.read_text())], {})
    return doc, {name: value for name, (value, _, _) in metrics.items()}


@pytest.fixture(scope="module")
def house(tmp_path_factory):
    directory = tmp_path_factory.mktemp("house") / "house"
    return directory, gen.make_house(directory, seed=7, span_s=SMALL_HOUSE_S)


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    directory = tmp_path_factory.mktemp("dense")
    return directory / "dense.dat", gen.make_dense(directory, 7, run.ROOT, length=SMALL_DENSE)


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, house, dense):
    house_dir, _ = house
    gen.make_house(tmp_path / "same", seed=7, span_s=SMALL_HOUSE_S)
    gen.make_house(tmp_path / "other", seed=8, span_s=SMALL_HOUSE_S)
    assert _files(tmp_path / "same") == _files(house_dir)
    assert _files(tmp_path / "other") != _files(house_dir)

    dense_file, _ = dense
    gen.make_dense(tmp_path / "d_same", 7, run.ROOT, length=SMALL_DENSE)
    gen.make_dense(tmp_path / "d_other", 8, run.ROOT, length=SMALL_DENSE)
    assert (tmp_path / "d_same" / "dense.dat").read_bytes() == dense_file.read_bytes()
    assert (tmp_path / "d_other" / "dense.dat").read_bytes() != dense_file.read_bytes()


def test_house_is_segmented_and_loses_samples_to_the_intersection(tmp_path, house):
    house_dir, truth = house
    _, metrics = _traced_sweep(house_dir, tmp_path / "out", "--p-percent", "1", "--e-percent", "1")
    assert metrics["trace.segments"] > 1
    assert metrics["ingest.intersection_dropped"] > 0
    assert metrics["ingest.intersection_dropped"] == truth.intersection_dropped
    assert metrics["ingest.lines"] == truth.lines
    assert metrics["trace.duplicates_collapsed"] == 10  # 5 repeated lines per leg
    assert metrics["bench.trace_overhead_s"] > 0


def test_message_density_at_one_percent(tmp_path, house, dense):
    house_dir, _ = house
    doc, _ = _traced_sweep(house_dir, tmp_path / "house", "--dt", "10",
                           "--p-percent", "1", "--e-percent", "1")
    assert 10.0 <= doc["event_based"][0]["compression_vs_10s"] <= 30.0

    dense_file, _ = dense
    _, metrics = _traced_sweep(dense_file, tmp_path / "dense", "--p-percent", "1", "--e-percent", "1")
    assert metrics["sampler.samples_per_message"] <= 40


def test_verifier_accepts_a_good_sweep_and_flags_a_corrupted_one(tmp_path, dense):
    dense_file, truth = dense
    out = tmp_path / "out"
    subprocess.run([sys.executable, "-m", "meterdelta.cli", "sweep", "--input", str(dense_file),
                    "--out", str(out), "--p-percent", "1,10", "--e-percent", "5"],
                   env=run.child_env(), cwd=run.ROOT, check=True)
    oracles = gen.load_oracles(run.ROOT)
    cells = [verify.oracle_cell(truth, oracles, p, 5.0) for p in (1.0, 10.0)]
    good_json = (out / "dense_sweep.json").read_bytes()
    good_csv = (out / "dense_sweep.csv").read_bytes()
    assert verify.check_sweep(good_json, good_csv, truth, (1.0, 10.0), (5.0,), cells) == []

    doc = json.loads(good_json)
    doc["event_based"][0]["count"] += 1
    bad_json = json.dumps(doc, indent=2).encode()
    assert verify.check_sweep(bad_json, good_csv, truth, (1.0, 10.0), (5.0,), cells)

    bad_csv = good_csv.replace(b"time,10,", b"time,11,", 1)
    assert verify.check_sweep(good_json, bad_csv, truth, (1.0, 10.0), (5.0,), cells)
    assert verify.check_sweep(good_json[:-20], good_csv, truth, (1.0, 10.0), (5.0,), cells)


def test_readings_check_matches_the_oracle_and_flags_lost_energy(house):
    house_dir, truth = house
    cell = verify.oracle_cell(truth, gen.load_oracles(run.ROOT), 1.0, 1.0)
    proc = subprocess.run(
        [sys.executable, "-m", "meterdelta.cli", "sample", "--input", str(house_dir),
         "--strategy", "event", "--delta-p", repr(cell["delta_p_w"]), "--energy", repr(cell["energy_wh"])],
        env=run.child_env(), cwd=run.ROOT, check=True, capture_output=True, text=True,
    )
    assert verify.check_readings(proc.stdout, truth, cell) == []
    lines = proc.stdout.splitlines()
    t, trigger, energy, power = lines[5].split(",")
    lines[5] = f"{t},{trigger},{float(energy) + 0.5:.6f},{power}"
    problems = verify.check_readings("\n".join(lines) + "\n", truth, cell)
    assert any("oracle" in p for p in problems) and any("segment" in p for p in problems)


def test_truth_matches_the_files(house):
    house_dir, truth = house
    legs = []
    for k in (1, 2):
        raw = np.loadtxt(house_dir / f"channel_{k}.dat")
        legs.append(dict(zip(raw[:, 0].astype(np.int64).tolist(), raw[:, 1].tolist())))
    common = sorted(set(legs[0]) & set(legs[1]))
    assert common == truth.timestamps.tolist()
    assert [legs[0][t] + legs[1][t] for t in common] == truth.powers.tolist()
