import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(demo, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", ["01_event_vs_time.py", "02_threshold_sweep.py"])
def test_demo_runs(demo):
    run_demo(demo)


def test_redd_demo_runs_on_a_synthetic_house(tmp_path):
    # two mains legs stepping between three loads every minute for two hours
    house = tmp_path / "house_1"
    house.mkdir()
    for channel, scale in ((1, 1), (2, 3)):
        lines = (f"{1_300_000_000 + t} {scale * (100 + 400 * (t // 60 % 3))}.0\n"
                 for t in range(7200))
        (house / f"channel_{channel}.dat").write_text("".join(lines))
    out = run_demo("03_redd_house.py", METERDELTA_REDD_DIR=str(tmp_path))
    assert "Thresholds at 1%/1%" in out
    assert "periodic 300 s" in out
