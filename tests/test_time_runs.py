"""Tests of the ms/run table script (scripts/time_runs.py)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "time_runs.py"


def run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env, capture_output=True, text=True)


def test_prints_one_row_per_dimension_and_a_column_per_optimizer():
    proc = run("--gens", "1", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    title, header, rule, *rows = proc.stdout.splitlines()[:5]
    assert title == "ms/run on rastrigin, pop 100, gens 1, median of 1 seeds"
    assert header == "| dim | pao | pso | qpso | de | sade |"
    assert [row.split(" | ")[0] for row in rows] == ["| 2D", "| 8D"]
    for row in rows:
        cells = row.strip("| ").split(" | ")[1:]
        assert len(cells) == 5 and all(float(c) > 0 for c in cells)


def test_prints_the_kernel_layer_in_us_per_call():
    proc = run("--gens", "0", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    title, header, rule, row = proc.stdout.splitlines()[5:9]
    assert title == "us/call of the kernel layer, one (2,) state, median of 25 batches of 200 calls"
    assert header == "| build_kernel | sample_transition | transition_logpdf |"
    assert rule == "|----:|----:|----:|"
    cells = row.strip("| ").split(" | ")
    assert len(cells) == 3 and all(float(c) > 0 for c in cells)


def test_prints_the_attractor_layer_in_us_per_call():
    proc = run("--gens", "0", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    title, header, rule, row = proc.stdout.splitlines()[9:]
    assert title == "us/call of the attractor layer, pop 100, median of 25 batches of 200 calls"
    assert header == "| weighted_centroid(2, 100, 2) | draw_donors(100, 3) | draw_donors(100, 4) |"
    assert rule == "|----:|----:|----:|"
    cells = row.strip("| ").split(" | ")
    assert len(cells) == 3 and all(float(c) > 0 for c in cells)


def test_rejects_zero_seeds():
    proc = run("--seeds", "0")
    assert proc.returncode == 2 and "--seeds" in proc.stderr
