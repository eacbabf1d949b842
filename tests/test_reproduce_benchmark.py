"""Tests of the comparison experiment script (scripts/reproduce_benchmark.py)."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from pao.harness import cell_processes

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_benchmark.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_benchmark", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_rep_of_pso_on_the_2d_suite(tmp_path, capsys):
    out = tmp_path / "results"
    args = ["--suite", "2d", "--reps", "1", "--optimizers", "pso", "--out", str(out)]
    assert load_script().main(args) == 0
    assert re.search(rf"^9 runs in [0-9.]+s on {cell_processes(9)} process\(es\) -> ", capsys.readouterr().out, re.M)
    assert len((out / "records.jsonl").read_text().splitlines()) == 9
    assert len(json.loads((out / "summary.json").read_text())["entries"]) == 9
    assert len(list((out / "plots").glob("*.csv"))) == 9


def test_zero_reps_rejected(tmp_path):
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        load_script().main(["--suite", "2d", "--reps", "0", "--out", str(tmp_path / "results")])
