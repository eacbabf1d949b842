"""Tests of the digest sweep's compare mode (scripts/record_digests.py)."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "record_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("record_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_line(optimizer, menu, problem, digest, shifted_best, dim=2, seed=0):
    return {"optimizer": optimizer, "menu": menu, "problem": problem, "dim": dim,
            "seed": seed, "digest": digest, "shifted_best": shifted_best}


def write(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


@pytest.fixture
def before(tmp_path):
    return [
        run_line("pso", None, "dejong", "a", 1e-20),
        run_line("pao", "stochastic", "dejong", "b", 1.0),
        run_line("pao", "stochastic", "ackley", "c", 2.5),
        run_line("pao", "stochastic", "rastrigin", "d", 1e-12),
    ]


class TestCompare:
    def test_identical_files(self, tmp_path, before, capsys):
        path = write(tmp_path / "a.jsonl", before)
        assert load_script().main(["--compare", path, path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "pso: 1 of 1 digests identical",
            "pao/stochastic: 3 of 3 digests identical",
            "all: 4 of 4 digests identical",
        ]

    def test_counts_changes_and_their_agreeing_digits(self, tmp_path, before, capsys):
        after = [dict(line) for line in before]
        after[1].update(digest="b2", shifted_best=1.0 + 1e-11)
        after[2].update(digest="c2")  # same final value: agrees on every digit
        after[3].update(digest="d2", shifted_best=3e-12)  # below the floor: not counted
        a, b = write(tmp_path / "a.jsonl", before), write(tmp_path / "b.jsonl", after)
        assert load_script().main(["--compare", a, b]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == ("pao/stochastic: 0 of 3 digests identical; changed runs above 1e-09 "
                          "agree to >= 11.0 significant digits")
        assert out[-1] == "all: 1 of 4 digests identical"

    def test_different_runs_fail(self, tmp_path, before, capsys):
        a = write(tmp_path / "a.jsonl", before)
        b = write(tmp_path / "b.jsonl", before[:-1] + [run_line("pao", "stochastic", "rastrigin", "d", 1e-12, seed=1)])
        assert load_script().main(["--compare", a, b]) != 0
        assert "different runs" in capsys.readouterr().out

    def test_does_not_import_pao(self, tmp_path, before):
        path = write(tmp_path / "a.jsonl", before)
        code = (
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('rd', {str(SCRIPT)!r})\n"
            "m = importlib.util.module_from_spec(spec); spec.loader.exec_module(m)\n"
            f"m.main(['--compare', {path!r}, {path!r}])\n"
            "print('pao' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "False"


def test_menus_round_trip_through_params():
    # a PAO record's params rebuild its configuration
    from pao import PaoConfig

    for cfg in load_script().menus().values():
        assert PaoConfig.from_params(cfg.params_dict()) == cfg
