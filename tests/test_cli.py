"""CLI tests: subcommand behaviour, config file handling and flag
precedence, driven through main() with a miniature workload."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pao import cli, harness
from pao.benchmarks import make_problem
from pao.cli import main
from pao.engine import PaoConfig
from pao.harness import cell_processes, derive_seed, run_one, standard_suite
from pao.records import read_jsonl, write_jsonl


class TestKernelInfo:
    def test_prints_matrices(self, capsys):
        assert main(["kernel-info", "--m", "1", "--zeta", "0.2", "--k", "1,1"]) == 0
        out = capsys.readouterr().out
        assert "A =" in out and "Sigma" in out and "Cholesky" in out
        assert "spectral radius" in out
        assert "0.2899508" in out  # A[0, 0] at the defaults

    def test_single_stiffness(self, capsys):
        assert main(["kernel-info", "--k", "2.0", "--dt", "0.5"]) == 0
        assert "k'=2.0" in capsys.readouterr().out


class TestRun:
    def test_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        rc = main(
            ["run", "--optimizer", "de", "--problem", "ackley", "--dim", "2",
             "--pop", "8", "--gens", "3", "--reps", "2", "--seed", "1",
             "--out", str(out)]
        )
        assert rc == 0
        records = read_jsonl(out)
        assert len(records) == 2
        assert records[0].run_id == "de_ackley_2d_r000"
        for rec in records:
            rec.check()
        assert "final best" in capsys.readouterr().out

    def test_reps_write_the_records_of_single_runs(self, tmp_path):
        # each repetition is run_one at derive_seed(seed, rep), byte for
        # byte apart from duration_ms
        out = tmp_path / "runs.jsonl"
        main(["run", "--problem", "ackley", "--pop", "8", "--gens", "3", "--reps", "3", "--seed", "7",
              "--out", str(out)])
        lines = [re.sub(r', "duration_ms": [^,}]+}$', "}", line) for line in out.read_text().splitlines()]
        expected = []
        for rep in range(3):
            rec = run_one("pao", make_problem("ackley", 2), 8, 3, derive_seed(7, rep))
            rec.run_id = f"pao_ackley_2d_r{rep:03d}"
            expected.append(json.dumps(rec.to_json_dict(include_duration=False)))
        assert lines == expected

    def test_defaults_run_pao_on_dejong(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        main(["run", "--pop", "8", "--gens", "2", "--out", str(out)])
        rec = read_jsonl(out)[0]
        assert rec.optimizer == "pao" and rec.problem == "dejong" and rec.dim == 2

    def test_pao_defaults_are_the_package_defaults(self, tmp_path):
        out = tmp_path / "runs.jsonl"
        main(["run", "--pop", "8", "--gens", "2", "--out", str(out)])
        assert read_jsonl(out)[0].params == PaoConfig().params_dict()

    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "rastrigin", "dim": 2, "pop": 8, "gens": 3,
            "zeta": 0.4, "attractors": "globalbest", "k": "2.0",
        }))
        out = tmp_path / "runs.jsonl"
        main(["run", "--config", str(cfg), "--out", str(out)])
        rec = read_jsonl(out)[0]
        assert rec.problem == "rastrigin"
        assert rec.params["zeta"] == 0.4
        assert rec.params["attractors"] == ["globalbest"]
        assert rec.params["k"] == [2.0]

    def test_cli_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "rastrigin", "pop": 8, "gens": 2}))
        out = tmp_path / "runs.jsonl"
        main(["run", "--config", str(cfg), "--problem", "ackley", "--out", str(out)])
        assert read_jsonl(out)[0].problem == "ackley"

    @pytest.mark.parametrize("command", [["run"], ["bench", "--suite", "2d"]])
    def test_rejects_unknown_config_keys(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pop": 8, "gens": 1, "zeta_": 0.5, "atractors": ["globalbest"]}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=r"unknown keys \['atractors', 'zeta_'\].*known keys: .*zeta"):
            main(command + ["--out", str(out), "--config", str(cfg)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, keys",
        [
            (["run"], ["optimizers"]),
            (["bench", "--suite", "2d"], ["dim", "optimizer", "out", "problem"]),
        ],
    )
    def test_rejects_keys_of_the_other_command(self, tmp_path, command, keys):
        # bench runs a whole suite, so a single problem, dim, optimiser or
        # output path in its config would be silently ignored, as would an
        # optimiser list given to run
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pop": 8, "gens": 1, **{k: "x" for k in keys}}))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=rf"unknown keys {re.escape(str(keys))}; known keys: "):
            main(command + ["--out", str(out), "--config", str(cfg)])
        assert not out.exists()

    @pytest.mark.parametrize("optimizer_in", ["flag", "config"])
    def test_rejects_pao_keys_for_other_optimizers(self, tmp_path, optimizer_in):
        # a PSO run reads none of the PAO keys; griewangk_denominator holds
        # for every optimizer, so it is not among the rejected keys
        keys = {"zeta": 0.5, "attractors": ["globalbest"], "k": [3]}
        flag = ["--optimizer", "pso"] if optimizer_in == "flag" else []
        if optimizer_in == "config":
            keys["optimizer"] = "pso"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pop": 8, "gens": 1, "griewangk_denominator": 4000.0, **keys}))
        out = tmp_path / "out.jsonl"
        with pytest.raises(
            ValueError,
            match=r"unknown keys \['attractors', 'k', 'zeta'\] for optimizer 'pso'; known keys: .*griewangk",
        ):
            main(["run", *flag, "--out", str(out), "--config", str(cfg)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "bad",
        [{"dim": 2.7}, {"pop": 8.9}, {"gens": True}, {"reps": 1.5}, {"seed": 1.5}, {"k": 2.0}],
        ids=lambda bad: next(iter(bad)),
    )
    def test_rejects_config_values_of_the_wrong_type(self, tmp_path, bad):
        # int() would truncate a float and a scalar k is not a sequence
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pop": 8, "gens": 1, **bad}))
        key = next(iter(bad))
        # Hyperparams reads a config's k and names it as its own setting
        error = r"k must be a sequence, got 2\.0" if key == "k" else rf"'{key}' must be an integer"
        with pytest.raises(ValueError, match=error):
            main(["run", "--out", str(tmp_path / "out.jsonl"), "--config", str(cfg)])

    @pytest.mark.parametrize("reps", [0, -2])
    @pytest.mark.parametrize("given_in", ["flag", "config"])
    def test_rejects_non_positive_reps(self, tmp_path, reps, given_in):
        # no repetition would run, and --out would get an empty file
        out = tmp_path / "out.jsonl"
        argv = ["run", "--pop", "8", "--gens", "1", "--out", str(out)]
        if given_in == "flag":
            argv += ["--reps", str(reps)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"reps": reps}))
            argv += ["--config", str(cfg)]
        with pytest.raises(ValueError, match=re.escape(f"reps must be >= 1, got {reps}")):
            main(argv)
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("given_in", ["flag", "config"])
    def test_rejects_a_seed_outside_64_bits(self, tmp_path, seed, given_in):
        # -1 ran, and 2**64 wrote the records of seed 0
        out = tmp_path / "out.jsonl"
        argv = ["run", "--pop", "8", "--gens", "1", "--out", str(out)]
        if given_in == "flag":
            argv += ["--seed", str(seed)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": seed}))
            argv += ["--config", str(cfg)]
        what = "--seed" if given_in == "flag" else "config key 'seed'"
        error = f"{what} must be in [0, 2**64), got {seed}"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            main(argv)
        assert not out.exists()

    def test_non_positive_reps_exits_non_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pao.cli", "run", "--reps", "0", "--pop", "8"],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "reps must be >= 1, got 0" in proc.stderr
        assert proc.stdout == ""

    def test_rejects_non_object_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        with pytest.raises(ValueError, match="flat JSON object"):
            main(["run", "--config", str(cfg)])


class TestBenchAndPlotData:
    def test_suite_then_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pop": 8, "gens": 3}))
        out = tmp_path / "suite"
        rc = main(
            ["bench", "--suite", "2d", "--reps", "2", "--seed", "3",
             "--optimizers", "pao,de", "--out", str(out), "--config", str(cfg)]
        )
        assert rc == 0
        records = read_jsonl(out / "records.jsonl")
        assert len(records) == 9 * 2 * 2
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["entries"]) == 18
        text = capsys.readouterr().out
        assert "schwefel" in text and "median" in text

        csv_dir = tmp_path / "csv"
        assert main(["plot-data", "--in", str(out), "--out", str(csv_dir)]) == 0
        csvs = sorted(p.name for p in csv_dir.iterdir())
        assert len(csvs) == 9
        assert "ackley_2d.csv" in csvs
        header = (csv_dir / "ackley_2d.csv").read_text().splitlines()[0]
        assert header == "generation,pao,de"


    def test_bench_rejects_a_population_sade_cannot_run_before_any_run(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_one", lambda *args: runs.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pop": 4}))
        out = tmp_path / "suite"
        with pytest.raises(ValueError, match="sade needs a population of at least 5, got 4"):
            main(["bench", "--suite", "2d", "--out", str(out), "--config", str(cfg)])
        assert runs == [] and not out.exists()

    def test_bench_rejects_a_drift_matrix_that_overflows_before_any_run(self, tmp_path, monkeypatch):
        # the suite started and failed inside the worker pool
        runs = []
        monkeypatch.setattr(harness, "run_one", lambda *args: runs.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": [1e308, 1e308]}))
        out = tmp_path / "suite"
        with pytest.raises(ValueError, match="give a drift matrix that is not finite"):
            main(["bench", "--suite", "2d", "--optimizers", "pso,pao", "--out", str(out), "--config", str(cfg)])
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("optimizers", ["sade,de,pao", "pso"])
    def test_bench_rejects_a_kernel_that_cannot_be_built_before_any_run(self, tmp_path, monkeypatch, optimizers):
        # the suite ran every SADE and DE cell, then warned four times of an
        # overflow and failed in its PAO runs; the PAO config is now refused
        # as it is read, also where --optimizers leaves PAO out
        runs = []
        monkeypatch.setattr(harness, "run_one", lambda *args: runs.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 0.0, "dt": 1e20}))
        out = tmp_path / "suite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^A and Sigma of .* are not finite$"):
                main(["bench", "--suite", "2d", "--optimizers", optimizers, "--out", str(out),
                      "--config", str(cfg)])
        assert runs == [] and not out.exists()

    def test_bench_rejects_a_repeated_optimizer_before_any_run(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_one", lambda *args: runs.append(args))
        out = tmp_path / "suite"
        with pytest.raises(ValueError, match="duplicate optimizer 'pso'"):
            main(["bench", "--suite", "2d", "--optimizers", "pso,pso", "--out", str(out)])
        assert runs == [] and not out.exists()

    def test_bench_rejects_a_population_derand1bin_cannot_run_before_any_run(self, tmp_path, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_one", lambda *args: runs.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pop": 3, "attractors": ["globalbest", "derand1bin"]}))
        out = tmp_path / "suite"
        with pytest.raises(ValueError, match="derand1bin needs a population of at least 4, got 3"):
            main(["bench", "--suite", "2d", "--optimizers", "pao,pso", "--out", str(out), "--config", str(cfg)])
        assert runs == [] and not out.exists()

    @pytest.mark.parametrize("optimizers", [",", " , "])
    def test_bench_rejects_an_empty_optimizer_list(self, tmp_path, monkeypatch, optimizers):
        runs = []
        monkeypatch.setattr(harness, "run_one", lambda *args: runs.append(args))
        out = tmp_path / "suite"
        with pytest.raises(ValueError, match="the suite has no optimizers"):
            main(["bench", "--suite", "2d", "--optimizers", optimizers, "--out", str(out)])
        assert runs == [] and not out.exists()

    @staticmethod
    def fake_run_suite(suites):
        # records the suite and writes the records file of one short run
        def run_suite(suite, out):
            suites.append(suite)
            write_jsonl([run_one("pso", make_problem("dejong", 2), 4, 1, seed=0)], Path(out, "records.jsonl"))
            return {"entries": []}
        return run_suite

    def test_bench_without_sizing_flags_runs_the_standard_suite(self, tmp_path, monkeypatch):
        suites = []
        monkeypatch.setattr(cli, "run_suite", self.fake_run_suite(suites))
        assert main(["bench", "--suite", "2d", "--out", str(tmp_path)]) == 0
        assert suites == [standard_suite("2d")]

    def test_bench_drops_empty_names_from_the_optimizer_list(self, tmp_path, monkeypatch):
        suites = []
        monkeypatch.setattr(cli, "run_suite", self.fake_run_suite(suites))
        assert main(["bench", "--suite", "2d", "--optimizers", "pso,", "--out", str(tmp_path)]) == 0
        assert suites == [standard_suite("2d", optimizers=("pso",))]

    def test_one_rep_of_pso_on_the_2d_suite(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["bench", "--suite", "2d", "--reps", "1", "--optimizers", "pso", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert re.search(rf"^9 runs in [0-9.]+s on {cell_processes(9)} process\(es\) -> {re.escape(str(out))}$", text, re.M)
        assert re.search(rf"^plot data: 9 CSVs under {re.escape(str(out / 'plots'))}$", text, re.M)
        assert len((out / "records.jsonl").read_text().splitlines()) == 9
        assert len(json.loads((out / "summary.json").read_text())["entries"]) == 9
        assert len(list((out / "plots").glob("*.csv"))) == 9

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("given_in", ["flag", "config"])
    def test_bench_rejects_a_seed_outside_64_bits_by_its_key(self, tmp_path, seed, given_in):
        # it was named base_seed, the suite's field, where run named it
        # "base seed"
        out = tmp_path / "results"
        argv = ["bench", "--suite", "2d", "--reps", "1", "--out", str(out)]
        if given_in == "flag":
            argv += ["--seed", str(seed)]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": seed}))
            argv += ["--config", str(cfg)]
        what = "--seed" if given_in == "flag" else "config key 'seed'"
        error = f"{what} must be in [0, 2**64), got {seed}"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            main(argv)
        assert not out.exists()

    def test_bench_rejects_zero_reps(self, tmp_path):
        out = tmp_path / "results"
        with pytest.raises(ValueError, match=re.escape("reps must be >= 1, got 0")):
            main(["bench", "--suite", "2d", "--reps", "0", "--out", str(out)])
        assert not out.exists()

    def test_plot_data_rebuilds_the_plots_of_bench(self, tmp_path):
        out = tmp_path / "results"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pop": 8, "gens": 3}))
        main(["bench", "--suite", "2d", "--reps", "2", "--optimizers", "pao,de", "--out", str(out),
              "--config", str(cfg)])
        replot = tmp_path / "replot"
        assert main(["plot-data", "--in", str(out), "--out", str(replot)]) == 0
        written = sorted(p.name for p in (out / "plots").iterdir())
        assert len(written) == 9 and sorted(p.name for p in replot.iterdir()) == written
        for name in written:
            assert (replot / name).read_bytes() == (out / "plots" / name).read_bytes()

    def test_plot_data_of_no_records_exits_non_zero(self, tmp_path):
        (tmp_path / "records.jsonl").write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "pao.cli", "plot-data", "--in", str(tmp_path), "--out", str(tmp_path / "plots")],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "no records" in proc.stderr
        assert proc.stdout == ""

    def test_plot_data_of_a_truncated_records_file_names_the_line(self, tmp_path):
        # the records file of a run killed while writing its second line
        rec = run_one("pso", make_problem("dejong", 2), 4, 1, seed=0)
        (tmp_path / "records.jsonl").write_text(json.dumps(rec.to_json_dict()) + '\n{"run_id": ')
        proc = subprocess.run(
            [sys.executable, "-m", "pao.cli", "plot-data", "--in", str(tmp_path), "--out", str(tmp_path / "plots")],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert re.search(r"ValueError: \S*records\.jsonl, line 2: not JSON", proc.stderr)
        assert proc.stdout == "" and not (tmp_path / "plots").exists()

    def test_plot_data_of_a_record_with_a_short_history_names_the_line(self, tmp_path):
        # failed inside NumPy on an inhomogeneous shape, naming no file
        recs = [run_one("pso", make_problem("dejong", 2), 4, 2, seed=s) for s in (0, 1)]
        del recs[1].history[-1]
        write_jsonl(recs, tmp_path / "records.jsonl")
        error = f"{tmp_path / 'records.jsonl'}, line 2: {recs[1].run_id}: 2 history entries for 2 generations"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            main(["plot-data", "--in", str(tmp_path), "--out", str(tmp_path / "plots")])
        assert not (tmp_path / "plots").exists()

    def test_plot_data_of_a_record_whose_problem_is_a_path_writes_nothing(self, tmp_path):
        # the plot of problem "../../escaped" was written two levels above --out
        rec = run_one("pso", make_problem("dejong", 2), 4, 1, seed=0)
        rec.problem = "../../escaped"
        write_jsonl([rec], tmp_path / "records.jsonl")
        proc = subprocess.run(
            [sys.executable, "-m", "pao.cli", "plot-data", "--in", str(tmp_path), "--out", str(tmp_path / "x" / "y")],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert re.search(r"ValueError: \S*records\.jsonl, line 1: .*: problem must be one of", proc.stderr)
        assert [p.name for p in tmp_path.rglob("*")] == ["records.jsonl"]


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pao.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "bench" in proc.stdout and "kernel-info" in proc.stdout

    def test_run_of_a_kernel_that_cannot_be_built_fails_with_one_error(self, tmp_path):
        # the run printed four overflow RuntimeWarnings before its error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"zeta": 0.0, "dt": 1e20}))
        out = tmp_path / "runs.jsonl"
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "pao.cli", "run", "--pop", "8", "--gens", "2",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode != 0 and not out.exists()
        assert "are not finite" in proc.stderr and "Warning" not in proc.stderr
