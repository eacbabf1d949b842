"""Harness tests: seed derivation, suite execution, aggregation and plot
data emission on miniaturised suites."""

import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from pao import attractors, baselines, engine, harness
from pao.engine import ObjectiveEvaluationError, PaoConfig
from pao.baselines import DeConfig, PsoConfig
from pao.benchmarks import PROBLEM_NAMES, make_problem
from pao.harness import (
    OPTIMIZER_IDS,
    SUITES,
    BenchmarkSuite,
    aggregate_convergence,
    derive_seed,
    emit_plot_data,
    format_summary,
    run_cell,
    run_one,
    run_suite,
    standard_suite,
    summarize,
)
from pao.records import read_jsonl


def tiny_suite(**overrides):
    kwargs = dict(
        problems=(("dejong", 2), ("rastrigin", 2)),
        pop=8,
        gens=4,
        reps=2,
        optimizers=("pao", "de"),
        base_seed=42,
    )
    kwargs.update(overrides)
    return BenchmarkSuite(**kwargs)


def sans_duration(out_path):
    """The JSON lines of a suite's records, each without ``duration_ms``."""
    return [json.dumps(r.to_json_dict(include_duration=False)) for r in read_jsonl(out_path / "records.jsonl")]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)

    def test_distinct_over_grid(self):
        seeds = {derive_seed(7, a, b, c) for a in range(5) for b in range(9) for c in range(20)}
        assert len(seeds) == 5 * 9 * 20

    def test_uint64_range(self):
        for s in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= derive_seed(s, 3) < 2**64

    @pytest.mark.parametrize(
        "args, what, value",
        [((-1,), "base seed", -1), ((2**64, 3), "base seed", 2**64),
         ((0, -1), "seed index 0", -1), ((0, 1, 2**64 + 1), "seed index 1", 2**64 + 1)],
    )
    def test_rejects_a_seed_or_index_outside_64_bits(self, args, what, value):
        # each was masked to 64 bits: 2**64 derived the seeds of 0
        with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be in [0, 2**64), got {value}')}$"):
            derive_seed(*args)

    @pytest.mark.parametrize("value", [1.5, "3", True])
    def test_rejects_a_seed_that_is_not_an_integer(self, value):
        with pytest.raises(ValueError, match=re.escape(f"base seed must be an integer, got {value!r}")):
            derive_seed(value)


class TestSuiteConfig:
    def test_standard_suites(self):
        assert len(standard_suite("2d").problems) == 9
        assert len(standard_suite("8d").problems) == 9
        assert len(standard_suite("all").problems) == 18
        assert all(d == 2 for _, d in standard_suite("2d").problems)

    def test_unknown_suite(self):
        error = f"suite must be one of {tuple(SUITES)}, got '3d'"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            standard_suite("3d")

    def test_rejects_bad_optimizer(self):
        error = f"optimizer must be one of {OPTIMIZER_IDS}, got 'cmaes'"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            tiny_suite(optimizers=("pao", "cmaes"))

    @pytest.mark.parametrize("opt", OPTIMIZER_IDS)
    def test_rejects_a_config_of_another_type(self, opt):
        # checked before any run, not in the optimiser's first cell, and
        # also where that optimiser is not in the suite
        other = "pso" if opt == "de" else "de"
        error = f"{other} must be a {dict(pso='PsoConfig', de='DeConfig')[other]}, got {{'c1': 1.0}}"
        for optimizers in ((opt, other), (opt,)):
            with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
                tiny_suite(optimizers=optimizers, **{other: {"c1": 1.0}})

    @pytest.mark.parametrize(
        "axes, error",
        [(dict(optimizers="pso"), "optimizers must be a sequence, got 'pso'"),
         (dict(problems="dejong"), "problems must be a sequence, got 'dejong'"),
         (dict(optimizers=5), "optimizers must be a sequence, got 5"),
         (dict(problems=("dejong", 2)), "problem 'dejong' is not a (name, dim) pair"),
         (dict(problems=(("dejong", 2, 3),)), "problem ('dejong', 2, 3) is not a (name, dim) pair")],
    )
    def test_rejects_axes_of_the_wrong_shape(self, axes, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            tiny_suite(**axes)

    def test_axes_may_be_any_sequence(self):
        suite = tiny_suite(optimizers=["pso"], problems=[["dejong", 2]])
        assert suite.optimizers == ("pso",) and suite.problems == (("dejong", 2),)

    def test_rejects_bad_reps(self):
        with pytest.raises(ValueError, match=re.escape("reps must be >= 1, got 0")):
            tiny_suite(reps=0)

    @pytest.mark.parametrize(
        "problem, error",
        [(("nope", 2), f"problem name must be one of {PROBLEM_NAMES}, got 'nope'"),
         (("rosenbrock", 1), "rosenbrock needs dimension")],
    )
    def test_rejects_bad_problem(self, problem, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            tiny_suite(problems=(("dejong", 2), problem))

    @pytest.mark.parametrize("dim", [2.7, -0.5, float("nan"), float("inf"), "2", None])
    def test_rejects_non_integral_dimension(self, dim):
        with pytest.raises(ValueError, match=re.escape(f"problem ('dejong', {dim!r}): the dimension must be an integer")):
            tiny_suite(problems=(("rastrigin", 2), ("dejong", dim)))

    @pytest.mark.parametrize("dim", [3, np.int64(3), np.int32(3), np.uint8(3), 3.0])
    def test_accepts_integral_dimension(self, dim):
        ((_, got),) = tiny_suite(problems=(("dejong", dim),)).problems
        assert got == 3 and type(got) is int

    def test_normalises_problem_names(self, tmp_path):
        suite = tiny_suite(problems=((" Rastrigin", 2.0),), reps=1, optimizers=("pso",))
        assert suite.problems == (("rastrigin", 2),)
        run_suite(suite, tmp_path)
        rec = read_jsonl(tmp_path / "records.jsonl")[0]
        assert (rec.run_id, rec.problem) == ("pso_rastrigin_2d_r000", "rastrigin")

    @pytest.mark.parametrize("opt, least", [("de", 4), ("sade", 5)])
    def test_rejects_population_an_optimizer_cannot_run(self, opt, least):
        with pytest.raises(ValueError, match=f"{opt} needs a population of at least {least}, got {least - 1}"):
            tiny_suite(pop=least - 1, optimizers=("pao", "pso", opt))
        tiny_suite(pop=least, optimizers=("pao", "pso", opt))

    def test_population_floors_are_one_table(self, monkeypatch):
        # the suite and the runner read the same minimum
        monkeypatch.setitem(attractors.MIN_POP, "de", 6)
        with pytest.raises(ValueError, match="at least 6"):
            tiny_suite(pop=5)
        with pytest.raises(ValueError, match="at least 6"):
            run_one("de", make_problem("dejong", 2), 5, 1, seed=0)

    def test_rejects_a_population_the_derand1bin_attractor_cannot_run(self):
        derand = PaoConfig.from_params({"attractors": ["globalbest", "derand1bin"]})
        with pytest.raises(ValueError, match="derand1bin needs a population of at least 4, got 3"):
            tiny_suite(pop=3, optimizers=("pso", "pao"), pao=derand)
        # the floor holds only where a derand1bin attractor runs
        tiny_suite(pop=3, optimizers=("pao", "pso"))
        tiny_suite(pop=3, optimizers=("pso",), pao=derand)
        tiny_suite(pop=4, optimizers=("pao",), pao=derand)

    def test_derand1bin_floor_is_read_from_the_table(self, monkeypatch):
        derand = PaoConfig.from_params({"attractors": ["derand1bin"]})
        monkeypatch.setitem(attractors.MIN_POP, "derand1bin", 6)
        with pytest.raises(ValueError, match="at least 6"):
            tiny_suite(pop=5, optimizers=("pao",), pao=derand)
        with pytest.raises(ValueError, match="at least 6"):
            run_one("pao", make_problem("dejong", 2), 5, 1, seed=0, cfg=derand)

    @pytest.mark.parametrize("axis", ["optimizers", "problems"])
    def test_rejects_an_empty_suite(self, axis):
        with pytest.raises(ValueError, match=f"the suite has no {axis}"):
            tiny_suite(**{axis: ()})

    @pytest.mark.parametrize(
        "size, value",
        [("pop", 2.5), ("gens", 2.5), ("reps", 2.5), ("pop", True), ("gens", False), ("reps", np.True_),
         ("pop", "8"), ("gens", None), ("reps", float("nan")), ("gens", -1),
         # a base seed like these would fail only when the first run derives
         # its seed, or run as seed 1
         ("base_seed", 1.5), ("base_seed", "3"), ("base_seed", None), ("base_seed", True)],
    )
    def test_rejects_run_sizes_a_run_cannot_take(self, size, value):
        error = "gens must be >= 0, got -1" if value == -1 else f"{size} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(error)):
            tiny_suite(**{size: value})

    @pytest.mark.parametrize(
        "seed, error", [(-1, "base_seed must be in [0, 2**64), got -1"),
                        (2**64, f"base_seed must be in [0, 2**64), got {2**64}")]
    )
    def test_rejects_a_base_seed_outside_64_bits(self, seed, error):
        # -1 failed only when the first run derived its seed, and 2**64 ran
        # the suite of base seed 0
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            tiny_suite(base_seed=seed)

    def test_accepts_integral_run_sizes(self):
        suite = tiny_suite(pop=np.int64(8), gens=4.0, reps=np.uint8(2), base_seed=np.int64(42))
        sizes = (suite.pop, suite.gens, suite.reps, suite.base_seed)
        assert sizes == (8, 4, 2, 42) and all(type(v) is int for v in sizes)
        assert tiny_suite(gens=0).gens == 0

    @pytest.mark.parametrize(
        "overrides, error",
        [
            (dict(optimizers=("pso", " PSO")), "duplicate optimizer 'pso'"),
            (dict(problems=(("dejong", 2), ("rastrigin", 2), ("DeJong", 2.0))), "duplicate problem ('dejong', 2)"),
        ],
    )
    def test_rejects_a_repeated_cell(self, overrides, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            tiny_suite(**overrides)

    def test_same_problem_in_two_dimensions_is_two_cells(self):
        assert tiny_suite(problems=(("dejong", 2), ("dejong", 3))).problems == (("dejong", 2), ("dejong", 3))


class TestRunOne:
    @pytest.mark.parametrize("opt", ["pao", "pso", "qpso", "de", "sade"])
    def test_dispatch(self, opt):
        rec = run_one(opt, make_problem("dejong", 2), 8, 3, seed=1)
        rec.check()
        assert rec.optimizer == opt

    @pytest.mark.parametrize("opt", OPTIMIZER_IDS)
    def test_logged_best_positions_score_the_logged_bests(self, opt):
        # the record keeps the archive's own best arrays, uncopied, so a later
        # generation must never write into an earlier best
        problem = make_problem("rastrigin", 3)
        rec = run_one(opt, problem, 10, 30, seed=4)
        for g, h in enumerate(rec.history):
            assert problem.evaluate(rec.best_pos[g][None])[0] == h["best"]

    def test_unknown_optimizer(self):
        error = f"optimizer must be one of {OPTIMIZER_IDS}, got 'cmaes'"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            run_one("cmaes", make_problem("dejong", 2), 8, 3, seed=1)

    @pytest.mark.parametrize(
        "opt, cfg, config_type",
        [("pso", DeConfig(), "PsoConfig"), ("pao", PsoConfig(), "PaoConfig"), ("de", {"cr": 0.7}, "DeConfig")],
    )
    def test_rejects_a_config_of_another_type(self, opt, cfg, config_type):
        with pytest.raises(ValueError, match=re.escape(f"{opt} must be a {config_type}, got {cfg!r}")):
            run_one(opt, make_problem("dejong", 2), 8, 3, 0, cfg)

    def test_reads_sizes_as_integers(self):
        problem = make_problem("dejong", 2)
        rec = run_one("pso", problem, 8.0, 3.0, 0)
        assert (rec.pop, rec.gens, len(rec.history)) == (8, 3, 4)
        assert type(rec.pop) is int and type(rec.gens) is int
        assert rec.to_json_dict(False) == run_one("pso", problem, 8, 3, 0).to_json_dict(False)
        for what, args in (("population size", (True, 3)), ("generations", (8, True)), ("generations", (8, 2.5))):
            with pytest.raises(ValueError, match=f"{what} must be an integer"):
                run_one("pso", problem, *args, 0)

    @pytest.mark.parametrize(
        "opt, module, runner, config_type",
        [("pao", engine, "run_pao", PaoConfig), ("de", baselines, "run_de", DeConfig)],
    )
    def test_runner_is_looked_up_at_call_time(self, monkeypatch, opt, module, runner, config_type):
        # a runner replaced in its module after import, as an outside-in
        # tracer does, is the one that runs
        calls = []
        monkeypatch.setattr(module, runner, lambda *args: calls.append(args) or "record")
        problem = make_problem("dejong", 2)
        assert run_one(opt, problem, 8, 3, seed=1) == "record"
        assert len(calls) == 1
        assert calls[0][:3] == (problem, 8, 3) and calls[0][4] == 1
        assert isinstance(calls[0][3], config_type)

    def test_default_pao_config_builds_no_kernel(self, monkeypatch):
        # the default is DEFAULT_PAO, whose kernel was built once at import
        builds = []
        build = engine.build_kernel
        monkeypatch.setattr(engine, "build_kernel", lambda hp: builds.append(hp) or build(hp))
        problem = make_problem("dejong", 2)
        rec = run_one("pao", problem, 10, 2, 0)
        assert builds == []
        assert rec.to_json_dict(False) == run_one("pao", problem, 10, 2, 0, cfg=engine.DEFAULT_PAO).to_json_dict(False)


class TestRunCell:
    def test_one_run_per_seed_in_order(self):
        problem = make_problem("Ackley", 2)
        recs = run_cell("de", problem, 8, 3, [5, 9, 5], DeConfig(cr=0.7))
        assert [r.seed for r in recs] == [5, 9, 5]
        assert [r.run_id for r in recs] == ["de_ackley_2d_r000", "de_ackley_2d_r001", "de_ackley_2d_r002"]
        for rec in recs:
            alone = run_one("de", problem, 8, 3, rec.seed, DeConfig(cr=0.7))
            alone.run_id = rec.run_id
            assert alone.to_json_dict(False) == rec.to_json_dict(False)

    def test_run_one_is_looked_up_at_each_run(self, monkeypatch, tmp_path):
        # a run_one replaced in the harness module, as the benchmark's
        # per-run clock does, sees every run of a cell and of a suite; a
        # suite's runs may happen in worker processes, so the suite half
        # counts them in a file
        seeds = []
        real = harness.run_one

        def counted(optimizer, problem, n, generations, seed, cfg=None):
            seeds.append(seed)
            return real(optimizer, problem, n, generations, seed, cfg)

        monkeypatch.setattr(harness, "run_one", counted)
        assert len(run_cell("pso", make_problem("dejong", 2), 8, 2, [3, 1, 4])) == 3
        assert seeds == [3, 1, 4]

        log = tmp_path / "seeds.txt"

        def logged(optimizer, problem, n, generations, seed, cfg=None):
            with open(log, "a") as fh:
                fh.write(f"{seed}\n")
            return real(optimizer, problem, n, generations, seed, cfg)

        monkeypatch.setattr(harness, "run_one", logged)
        run_suite(tiny_suite(reps=3), tmp_path / "suite")
        records = read_jsonl(tmp_path / "suite/records.jsonl")
        ran = [int(line) for line in log.read_text().split()]
        assert sorted(ran) == sorted(r.seed for r in records)
        cells = {}
        for rec in records:
            cells.setdefault((rec.optimizer, rec.problem), []).append(rec.seed)
        for cell_seeds in cells.values():
            assert [s for s in ran if s in cell_seeds] == cell_seeds


class TestRunSuite:
    def test_outputs_and_ids(self, tmp_path):
        suite = tiny_suite()
        summary = run_suite(suite, tmp_path)
        records = read_jsonl(tmp_path / "records.jsonl")
        assert len(records) == 2 * 2 * 2  # problems x optimizers x reps
        ids = {r.run_id for r in records}
        assert "pao_dejong_2d_r000" in ids and "de_rastrigin_2d_r001" in ids
        for rec in records:
            rec.check()
            assert rec.evals == 8 * 5
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary
        assert len(summary["entries"]) == 4

    def test_each_cell_runs_with_its_optimizers_config(self, tmp_path):
        run_suite(tiny_suite(optimizers=("pso", "de"), de=DeConfig(cr=0.7), reps=1), tmp_path)
        params = {rec.optimizer: rec.params for rec in read_jsonl(tmp_path / "records.jsonl")}
        assert params["de"]["cr"] == 0.7
        assert params["pso"] == asdict(PsoConfig())

    def test_reruns_are_identical_sans_duration(self, tmp_path):
        suite = tiny_suite()
        run_suite(suite, tmp_path / "a")
        run_suite(suite, tmp_path / "b")
        assert sans_duration(tmp_path / "a") == sans_duration(tmp_path / "b")

    def test_pooled_and_in_process_outputs_are_identical(self, monkeypatch, tmp_path):
        suite = tiny_suite(optimizers=("pao", "pso", "qpso", "de", "sade"),
                           problems=(("griewangk", 2), ("rastrigin", 3)))
        for cpus, out in (({0, 1}, "pooled"), ({0}, "alone")):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert harness.cell_processes(10) == len(cpus)
            run_suite(suite, tmp_path / out)
        assert sans_duration(tmp_path / "pooled") == sans_duration(tmp_path / "alone")
        assert (tmp_path / "pooled/summary.json").read_bytes() == (tmp_path / "alone/summary.json").read_bytes()

    def test_cells_run_in_workers(self, monkeypatch, tmp_path):
        log = tmp_path / "pids.txt"
        real = harness.run_one

        def logged(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(harness, "run_one", logged)
        run_suite(tiny_suite(), tmp_path / "suite")
        pids = set(log.read_text().split())
        assert str(os.getpid()) not in pids and 1 <= len(pids) <= 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}])
    def test_a_failing_run_reaches_the_caller(self, monkeypatch, tmp_path, cpus):
        suite = tiny_suite()
        bad = derive_seed(suite.base_seed, 1, 0, 1)  # de on dejong, repetition 1
        real = harness.run_one

        def failing(optimizer, problem, n, generations, seed, cfg=None):
            if seed == bad:
                raise ObjectiveEvaluationError(f"objective failed at seed {seed}")
            return real(optimizer, problem, n, generations, seed, cfg)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(harness, "run_one", failing)
        with pytest.raises(ObjectiveEvaluationError, match=f"^objective failed at seed {bad}$"):
            run_suite(suite, tmp_path)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "records.jsonl").exists()

    def test_import_pao_loads_no_multiprocessing(self):
        # run_suite imports it only when it starts a pool
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harness.__file__)))
        code = "import sys, pao; sys.exit('multiprocessing' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_summary_statistics(self, tmp_path):
        suite = tiny_suite(reps=3, optimizers=("de",), problems=(("dejong", 2),))
        summary = run_suite(suite, tmp_path)
        finals = [r.final_shifted_best() for r in read_jsonl(tmp_path / "records.jsonl")]
        entry = summary["entries"][0]
        assert entry["runs"] == 3
        assert entry["median"] == pytest.approx(float(np.median(finals)))
        assert entry["mean"] == pytest.approx(float(np.mean(finals)))


class TestAggregation:
    def run_records(self, tmp_path):
        run_suite(tiny_suite(), tmp_path)
        return read_jsonl(tmp_path / "records.jsonl")

    def test_curve_shape(self, tmp_path):
        records = self.run_records(tmp_path)
        curves = aggregate_convergence(records)
        assert set(curves) == {
            (opt, prob, 2) for opt in ("pao", "de") for prob in ("dejong", "rastrigin")
        }
        assert all(set(curve) == {"generation", "mean"} for curve in curves.values())
        curve = curves[("pao", "dejong", 2)]
        assert curve["generation"] == [0, 1, 2, 3, 4]
        assert len(curve["mean"]) == 5

    def test_permutation_invariance(self, tmp_path):
        records = self.run_records(tmp_path)
        shuffled = records[:]
        random.Random(3).shuffle(shuffled)
        a = aggregate_convergence(records)
        b = aggregate_convergence(shuffled)
        for key in a:
            assert a[key] == b[key]

    def test_mean_is_run_average(self, tmp_path):
        records = self.run_records(tmp_path)
        curves = aggregate_convergence(records)
        group = [r for r in records if r.optimizer == "pao" and r.problem == "dejong"]
        expected = np.mean([[h["shifted_best"] for h in r.history] for r in group], axis=0)
        np.testing.assert_allclose(curves[("pao", "dejong", 2)]["mean"], expected)

    def test_mismatched_horizons_rejected(self, tmp_path):
        records = self.run_records(tmp_path)
        short = run_one("de", make_problem("dejong", 2), 8, 2, seed=0)
        short.run_id = "de_dejong_2d_r099"
        with pytest.raises(ValueError, match="horizons"):
            aggregate_convergence(records + [short])

    def test_no_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            aggregate_convergence([])


class TestPlotData:
    def test_csv_layout_and_precision(self, tmp_path):
        run_suite(tiny_suite(), tmp_path / "suite")
        records = read_jsonl(tmp_path / "suite/records.jsonl")
        curves = aggregate_convergence(records)
        paths = emit_plot_data(curves, tmp_path / "csv")
        assert sorted(p.split("/")[-1] for p in paths) == ["dejong_2d.csv", "rastrigin_2d.csv"]
        lines = (tmp_path / "csv/dejong_2d.csv").read_text().strip().split("\n")
        assert lines[0] == "generation,pao,de"
        assert len(lines) == 6  # header + gens 0..4
        # repr round trip: parsed floats match the aggregated means exactly
        for g, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == g
            assert float(cells[1]) == curves[("pao", "dejong", 2)]["mean"][g]
            assert float(cells[2]) == curves[("de", "dejong", 2)]["mean"][g]


class TestFormatSummary:
    def test_table_contents(self, tmp_path):
        summary = run_suite(tiny_suite(), tmp_path)
        text = format_summary(summary)
        assert "problem" in text.splitlines()[0]
        assert text.count("dejong") == 2  # one row per optimizer
        assert "pao" in text and "de" in text
