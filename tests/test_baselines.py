"""Baseline optimiser tests: the shared run contract across PSO, QPSO, DE
and SADE, plus algorithm-specific behaviour."""

import json
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from pao.baselines import (
    DeConfig,
    PsoConfig,
    QpsoConfig,
    SadeConfig,
    _de_trials,
    run_de,
    run_pso,
    run_qpso,
    run_sade,
)
from pao.benchmarks import make_problem
from pao.engine import drive, update_archive

from support import CountingProblem
from test_attractors import reference_draw_donors

RUNNERS = [
    ("pso", run_pso, PsoConfig()),
    ("qpso", run_qpso, QpsoConfig()),
    ("de", run_de, DeConfig()),
    ("sade", run_sade, SadeConfig()),
]


@pytest.mark.parametrize("name,runner,cfg", RUNNERS)
class TestRunContract:
    def test_record_shape(self, name, runner, cfg):
        problem = make_problem("rastrigin", 2)
        rec = runner(problem, 12, 15, cfg, seed=3)
        rec.check()
        assert rec.optimizer == name
        assert rec.pop == 12 and rec.gens == 15
        assert rec.evals == 12 * 16
        assert len(rec.history) == 16
        assert rec.params  # actual hyperparameters recorded

    def test_bitwise_reproducibility(self, name, runner, cfg):
        problem = make_problem("griewangk", 2)
        r1 = runner(problem, 10, 20, cfg, seed=7)
        r2 = runner(problem, 10, 20, cfg, seed=7)
        assert r1.history == r2.history

    def test_seeds_differ(self, name, runner, cfg):
        problem = make_problem("griewangk", 2)
        assert runner(problem, 10, 20, cfg, seed=1).history != runner(
            problem, 10, 20, cfg, seed=2
        ).history

    def test_evaluation_accounting(self, name, runner, cfg):
        problem = CountingProblem(make_problem("ackley", 2))
        rec = runner(problem, 9, 11, cfg, seed=0)
        assert problem.rows == 9 * 12 == rec.evals

    def test_best_position_in_box(self, name, runner, cfg):
        problem = make_problem("schwefel", 2)
        rec = runner(problem, 10, 25, cfg, seed=5)
        final = rec.best_pos[-1]
        assert np.all(final >= problem.lower) and np.all(final <= problem.upper)

    def test_zero_generations(self, name, runner, cfg):
        problem = make_problem("dejong", 2)
        rec = runner(problem, 8, 0, cfg, seed=0)
        rec.check()
        assert rec.evals == 8

    def test_converges_on_sphere(self, name, runner, cfg):
        rec = runner(make_problem("dejong", 2), 40, 80, cfg, seed=11)
        assert rec.final_best() < 1e-2


# Reference move rules: one rng.uniform call per random array, np.clip, and
# the donor draw with one call per pick.  Each optimiser's draws (their order
# and shapes) are part of its records, so run_* must reproduce these draw for
# draw and bit for bit.


def _reference_schedule(start, end, swarm, generations):
    return start + (end - start) * (swarm.generation / max(generations - 1, 1))


def reference_run_pso(problem, n, generations, cfg, seed):
    vmax = cfg.vmax_frac * (problem.upper - problem.lower)

    def move(swarm, rng):
        w = _reference_schedule(cfg.w_start, cfg.w_end, swarm, generations)
        pos, vel = swarm.positions, swarm.velocities
        r1 = rng.uniform(size=pos.shape)
        r2 = rng.uniform(size=pos.shape)
        vel = w * vel + cfg.c1 * r1 * (swarm.local_best_pos - pos) + cfg.c2 * r2 * (swarm.global_best_pos - pos)
        vel = np.clip(vel, -vmax, vmax)
        pos = np.clip(pos + vel, problem.lower, problem.upper)
        return update_archive(swarm, pos, vel, problem)[0]

    return drive("pso", problem, n, generations, seed, asdict(cfg), move)


def reference_run_qpso(problem, n, generations, cfg, seed):
    def move(swarm, rng):
        alpha = _reference_schedule(cfg.alpha_start, cfg.alpha_end, swarm, generations)
        pos, pbest = swarm.positions, swarm.local_best_pos
        mbest = pbest.mean(axis=0)
        phi = rng.uniform(size=pos.shape)
        attract = phi * pbest + (1.0 - phi) * swarm.global_best_pos
        u = np.maximum(rng.uniform(size=pos.shape), 1e-300)
        sign = np.where(rng.uniform(size=pos.shape) < 0.5, -1.0, 1.0)
        pos = attract + sign * alpha * np.abs(mbest - pos) * np.log(1.0 / u)
        pos = np.clip(pos, problem.lower, problem.upper)
        return update_archive(swarm, pos, swarm.velocities, problem)[0]

    return drive("qpso", problem, n, generations, seed, asdict(cfg), move)


def _reference_trials(problem, swarm, fs, crs, rng, rand1=None):
    pos = swarm.positions
    n, d = pos.shape
    fs, crs = (np.reshape(v, (-1, 1)) for v in (fs, crs))
    p = pos[reference_draw_donors(n, 3 if rand1 is None else 4, rng)]
    donors = p[:, 0] + fs * (p[:, 1] - p[:, 2])
    if rand1 is not None:
        best = pos[int(np.argmin(swarm.fitness))]
        to_best = pos + fs * (best - pos) + fs * (p[:, 0] - p[:, 1]) + fs * (p[:, 2] - p[:, 3])
        donors = np.where(rand1[:, None], donors, to_best)
    cross = rng.uniform(size=(n, d)) < crs
    cross[np.arange(n), rng.integers(d, size=n)] = True
    return np.clip(np.where(cross, donors, pos), problem.lower, problem.upper)


def reference_run_de(problem, n, generations, cfg, seed):
    def move(swarm, rng):
        trials = _reference_trials(problem, swarm, cfg.f_de, cfg.cr, rng)
        return update_archive(swarm, trials, swarm.velocities, problem, greedy=True)[0]

    return drive("de", problem, n, generations, seed, asdict(cfg), move)


def reference_run_sade(problem, n, generations, cfg, seed):
    state = {"p_rand1": 0.5, "ns": np.zeros(2), "nf": np.zeros(2)}

    def move(swarm, rng):
        ns, nf = state["ns"], state["nf"]
        use_rand1 = rng.uniform(size=n) < state["p_rand1"]
        crs = np.clip(rng.normal(cfg.cr_mean, cfg.cr_std, size=n), 0.0, 1.0)
        fs = rng.normal(cfg.f_mean, cfg.f_std, size=n)
        trials = _reference_trials(problem, swarm, fs, crs, rng, use_rand1)
        swarm, take = update_archive(swarm, trials, swarm.velocities, problem, greedy=True)
        for s, used in enumerate((use_rand1, ~use_rand1)):
            ns[s] += np.count_nonzero(take & used)
            nf[s] += np.count_nonzero(~take & used)
        if swarm.generation % cfg.learning_period == 0:
            denom = ns[0] * (ns[1] + nf[1]) + ns[1] * (ns[0] + nf[0])
            if denom > 0:
                state["p_rand1"] = ns[0] * (ns[1] + nf[1]) / denom
            ns[:] = 0.0
            nf[:] = 0.0
        return swarm

    return drive("sade", problem, n, generations, seed, asdict(cfg), move)


@pytest.mark.parametrize(
    "runner, reference, cfg",
    [(run_pso, reference_run_pso, PsoConfig()),
     (run_qpso, reference_run_qpso, QpsoConfig()),
     (run_de, reference_run_de, DeConfig()),
     (run_sade, reference_run_sade, SadeConfig())],
    ids=["pso", "qpso", "de", "sade"],
)
@pytest.mark.parametrize("problem", ["rastrigin", "schwefel"])
@pytest.mark.parametrize("dim", [2, 8])
def test_runs_match_the_reference_move_rules(runner, reference, cfg, problem, dim):
    problem = make_problem(problem, dim)
    for seed in range(3):
        got, want = (run(problem, 30, 40, cfg, seed) for run in (runner, reference))
        assert json.dumps(got.to_json_dict(include_duration=False)) == json.dumps(
            want.to_json_dict(include_duration=False)
        )
        assert b"".join(p.tobytes() for p in got.best_pos) == b"".join(p.tobytes() for p in want.best_pos)


class TestConfigs:
    @pytest.mark.parametrize(
        "runner, given, default",
        [(run_pso, PsoConfig(c1=2, vmax_frac=np.float64(0.5)), PsoConfig()),
         (run_qpso, QpsoConfig(alpha_start=1), QpsoConfig()),
         (run_sade, SadeConfig(learning_period=10.0, f_mean=np.float32(0.5)), SadeConfig())],
    )
    def test_numbers_are_stored_as_the_defaults_are(self, runner, given, default):
        # so a record of an equal config writes the same bytes
        problem = make_problem("dejong", 2)
        first, again = (runner(problem, 6, 2, cfg, seed=1).to_json_dict(include_duration=False) for cfg in (given, default))
        assert json.dumps(first) == json.dumps(again)


class TestPopulationFloors:
    def test_de_needs_four(self):
        with pytest.raises(ValueError, match="at least 4"):
            run_de(make_problem("dejong", 2), 3, 5, DeConfig(), seed=0)

    def test_sade_needs_five(self):
        with pytest.raises(ValueError, match="at least 5"):
            run_sade(make_problem("dejong", 2), 4, 5, SadeConfig(), seed=0)

    def test_floors_run(self):
        # DE draws three donors and SADE four, so each runs at its floor
        run_de(make_problem("rastrigin", 3), 4, 20, DeConfig(), seed=0).check()
        run_sade(make_problem("rastrigin", 3), 5, 20, SadeConfig(), seed=0).check()


class TestDeBehaviour:
    def test_greedy_selection_keeps_population_mean_monotone(self):
        # per-individual greedy replacement can only lower each fitness,
        # so the population mean in the history never increases
        for runner, cfg in [(run_de, DeConfig()), (run_sade, SadeConfig())]:
            rec = runner(make_problem("rastrigin", 3), 15, 30, cfg, seed=9)
            means = [h["mean"] for h in rec.history]
            assert all(m2 <= m1 + 1e-12 for m1, m2 in zip(means, means[1:]))

    @staticmethod
    def crossed(crs, rand1=None):
        # which trial coordinates came from the donor: with distinct random
        # positions a donor coordinate equals its target's only by accident
        problem = make_problem("dejong", 6)
        rng = np.random.default_rng(0)
        pos = rng.uniform(-1.0, 1.0, size=(40, 6))
        swarm = SimpleNamespace(positions=pos, fitness=problem.evaluate(pos))
        return _de_trials(problem, swarm, 0.5, crs, rng, rand1) != pos

    RAND1 = (None, np.arange(40) % 3 == 0)

    def test_crossover_cr_zero_takes_one_donor_coordinate(self):
        for rand1 in self.RAND1:
            np.testing.assert_array_equal(self.crossed(0.0, rand1).sum(axis=1), 1)

    def test_crossover_cr_one_takes_every_donor_coordinate(self):
        for rand1 in self.RAND1:
            assert self.crossed(1.0, rand1).all()

    def test_crossover_honours_per_row_cr(self):
        crs = np.tile([0.0, 1.0, 0.5], 14)[:40]
        counts = self.crossed(crs, self.RAND1[1]).sum(axis=1)
        np.testing.assert_array_equal(counts[0::3], 1)
        np.testing.assert_array_equal(counts[1::3], 6)
        assert 2.0 < counts[2::3].mean() < 5.0


class TestPsoBehaviour:
    def test_positions_always_clipped(self):
        problem = make_problem("rosenbrock", 2)
        rec = run_pso(problem, 20, 30, PsoConfig(), seed=2)
        for pos in rec.best_pos:
            assert np.all(pos >= problem.lower) and np.all(pos <= problem.upper)

    def test_inertia_schedule_endpoints_used(self):
        # one-generation run hits w_start only; must not divide by zero
        rec = run_pso(make_problem("dejong", 2), 10, 1, PsoConfig(), seed=0)
        rec.check()


class TestQpsoBehaviour:
    def test_single_generation(self):
        rec = run_qpso(make_problem("dejong", 2), 10, 1, QpsoConfig(), seed=0)
        rec.check()

    def test_contracts_toward_best_late(self):
        rec = run_qpso(make_problem("dejong", 2), 30, 60, QpsoConfig(), seed=3)
        early = rec.history[5]["best"]
        late = rec.history[-1]["best"]
        assert late < early
