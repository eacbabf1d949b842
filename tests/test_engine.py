"""Optimiser engine tests: bounds policies, swarm initialisation, the
generation step contract and end-to-end run reproducibility."""

import json
import pickle
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pao import baselines, engine
from pao.attractors import AttractorSpec, compute_attractors, noise_scale, weighted_centroid
from pao.baselines import PsoConfig
from pao.benchmarks import make_problem
from pao.engine import (
    VELOCITY_INITS,
    ObjectiveEvaluationError,
    PaoConfig,
    Swarm,
    apply_bounds,
    evaluate_population,
    initialize_swarm,
    run_pao,
    step_swarm,
    update_archive,
)
from pao.harness import OPTIMIZER_IDS, run_one
from pao.kernel import Hyperparams, build_kernel, transition_logpdf
from pao.records import read_jsonl, write_jsonl

from support import RUNNERS, CountingProblem


def stacked(swarm):
    """The swarm's (N, D, 2) position/velocity state."""
    return np.stack((swarm.positions, swarm.velocities), -1)


class TestConfig:
    def test_defaults(self):
        cfg = PaoConfig()
        assert [s.kind for s in cfg.specs] == ["localbest", "globalbest"]
        assert cfg.hp.k == (1.0, 1.0)
        assert cfg.bounds_policy == "clip"

    def test_spec_stiffness_length_mismatch(self):
        with pytest.raises(ValueError, match="stiffnesses"):
            PaoConfig(hp=Hyperparams(k=(1.0,)), specs=(AttractorSpec("localbest"), AttractorSpec("globalbest")))

    def test_bad_policy_names(self):
        with pytest.raises(ValueError, match="bounds_policy"):
            PaoConfig(bounds_policy="wrap")
        with pytest.raises(ValueError, match="velocity_init"):
            PaoConfig(velocity_init="random")

    @pytest.mark.parametrize(
        "kwargs, error",
        [(dict(hp={"m": 1.0}), "hp must be a Hyperparams, got {'m': 1.0}"),
         # at a run these failed inside the step, and in a suite inside its checks
         (dict(specs=("globalbest", "localbest")), "specs must be AttractorSpecs, got 'globalbest'"),
         (dict(specs=(AttractorSpec("globalbest"), None)), "specs must be AttractorSpecs, got None"),
         (dict(specs=5), "specs must be a sequence, got 5"),
         (dict(specs="globalbest"), "specs must be a sequence, got 'globalbest'")],
    )
    def test_rejects_parts_of_another_type(self, kwargs, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            PaoConfig(**kwargs)

    def test_kernel_is_the_kernel_of_hp(self):
        cfg = PaoConfig()
        assert cfg.kernel == build_kernel(Hyperparams())
        assert "kernel" not in repr(cfg)
        hp = Hyperparams(m=0.7, zeta=0.4, dt=0.8)
        replaced = replace(cfg, hp=hp)
        assert replaced.kernel == build_kernel(hp) != cfg.kernel
        assert replaced.kernel.sigma_unit.tobytes() == build_kernel(hp).sigma_unit.tobytes()

    def test_a_pickled_config_rebuilds_its_kernel(self):
        # a suite sends its configs to worker processes
        cfg = PaoConfig(hp=Hyperparams(m=0.7, zeta=0.4, dt=0.8))
        got = pickle.loads(pickle.dumps(cfg))
        assert got == cfg and got.kernel == cfg.kernel
        assert got.kernel.a.tobytes() == cfg.kernel.a.tobytes() and not got.kernel.a.flags.writeable

    def test_rejects_a_kernel_that_cannot_be_built(self):
        # undamped over a long interval: such a config used to be made, and
        # its run printed four overflow warnings before it failed
        hp = Hyperparams(zeta=0.0, dt=1e20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"A and Sigma of {hp} are not finite")):
                PaoConfig(hp=hp)

    def test_params_dict_round_trips_labels(self):
        cfg = PaoConfig(
            hp=Hyperparams(k=(1.0, 0.5)),
            specs=(AttractorSpec("globalbest"), AttractorSpec("stochasticgaussian", 0.5)),
        )
        params = cfg.params_dict()
        assert params["attractors"] == ["globalbest", "stochasticgaussian:0.5"]
        assert params["k"] == [1.0, 0.5]

    def test_params_keys_are_the_hyperparams_fields_then_the_menu_and_policies(self):
        keys = [f.name for f in fields(Hyperparams)] + ["attractors", "bounds_policy", "velocity_init"]
        assert list(PaoConfig().params_dict()) == keys

    def test_params_round_trip_non_default_hyperparams(self):
        cfg = PaoConfig(hp=Hyperparams(m=2.5, zeta=0.7, k=(0.25, 3.0), q0=0.125, dt=0.5))
        assert PaoConfig.from_params(cfg.params_dict()) == cfg

    def test_from_params_defaults(self):
        assert PaoConfig.from_params({}) == PaoConfig()
        one = PaoConfig.from_params({"attractors": ["globalbest"], "zeta": 0.4})
        assert one.hp == Hyperparams(zeta=0.4, k=(1.0,))

    @pytest.mark.parametrize(
        "params, match",
        [({"k": 2.0}, "k must be a sequence, got 2.0"),
         ({"attractors": "globalbest"}, "attractors must be a sequence, got 'globalbest'"),
         ({"zeta_": 0.5}, r"unknown PAO keys \['zeta_'\]"),
         # float() would take a bool or a numeric string for a number; only
         # k takes numeric strings, which its comma form "1,2" gives
         ({"zeta": True}, "zeta: True is not a number"),
         ({"q0": "1e-3"}, "q0: '1e-3' is not a number"),
         ({"m": None}, "m: None is not a number"),
         ({"dt": [1.0]}, r"dt: \[1.0\] is not a number"),
         ({"k": [True, 1]}, "k: True is not a number"),
         ({"k": [1.0, None]}, "k: None is not a number"),
         ({"k": ["1", "two"]}, "k: 'two' is not a number"),
         # each attractor entry is a spec string, and a bad one is named
         ({"attractors": [1]}, "attractor spec must be a string, got 1"),
         ({"attractors": ["globalbest", None]}, "attractor spec must be a string, got None"),
         ({"attractors": ["stochasticgaussian:abc"]}, "attractor spec 'stochasticgaussian:abc': 'abc' is not a number"),
         ({"attractors": ["stochasticgaussian: 1e "]}, "attractor spec 'stochasticgaussian: 1e ': '1e' is not a number")],
    )
    def test_from_params_rejects(self, params, match):
        with pytest.raises(ValueError, match=match):
            PaoConfig.from_params(params)

    @pytest.mark.parametrize("hp", [Hyperparams(m=2), Hyperparams(zeta=1, k=(1, 2), q0=0, dt=1)])
    def test_integer_hyperparameters_survive_the_record_round_trip(self, hp):
        problem = make_problem("rastrigin", 2)
        first = run_pao(problem, 6, 2, PaoConfig(hp=hp), seed=3)
        again = run_pao(problem, 6, 2, PaoConfig.from_params(first.params), seed=3)
        assert json.dumps(first.to_json_dict(include_duration=False)) == json.dumps(
            again.to_json_dict(include_duration=False)
        )


    @pytest.mark.parametrize("stddev", [1, 0.5])
    def test_stochastic_stddev_survives_the_record_round_trip(self, stddev):
        cfg = PaoConfig(specs=(AttractorSpec("globalbest"), AttractorSpec("stochasticgaussian", stddev)))
        assert cfg.params_dict()["attractors"][1] == f"stochasticgaussian:{float(stddev)}"
        problem = make_problem("rastrigin", 2)
        first = run_pao(problem, 6, 2, cfg, seed=3)
        again = run_pao(problem, 6, 2, PaoConfig.from_params(first.params), seed=3)
        assert json.dumps(first.to_json_dict(include_duration=False)) == json.dumps(
            again.to_json_dict(include_duration=False)
        )


def reference_reflect(pos, vel, lower, upper):
    """The reflect pass with no shortcut for a swarm inside the box."""
    out = (pos < lower) | (pos > upper)
    span = upper - lower
    y = np.mod(pos - lower, 2.0 * span)
    folded = np.minimum(lower + np.where(y <= span, y, 2.0 * span - y), upper)
    return np.where(out, folded, pos), np.where(out, -vel, vel)


class TestBounds:
    lower = np.array([-1.0, 0.0])
    upper = np.array([1.0, 4.0])

    def test_none_passthrough(self):
        pos = np.array([[5.0, -3.0]])
        vel = np.array([[1.0, 1.0]])
        p, v = apply_bounds(pos, vel, self.lower, self.upper, "none")
        np.testing.assert_array_equal(p, pos)
        np.testing.assert_array_equal(v, vel)

    def test_clip(self):
        pos = np.array([[5.0, -3.0], [0.5, 2.0]])
        vel = np.zeros((2, 2))
        p, _ = apply_bounds(pos, vel, self.lower, self.upper, "clip")
        np.testing.assert_array_equal(p, [[1.0, 0.0], [0.5, 2.0]])

    def test_reflect_mirrors(self):
        pos = np.array([[1.3, -0.5]])
        vel = np.array([[2.0, -1.0]])
        p, v = apply_bounds(pos, vel, self.lower, self.upper, "reflect")
        np.testing.assert_allclose(p, [[0.7, 0.5]])
        np.testing.assert_array_equal(v, [[-2.0, 1.0]])

    def test_reflect_keeps_interior_untouched(self):
        pos = np.array([[0.2, 3.9]])
        vel = np.array([[1.0, 1.0]])
        p, v = apply_bounds(pos, vel, self.lower, self.upper, "reflect")
        np.testing.assert_array_equal(p, pos)
        np.testing.assert_array_equal(v, vel)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_reflect_always_lands_inside(self, seed):
        # even far-out points (several box widths away) fold back in
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-30, 30, size=(16, 2))
        vel = rng.normal(size=(16, 2))
        p, _ = apply_bounds(pos, vel, self.lower, self.upper, "reflect")
        assert np.all(p >= self.lower - 1e-12)
        assert np.all(p <= self.upper + 1e-12)

    @pytest.mark.parametrize("inside", [True, False])
    def test_unknown_policy_rejected(self, inside):
        # a policy PaoConfig would refuse is refused on a direct call too,
        # also for a swarm that reflect would return as it is
        pos = np.array([[0.5, 2.0]]) if inside else np.array([[5.0, -3.0]])
        with pytest.raises(ValueError, match="bounds policy must be one of .*got 'clamp'"):
            apply_bounds(pos, np.zeros_like(pos), self.lower, self.upper, "clamp")

    def test_reflect_lands_inside_where_the_rounded_fold_overshoots(self):
        # lower + (pos - lower) rounds to 2**-52, one ulp above this upper
        lower, upper = np.array([-1.0]), np.array([1.5 * 2.0**-53])
        pos = np.array([[2.0**-52]])
        p, v = apply_bounds(pos, np.ones_like(pos), lower, upper, "reflect")
        assert lower[0] <= p[0, 0] <= upper[0]
        np.testing.assert_array_equal(v, [[-1.0]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_reflect_matches_the_full_pass(self, seed):
        # an in-box swarm comes back as it was, and one element outside is
        # folded as the pass that folds every swarm folds it, bit for bit
        rng = np.random.default_rng(seed)
        pos = rng.uniform(self.lower, self.upper, size=(16, 2))
        vel = rng.normal(size=(16, 2))
        p, v = apply_bounds(pos, vel, self.lower, self.upper, "reflect")
        assert p.tobytes() == pos.tobytes() and v.tobytes() == vel.tobytes()
        pos[rng.integers(16), rng.integers(2)] = rng.choice([-1.0, 1.0]) * rng.uniform(4.5, 30.0)
        got = apply_bounds(pos, vel, self.lower, self.upper, "reflect")
        want = reference_reflect(pos, vel, self.lower, self.upper)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert (got[0] != pos).sum() == 1 and (got[1] != vel).sum() == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_reflect_velocity_sign(self, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-10, 10, size=(8, 2))
        vel = rng.normal(size=(8, 2))
        _, v = apply_bounds(pos, vel, self.lower, self.upper, "reflect")
        out = (pos < self.lower) | (pos > self.upper)
        np.testing.assert_array_equal(v[out], -vel[out])
        np.testing.assert_array_equal(v[~out], vel[~out])


class TestInitialize:
    def test_positions_in_box_velocities_zero(self):
        problem = make_problem("ackley", 3)
        swarm = initialize_swarm(problem, 50, PaoConfig(), np.random.default_rng(0))
        assert swarm.positions.shape == swarm.velocities.shape == (50, 3)
        assert np.all(swarm.positions >= problem.lower)
        assert np.all(swarm.positions <= problem.upper)
        np.testing.assert_array_equal(swarm.velocities, 0.0)
        np.testing.assert_array_equal(swarm.local_best_pos, swarm.positions)
        b = np.argmin(swarm.fitness)
        assert swarm.global_best_fit == swarm.fitness[b]
        np.testing.assert_array_equal(swarm.global_best_pos, swarm.positions[b])

    def test_uniform_scaled_velocities(self):
        problem = make_problem("dejong", 2)  # box +-5.12
        cfg = PaoConfig(hp=Hyperparams(dt=0.5), velocity_init="uniform-scaled")
        swarm = initialize_swarm(problem, 400, cfg, np.random.default_rng(1))
        v_half = 10.24 / (2.0 * 0.5)
        assert np.all(np.abs(swarm.velocities) <= v_half)
        assert np.abs(swarm.velocities).max() > 0.5 * v_half  # actually spread out

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError, match="population"):
            initialize_swarm(make_problem("dejong", 2), 0, PaoConfig(), np.random.default_rng(0))

    @staticmethod
    def reference_start(problem, n, rng, v_half=None):
        """The start built by hand: one evaluation, argmin and copies."""
        d = problem.dim
        pos = rng.uniform(problem.lower, problem.upper, size=(n, d))
        vel = np.zeros((n, d)) if v_half is None else rng.uniform(-v_half, v_half, size=(n, d))
        fitness = np.asarray(problem.evaluate(pos), dtype=float)
        best = int(np.argmin(fitness))
        return Swarm(
            positions=pos, velocities=vel, fitness=fitness, local_best_pos=pos.copy(),
            local_best_fit=fitness.copy(), global_best_pos=pos[best].copy(), global_best_fit=float(fitness[best]),
        )

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("velocity_init", VELOCITY_INITS)
    def test_start_is_the_hand_built_start_byte_for_byte(self, n, velocity_init):
        problem = make_problem("rastrigin", 3)
        cfg = PaoConfig(hp=Hyperparams(dt=0.5), velocity_init=velocity_init)
        v_half = None if velocity_init == "zero" else (problem.upper - problem.lower) / (2.0 * cfg.hp.dt)
        want = self.reference_start(problem, n, np.random.default_rng(11), v_half)
        for got in (
            engine._start_swarm(problem, n, np.random.default_rng(11), v_half),
            initialize_swarm(problem, n, cfg, np.random.default_rng(11)),
        ):
            for f in ("positions", "velocities", "fitness", "local_best_pos", "local_best_fit", "global_best_pos"):
                a, b = getattr(got, f), getattr(want, f)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f
            assert type(got.global_best_fit) is float
            assert got.global_best_fit.hex() == want.global_best_fit.hex()
            assert got.generation == want.generation == 0


class TestEvaluatePopulation:
    def test_non_finite_raises(self):
        problem = make_problem("dejong", 2)
        bad = CountingProblem(problem)
        bad.evaluate = lambda xs: np.full(np.asarray(xs).shape[0], np.nan)
        with pytest.raises(ObjectiveEvaluationError, match="non-finite"):
            evaluate_population(bad, np.zeros((3, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_names_the_first_non_finite_point(self, value, row):
        positions = np.arange(10.0).reshape(5, 2)
        fit = np.arange(5.0)
        fit[row] = value
        fit[4] = np.nan  # a later bad point must not be the one named
        bad = CountingProblem(make_problem("dejong", 2))
        bad.evaluate = lambda xs: fit
        with pytest.raises(ObjectiveEvaluationError, match=re.escape(str(positions[row]))):
            evaluate_population(bad, positions)

    def test_a_non_finite_position_is_not_blamed_on_the_objective(self):
        positions = np.array([[0.0, 1.0], [np.nan, 5.12], [np.inf, 0.0]])
        want = f"^trial position {re.escape(str(positions[1]))} is not finite, so objective 'dejong' was not at fault$"
        with pytest.raises(ObjectiveEvaluationError, match=want):
            evaluate_population(make_problem("dejong", 2), positions)

    def test_a_move_that_overflows_is_not_blamed_on_the_objective(self):
        # the attractor overflows to +-inf, and the kernel's product turns
        # inf * 0 into NaN
        cfg = PaoConfig(specs=(AttractorSpec("stochasticgaussian", stddev=1e308), AttractorSpec("globalbest")))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ObjectiveEvaluationError, match="^trial position .* is not finite, so objective 'dejong' was not at fault$"
        ):
            run_pao(make_problem("dejong", 2), 10, 3, cfg, 0)

    def test_finite_values_whose_sum_overflows_pass(self):
        big = CountingProblem(make_problem("dejong", 2))
        big.evaluate = lambda xs: np.array([1e308, 1e308])
        np.testing.assert_array_equal(evaluate_population(big, np.zeros((2, 2))), [1e308, 1e308])


class TestUpdateArchive:
    def swarm(self):
        far = np.full(2, 1e9)
        return Swarm(
            positions=np.zeros((2, 2)), velocities=np.zeros((2, 2)), fitness=far,
            local_best_pos=np.zeros((2, 2)), local_best_fit=far,
            global_best_pos=np.zeros(2), global_best_fit=1e9,
        )

    def test_box_test_keeps_out_of_box_trials_out(self):
        # dejong's box is +-5.12: trial 0 lies outside it yet improves on 1e9
        problem = make_problem("dejong", 2)
        trials = np.array([[6.0, 0.0], [1.0, 1.0]])
        out, improved = update_archive(self.swarm(), trials, np.zeros((2, 2)), problem, may_leave_box=True)
        np.testing.assert_array_equal(improved, [False, True])
        np.testing.assert_array_equal(out.local_best_pos, [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(out.local_best_fit, [1e9, 2.0])
        assert out.global_best_fit == 2.0
        np.testing.assert_array_equal(out.global_best_pos, [1.0, 1.0])
        # a caller that does not ask for the test gets none
        _, improved = update_archive(self.swarm(), trials, np.zeros((2, 2)), problem)
        np.testing.assert_array_equal(improved, [True, True])

    @pytest.mark.parametrize("policy, asked", [("none", True), ("clip", False), ("reflect", False)])
    def test_step_asks_for_the_box_test_only_without_bounds(self, monkeypatch, policy, asked):
        seen = []
        archive = engine.update_archive

        def watched(*args, **kwargs):
            seen.append(kwargs.get("may_leave_box", False))
            return archive(*args, **kwargs)

        monkeypatch.setattr(engine, "update_archive", watched)
        run_pao(make_problem("rastrigin", 2), 8, 3, PaoConfig(bounds_policy=policy), seed=0)
        # the start draws inside the box, so its fold never asks
        assert seen == [False] + [asked] * 3

    @pytest.mark.parametrize("optimizer", OPTIMIZER_IDS)
    def test_every_evaluation_of_a_run_is_folded(self, monkeypatch, optimizer):
        problem = CountingProblem(make_problem("rastrigin", 3))
        archive = engine.update_archive
        rows = []

        def watched(*args, **kwargs):
            before = problem.rows
            out = archive(*args, **kwargs)
            rows.append(problem.rows - before)
            return out

        monkeypatch.setattr(engine, "update_archive", watched)
        monkeypatch.setattr(baselines, "update_archive", watched)
        runner, cfg = RUNNERS[optimizer]
        rec = runner(problem, 12, 5, cfg, 7)
        # the start's fold, then one per generation, each evaluating n rows
        assert rows == [12] * 6
        assert problem.rows == 12 * 6 == rec.evals


class TestStep:
    def make(self, n=12, seed=3, cfg=None):
        problem = make_problem("rastrigin", 2)
        cfg = cfg or PaoConfig()
        rng = np.random.default_rng(seed)
        swarm = initialize_swarm(problem, n, cfg, rng)
        return problem, cfg, swarm, rng

    def test_generation_and_archive_monotonicity(self):
        problem, cfg, swarm, rng = self.make()
        for g in range(1, 6):
            prev_local = swarm.local_best_fit.copy()
            prev_global = swarm.global_best_fit
            swarm = step_swarm(swarm, cfg, problem, rng)
            assert swarm.generation == g
            assert np.all(swarm.local_best_fit <= prev_local)
            assert swarm.global_best_fit <= prev_global
            assert swarm.global_best_fit == swarm.local_best_fit.min()

    def test_positions_respect_clip(self):
        problem, cfg, swarm, rng = self.make()
        for _ in range(5):
            swarm = step_swarm(swarm, cfg, problem, rng)
            assert np.all(swarm.positions >= problem.lower)
            assert np.all(swarm.positions <= problem.upper)

    def test_fitness_matches_positions(self):
        problem, cfg, swarm, rng = self.make()
        swarm = step_swarm(swarm, cfg, problem, rng)
        np.testing.assert_array_equal(swarm.fitness, problem.evaluate(swarm.positions))

    def test_zero_noise_step_ignores_rng(self):
        cfg = PaoConfig(hp=Hyperparams(q0=0.0))
        problem, cfg, swarm, _ = self.make(cfg=cfg)
        s1 = step_swarm(swarm, cfg, problem, np.random.default_rng(111))
        s2 = step_swarm(swarm, cfg, problem, np.random.default_rng(999))
        np.testing.assert_array_equal(stacked(s1), stacked(s2))

    def _collapse_onto_global_best(self, swarm, problem):
        pos = np.tile(swarm.global_best_pos, (len(swarm.positions), 1))
        return replace(
            swarm,
            positions=pos,
            velocities=np.zeros_like(pos),
            fitness=evaluate_population(problem, pos),
            local_best_pos=pos.copy(),
            local_best_fit=np.full(len(pos), swarm.global_best_fit),
        )

    def test_particle_at_global_best_is_exact_fixed_point(self):
        # a single particle on the global best with zero velocity: nu is
        # exactly zero and the centred state is exactly zero, so the step
        # is the identity bit for bit
        problem, cfg, swarm, rng = self.make(n=1)
        swarm = self._collapse_onto_global_best(swarm, problem)
        stepped = step_swarm(swarm, cfg, problem, rng)
        np.testing.assert_array_equal(stacked(stepped), stacked(swarm))

    def test_collapsed_swarm_is_near_fixed_point(self):
        # many collapsed particles: averaging their (identical) positions
        # is not bitwise exact, so nu is O(eps^2) and the state may drift
        # by O(eps) but no more
        problem, cfg, swarm, rng = self.make(n=12)
        swarm = self._collapse_onto_global_best(swarm, problem)
        stepped = step_swarm(swarm, cfg, problem, rng)
        np.testing.assert_allclose(stacked(stepped), stacked(swarm), atol=1e-12)

    def test_moves_have_the_kernel_density(self):
        # unbounded, so the move is the kernel's Gaussian; the default menu
        # draws nothing, so re-computing the attractors gives the step's own.
        # The squared Mahalanobis distance of each element's move is then
        # chi-squared with 2 degrees of freedom, mean 2 (standard error of
        # the mean over 3 * 800 elements: 0.04)
        cfg = PaoConfig(hp=Hyperparams(q0=0.5), bounds_policy="none")
        problem = make_problem("rastrigin", 8)
        rng = np.random.default_rng(20261018)
        swarm = initialize_swarm(problem, 100, cfg, rng)
        kernel = cfg.kernel
        maha = []
        for _ in range(3):
            centroid = weighted_centroid(compute_attractors(swarm, cfg.specs, None), cfg.hp.k)
            var = cfg.hp.q0 * noise_scale(swarm)
            log_norm = -np.log(2.0 * np.pi) - 0.5 * np.log(np.linalg.det(var * kernel.sigma_unit))
            stepped = step_swarm(swarm, cfg, problem, rng)
            x_from, x_to = stacked(swarm), stacked(stepped)
            x_from[:, :, 0] -= centroid
            x_to[:, :, 0] -= centroid
            for a, b in zip(x_from.reshape(-1, 2), x_to.reshape(-1, 2)):
                maha.append(-2.0 * (transition_logpdf(kernel, a, b, var) - log_norm))
            swarm = stepped
        assert len(maha) == 3 * 100 * 8
        assert abs(np.mean(maha) - 2.0) < 0.15

    def test_runs_on_the_kernel_of_its_config(self, monkeypatch):
        # the kernel is built once, with the config, not for each run
        cfg = PaoConfig()
        kernels = []
        monkeypatch.setattr(engine, "build_kernel", lambda hp: pytest.fail("a run built a kernel"))
        monkeypatch.setattr(engine, "sample_transition", lambda k, *args: kernels.append(k) or args[0])
        run_pao(make_problem("rastrigin", 2), 6, 3, cfg, seed=1)
        assert len(kernels) == 3 and all(k is cfg.kernel for k in kernels)

    def test_input_swarm_not_mutated(self):
        problem, cfg, swarm, rng = self.make()
        x_before = stacked(swarm)
        lb_before = swarm.local_best_fit.copy()
        step_swarm(swarm, cfg, problem, rng)
        np.testing.assert_array_equal(stacked(swarm), x_before)
        np.testing.assert_array_equal(swarm.local_best_fit, lb_before)


class TestRun:
    def test_record_contract(self):
        problem = make_problem("griewangk", 2)
        rec = run_pao(problem, 15, 25, PaoConfig(), seed=11)
        rec.check()
        assert rec.optimizer == "pao"
        assert rec.evals == 15 * 26
        assert len(rec.history) == 26
        assert len(rec.best_pos) == 26
        assert rec.history[0]["g"] == 0 and rec.history[-1]["g"] == 25
        assert rec.params["attractors"] == ["localbest", "globalbest"]

    def test_noise_scale_once_per_generation(self, monkeypatch):
        # the step computes nu from the swarm it moves, and nothing else does
        seen = []
        monkeypatch.setattr(engine, "noise_scale", lambda swarm: seen.append(swarm.generation) or noise_scale(swarm))
        run_pao(make_problem("rastrigin", 2), 10, 7, PaoConfig(), seed=3)
        assert seen == list(range(7))

    def test_bitwise_reproducibility(self):
        problem = make_problem("ackley", 2)
        r1 = run_pao(problem, 20, 30, PaoConfig(), seed=5)
        r2 = run_pao(problem, 20, 30, PaoConfig(), seed=5)
        assert r1.history == r2.history
        for a, b in zip(r1.best_pos, r2.best_pos):
            np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        problem = make_problem("ackley", 2)
        r1 = run_pao(problem, 20, 30, PaoConfig(), seed=5)
        r2 = run_pao(problem, 20, 30, PaoConfig(), seed=6)
        assert r1.history != r2.history

    def test_zero_generations(self):
        problem = make_problem("dejong", 2)
        rec = run_pao(problem, 8, 0, PaoConfig(), seed=0)
        rec.check()
        assert rec.evals == 8

    def test_negative_generations_rejected(self):
        with pytest.raises(ValueError, match="generations"):
            run_pao(make_problem("dejong", 2), 8, -1, PaoConfig(), seed=0)

    @pytest.mark.parametrize("optimizer", ["pao", "pso"])
    @pytest.mark.parametrize(
        "seed, error",
        # True ran as seed 1 under the id "seedTrue"; 1.5 and "3" failed
        # inside NumPy, and -1 with an error that did not name the seed
        [(True, "seed must be an integer, got True"),
         (1.5, "seed must be an integer, got 1.5"),
         ("3", "seed must be an integer, got '3'"),
         (-1, "seed must be >= 0, got -1")],
    )
    def test_rejects_a_seed_a_run_cannot_take(self, optimizer, seed, error):
        with pytest.raises(ValueError, match=re.escape(error)):
            run_one(optimizer, make_problem("dejong", 2), 5, 1, seed)

    def test_integral_seeds_run_as_integers(self):
        problem = make_problem("dejong", 2)
        want = run_one("pso", problem, 5, 1, 3)
        for seed in (3.0, np.int64(3), np.uint64(3)):
            got = run_one("pso", problem, 5, 1, seed)
            assert got.run_id == want.run_id == "pso_dejong_2d_seed3"
            assert type(got.seed) is int and got.history == want.history

    @pytest.mark.parametrize("optimizer", OPTIMIZER_IDS)
    def test_a_runner_reads_integral_run_sizes(self, optimizer):
        # called directly, not through run_one, n=8.0 failed inside NumPy
        runner, cfg = RUNNERS[optimizer]
        problem = make_problem("rastrigin", 2)
        want = run_one(optimizer, problem, 8, 2, 3)
        got = runner(problem, 8.0, 2.0, cfg, 3)
        assert json.dumps(got.to_json_dict(include_duration=False)) == json.dumps(
            want.to_json_dict(include_duration=False)
        )

    @pytest.mark.parametrize("optimizer", OPTIMIZER_IDS)
    @pytest.mark.parametrize(
        "n, generations, error",
        # called directly, generations=True ran and recorded "gens": true
        [(True, 2, "population size must be an integer, got True"),
         (8, True, "generations must be an integer, got True"),
         (8, 2.5, "generations must be an integer, got 2.5")],
    )
    def test_a_runner_rejects_run_sizes_that_are_not_integers(self, optimizer, n, generations, error):
        runner, cfg = RUNNERS[optimizer]
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            runner(make_problem("dejong", 2), n, generations, cfg, 0)

    def test_evaluation_accounting(self):
        problem = CountingProblem(make_problem("rosenbrock", 2))
        rec = run_pao(problem, 13, 7, PaoConfig(), seed=2)
        assert problem.rows == 13 * 8 == rec.evals

    def test_a_menu_population_is_checked_before_the_start_is_evaluated(self):
        problem = CountingProblem(make_problem("dejong", 2))
        cfg = PaoConfig.from_params({"attractors": ["localbest", "globalbest", "derand1bin"]})
        with pytest.raises(ValueError, match="^derand1bin needs a population of at least 4, got 3$"):
            run_pao(problem, 3, 2, cfg, seed=0)
        assert problem.rows == 0

    def test_single_attractor_config(self):
        cfg = PaoConfig(hp=Hyperparams(k=(1.5,)), specs=(AttractorSpec("globalbest"),))
        rec = run_pao(make_problem("dejong", 2), 10, 10, cfg, seed=1)
        rec.check()

    def test_stochastic_attractor_config(self):
        cfg = PaoConfig(
            hp=Hyperparams(k=(1.0, 1.0, 0.5)),
            specs=(
                AttractorSpec("localbest"),
                AttractorSpec("globalbest"),
                AttractorSpec("stochasticgaussian", stddev=0.1),
            ),
        )
        rec = run_pao(make_problem("rastrigin", 2), 12, 10, cfg, seed=1)
        rec.check()

    def test_derand1bin_attractor_config(self):
        cfg = PaoConfig(hp=Hyperparams(k=(1.0,)), specs=(AttractorSpec("derand1bin"),))
        rec = run_pao(make_problem("dejong", 2), 10, 10, cfg, seed=1)
        rec.check()

    def test_unbounded_run_archives_only_in_box_bests(self):
        # without a bounds policy schwefel's swarm leaves the box, where the
        # objective falls far below the in-box optimum; no such point may
        # become a best
        problem = make_problem("schwefel", 2)
        rec = run_pao(problem, 100, 100, PaoConfig(bounds_policy="none"), seed=0)
        rec.check()
        assert rec.final_shifted_best() >= 0.0
        for pos in rec.best_pos:
            assert np.all((pos >= problem.lower) & (pos <= problem.upper))

    def test_rerun_from_record_params_is_byte_identical(self, tmp_path):
        cfg = PaoConfig(
            hp=Hyperparams(m=1.5, zeta=0.35, k=(1.0, 2.0, 0.5), q0=0.5, dt=0.75),
            specs=(AttractorSpec("localbest"), AttractorSpec("stochasticgaussian", 0.3),
                   AttractorSpec("derand1bin")),
            bounds_policy="reflect",
            velocity_init="uniform-scaled",
        )
        first = tmp_path / "first.jsonl"
        write_jsonl([run_pao(make_problem("ackley", 3), 12, 10, cfg, seed=3)], first)
        rec = read_jsonl(first)[0]
        again = run_pao(make_problem(rec.problem, rec.dim), rec.pop, rec.gens,
                        PaoConfig.from_params(rec.params), rec.seed)
        assert json.dumps(again.to_json_dict(include_duration=False)) == json.dumps(
            rec.to_json_dict(include_duration=False)
        )

    def test_converges_on_sphere(self):
        rec = run_pao(make_problem("dejong", 2), 50, 80, PaoConfig(), seed=4)
        assert rec.final_best() < 1e-4


class TestSwarmContract:
    """Every optimiser's moves, seen through ``update_archive``: a move builds
    new arrays and never writes into a swarm it was given, the state is two
    (N, D) arrays, and velocities obey each optimiser's rule."""

    FIELDS = ("positions", "velocities", "fitness", "local_best_pos", "local_best_fit", "global_best_pos")

    def run(self, monkeypatch, optimizer, cfg=None, n=12, d=3, gens=15):
        seen = []

        def keep(swarm):
            if not any(s is swarm for s, _ in seen):
                seen.append((swarm, {f: np.copy(getattr(swarm, f)) for f in self.FIELDS}))
            return swarm

        archive = engine.update_archive
        moves = []

        def watched_archive(swarm, *args, **kwargs):
            out, improved = archive(keep(swarm), *args, **kwargs)
            moves.append((swarm, keep(out)))
            return out, improved

        monkeypatch.setattr(engine, "update_archive", watched_archive)
        monkeypatch.setattr(baselines, "update_archive", watched_archive)
        problem = make_problem("rastrigin", d)
        run_one(optimizer, problem, n, gens, 7, cfg)
        # the first fold is the start's, from the empty archives of generation -1
        assert len(moves) == gens + 1
        return problem, seen, moves

    @pytest.mark.parametrize(
        "optimizer, cfg",
        [(opt, None) for opt in OPTIMIZER_IDS]
        + [("pao", PaoConfig(bounds_policy="reflect", velocity_init="uniform-scaled"))],
    )
    def test_moves_never_write_into_a_swarm(self, monkeypatch, optimizer, cfg):
        _, seen, moves = self.run(monkeypatch, optimizer, cfg)
        for swarm, snapshot in seen:
            for f in self.FIELDS:
                np.testing.assert_array_equal(getattr(swarm, f), snapshot[f], err_msg=f)
        for before, after in moves:
            assert after.positions.shape == after.velocities.shape == (12, 3)
            assert after.generation == before.generation + 1

    @pytest.mark.parametrize("optimizer", ["qpso", "de", "sade"])
    def test_velocity_free_optimizers_keep_zero_velocities(self, monkeypatch, optimizer):
        _, seen, _ = self.run(monkeypatch, optimizer)
        for swarm, _ in seen:
            assert swarm.velocities.shape == (12, 3)
            assert np.all(swarm.velocities == 0.0)

    def test_pso_velocities_within_vmax(self, monkeypatch):
        problem, seen, _ = self.run(monkeypatch, "pso")
        vmax = PsoConfig().vmax_frac * (problem.upper - problem.lower)
        assert any(np.any(s.velocities != 0.0) for s, _ in seen)
        for swarm, _ in seen:
            assert np.all(np.abs(swarm.velocities) <= vmax)
