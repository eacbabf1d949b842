"""Benchmark function tests: hand-computed values, optimum identities,
domain boxes and batch/single consistency."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pao.benchmarks import (
    GRIEWANGK_DENOMINATOR,
    PROBLEM_NAMES,
    Problem,
    SCHWEFEL_OPT,
    make_problem,
    shift_to_zero,
)

HALF_WIDTHS = {
    "dejong": 5.12,
    "hyperellipsoid": 5.12,
    "rotatedhyperellipsoid": 65.54,
    "powersum": 1.0,
    "rosenbrock": 2.048,
    "griewangk": 600.0,
    "rastrigin": 5.12,
    "ackley": 32.77,
    "schwefel": 500.0,
}

# (problem, point, value worked out by hand)
HAND_VALUES = [
    ("dejong", [1.0, 2.0, 3.0], 14.0),
    ("hyperellipsoid", [1.0, 2.0, 3.0], 36.0),  # 1*1 + 2*4 + 3*9
    ("rotatedhyperellipsoid", [1.0, 2.0, 3.0], 20.0),  # 3*1 + 2*4 + 1*9
    ("powersum", [0.5, -0.5], 0.375),  # 0.5^2 + 0.5^3
    ("rosenbrock", [0.0, 0.0], 1.0),
    ("rosenbrock", [1.0, 1.0, 1.0], 0.0),
    ("rastrigin", [1.0, 1.0], 2.0),  # cos(2 pi) = 1
    ("rastrigin", [0.5, 0.0], 20.25),  # 20 + (0.25 + 10) + (0 - 10)
]


class TestCatalog:
    def test_all_nine_present(self):
        assert len(PROBLEM_NAMES) == 9
        assert set(PROBLEM_NAMES) == set(HALF_WIDTHS)

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_domain_boxes(self, name):
        p = make_problem(name, 3 if name != "rosenbrock" else 3)
        w = HALF_WIDTHS[name]
        np.testing.assert_array_equal(p.lower, [-w] * 3)
        np.testing.assert_array_equal(p.upper, [w] * 3)

    def test_unknown_name(self):
        error = f"problem name must be one of {PROBLEM_NAMES}, got 'sphere'"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            make_problem("sphere", 2)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            make_problem("dejong", 0)
        with pytest.raises(ValueError, match="rosenbrock"):
            make_problem("rosenbrock", 1)

    def test_name_is_case_insensitive(self):
        assert make_problem("DeJong", 2).name == "dejong"

    def test_bounds_not_writable(self):
        p = make_problem("ackley", 2)
        with pytest.raises(ValueError):
            p.lower[0] = -1.0


class TestValues:
    @pytest.mark.parametrize("name,point,expected", HAND_VALUES)
    def test_hand_computed(self, name, point, expected):
        p = make_problem(name, len(point))
        assert p.objective(point) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_optimum_value(self, name):
        p = make_problem(name, 2)
        assert p.objective(p.optimum_pos) == pytest.approx(p.optimum_val, abs=1e-9)
        if name != "schwefel":
            assert p.optimum_val == 0.0

    def test_schwefel_optimum(self):
        p = make_problem("schwefel", 2)
        np.testing.assert_array_equal(p.optimum_pos, [SCHWEFEL_OPT] * 2)
        assert p.optimum_val == pytest.approx(-837.9658, abs=1e-3)
        # scales linearly with dimension
        p8 = make_problem("schwefel", 8)
        assert p8.optimum_val == pytest.approx(4.0 * p.optimum_val, rel=1e-12)

    def test_ackley_zero_at_origin(self):
        assert abs(make_problem("ackley", 5).objective(np.zeros(5))) < 1e-12

    def test_griewangk_denominator_switch(self):
        x = [20.0, 0.0]
        f400 = make_problem("griewangk", 2).objective(x)
        f4000 = make_problem("griewangk", 2, griewangk_denominator=4000.0).objective(x)
        assert f400 - f4000 == pytest.approx(0.9, abs=1e-12)  # 400/400 - 400/4000

    @pytest.mark.parametrize("denominator", [-400.0, 0.0, np.nan, np.inf])
    def test_griewangk_denominator_must_be_positive_and_finite(self, denominator):
        # a negative one puts values far below the stated optimum of 0
        with pytest.raises(ValueError, match="griewangk_denominator"):
            make_problem("griewangk", 2, griewangk_denominator=denominator)

    def test_an_integral_float_dimension_builds_an_int_dimension(self):
        p = make_problem("dejong", 2.0)
        assert p.dim == 2 and type(p.dim) is int and p.lower.shape == (2,)

    def test_rotated_matches_double_sum(self):
        rng = np.random.default_rng(5)
        p = make_problem("rotatedhyperellipsoid", 6)
        for x in rng.uniform(-65.54, 65.54, size=(20, 6)):
            ref = sum(sum(x[j] ** 2 for j in range(i + 1)) for i in range(6))
            assert p.objective(x) == pytest.approx(ref, rel=1e-12)

    def test_powersum_exponents(self):
        # exponent of |x_i| is i + 1 with 1-based i
        p = make_problem("powersum", 3)
        assert p.objective([0.0, 0.0, 0.5]) == pytest.approx(0.5**4, rel=1e-12)


class TestOptimality:
    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    def test_random_points_never_beat_optimum(self, name):
        p = make_problem(name, 4)
        rng = np.random.default_rng(hash(name) % 2**32)
        xs = rng.uniform(p.lower, p.upper, size=(500, 4))
        assert np.all(p.evaluate(xs) >= p.optimum_val - 1e-9)

    @pytest.mark.parametrize("name", PROBLEM_NAMES)
    @pytest.mark.parametrize("h", [1e-3, 1e-2])
    def test_coordinate_perturbation_minimality(self, name, h):
        p = make_problem(name, 3)
        base = p.objective(p.optimum_pos)
        for i in range(p.dim):
            for sign in (-1.0, 1.0):
                x = p.optimum_pos.copy()
                x[i] += sign * h
                assert p.objective(x) >= base


class TestBatchContract:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(PROBLEM_NAMES))
    @settings(max_examples=30, deadline=None)
    def test_batch_matches_single(self, seed, name):
        p = make_problem(name, 3)
        xs = np.random.default_rng(seed).uniform(p.lower, p.upper, size=(8, 3))
        batch = p.evaluate(xs)
        assert batch.shape == (8,)
        for i in range(8):
            assert batch[i] == pytest.approx(p.objective(xs[i]), rel=1e-12, abs=1e-300)

    def test_shift_to_zero(self):
        p = make_problem("schwefel", 2)
        assert shift_to_zero(p, p.optimum_val) == 0.0
        assert shift_to_zero(p, p.optimum_val + 2.5) == pytest.approx(2.5)


class TestProblemValidation:
    def test_inconsistent_optimum_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            Problem(
                name="bad",
                dim=2,
                lower=np.array([-1.0, -1.0]),
                upper=np.array([1.0, 1.0]),
                optimum_pos=np.zeros(2),
                optimum_val=1.0,  # objective(0) is 0, not 1
                batch=lambda xs: (xs**2).sum(axis=-1),
            )

    def test_nan_objective_at_optimum_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            Problem(
                name="bad",
                dim=1,
                lower=np.array([-1.0]),
                upper=np.array([1.0]),
                optimum_pos=np.zeros(1),
                optimum_val=0.0,
                batch=lambda xs: np.full(len(xs), np.nan),
            )

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            Problem(
                name="bad",
                dim=1,
                lower=np.array([1.0]),
                upper=np.array([-1.0]),
                optimum_pos=np.zeros(1),
                optimum_val=0.0,
                batch=lambda xs: (xs**2).sum(axis=-1),
            )


class TestPickle:
    # a suite sends each built problem to a worker process whole
    @pytest.mark.parametrize(
        "name, denominator",
        [(name, GRIEWANGK_DENOMINATOR) for name in PROBLEM_NAMES] + [("griewangk", 4000.0)],
    )
    def test_round_trip(self, name, denominator):
        p = make_problem(name, 3, denominator)
        q = pickle.loads(pickle.dumps(p))
        assert (q.name, q.dim, q.optimum_val) == (p.name, p.dim, p.optimum_val)
        for field in ("lower", "upper", "optimum_pos"):
            np.testing.assert_array_equal(getattr(q, field), getattr(p, field))
            assert not getattr(q, field).flags.writeable
        xs = np.random.default_rng(7).uniform(p.lower, p.upper, size=(64, 3))
        assert q.evaluate(xs).tobytes() == p.evaluate(xs).tobytes()

    def test_unpickling_checks_the_optimum_again(self):
        p = make_problem("dejong", 2)
        object.__setattr__(p, "optimum_val", 1.0)
        with pytest.raises(ValueError, match="expected 1.0"):
            pickle.loads(pickle.dumps(p))
