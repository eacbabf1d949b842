"""Transition-kernel tests: frozen oracle values, algebraic invariants and
the Gaussian sampling/density contract."""

import copy
import dataclasses
import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pao
from pao.kernel import (
    DegenerateCovariance,
    Hyperparams,
    TransitionKernel,
    _EYE4,
    _TAYLOR_COEF,
    _matvec,
    _taylor_expm,
    build_drift_matrix,
    build_kernel,
    matrix_fraction_decomposition,
    psd_cholesky,
    sample_transition,
    transition_logpdf,
)
from oracles import quad_sigma, taylor_expm, underdamped_transition

# Frozen oracle outputs (Taylor-series expm + Gauss-Legendre quadrature,
# cross-checked against the closed-form underdamped solution to 5e-16).
# Case 1: the default hyperparameters (m=1, zeta=0.2, k'=2, dt=1, unit diffusion).
A_DEFAULT = np.array(
    [
        [0.2899508338913913, 0.534595194171772],
        [-1.069190388343544, -0.01246187569948828],
    ]
)
SIGMA_DEFAULT = np.array(
    [
        [0.15218019391850032, 0.14289601081577702],
        [0.14289601081577702, 0.37853251957956263],
    ]
)
# Case 2: overdamped, m=2, zeta=1.5, k'=0.5, dt=0.7, unit diffusion.
A_OVERDAMPED = np.array(
    [
        [0.955980599766424, 0.4247378511824793],
        [-0.10618446279561983, 0.3188738229927046],
    ]
)
SIGMA_OVERDAMPED = np.array(
    [
        [0.05466737641793681, 0.09020112111355469],
        [0.09020112111355469, 0.28440630815108026],
    ]
)

F_DEFAULT = build_drift_matrix(Hyperparams())
EPS = np.finfo(float).eps
# the float and the BLAS form of a 2x2 map plus noise each round to within
# 2 eps of the terms' magnitude |A||x| + sqrt(v)|H||z|, with or without FMA,
# so they differ by at most 4 eps of it
MATVEC_ULPS = 4

hyperparams = st.builds(
    Hyperparams,
    m=st.floats(0.5, 2.0),
    zeta=st.floats(0.05, 1.5),
    k=st.lists(st.floats(0.2, 1.5), min_size=1, max_size=3).map(tuple),
    q0=st.floats(0.1, 2.0),
    dt=st.floats(0.1, 1.5),
)


class TestHyperparams:
    def test_defaults(self):
        hp = Hyperparams()
        assert (hp.m, hp.zeta, hp.k, hp.q0, hp.dt) == (1.0, 0.2, (1.0, 1.0), 1.0, 1.0)
        assert hp.k_total == 2.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError, match="at least one stiffness must be strictly positive"):
            Hyperparams(k=(0.0,))

    @pytest.mark.parametrize(
        "kwargs, entries",
        # k' = inf, k'/m = inf and 2 zeta sqrt(k'/m) = inf: each was built and
        # failed only in build_kernel, after an overflow warning, naming no setting
        [
            (dict(k=(1e308, 1e308)), "k'/m = inf, 2 zeta sqrt(k'/m) = inf"),
            (dict(m=5e-324, k=(1.0,)), "k'/m = inf, 2 zeta sqrt(k'/m) = inf"),
            (dict(zeta=1e300, k=(1e20,)), "k'/m = 1e+20, 2 zeta sqrt(k'/m) = inf"),
            # undamped: inf * 0 is nan, in float arithmetic with no warning
            (dict(zeta=0.0, k=(1e308, 1e308)), "k'/m = inf, 2 zeta sqrt(k'/m) = nan"),
        ],
    )
    def test_rejects_a_drift_matrix_that_overflows(self, kwargs, entries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^k = \[.*\], m = .* and zeta = .* give a drift matrix") as err:
                Hyperparams(**kwargs)
        assert str(err.value).endswith(f"that is not finite: {entries}")

    def test_drift_matrix_at_the_edge_of_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = build_drift_matrix(Hyperparams(k=(1.7e308,), zeta=0.0))
        assert np.isfinite(f).all() and f[1, 0] == -1.7e308

    def test_zero_stiffness_allowed_when_total_positive(self):
        assert Hyperparams(k=(0.0, 1.0)).k_total == 1.0

    def test_stores_every_value_as_a_float(self):
        # a record writes them; an int would read back from JSON as a float
        hp = Hyperparams(m=2, zeta=np.int64(1), k=(1, np.float32(0.5), "2"), q0=0, dt=np.uint8(1))
        assert (hp.m, hp.zeta, hp.k, hp.q0, hp.dt) == (2.0, 1.0, (1.0, 0.5, 2.0), 0.0, 1.0)
        assert all(type(v) is float for v in (hp.m, hp.zeta, hp.q0, hp.dt, *hp.k))

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("m", dict(m=True)),
            ("zeta", dict(zeta=True)),
            ("q0", dict(q0=False)),
            ("dt", dict(dt=np.True_)),
            ("k", dict(k=(1.0, True))),
            ("m", dict(m="2")),
            ("zeta", dict(zeta=None)),
            ("k", dict(k=("1", "two"))),
        ],
    )
    def test_rejects_values_that_are_not_numbers(self, field, kwargs):
        value = next(iter(kwargs.values()))
        value = value[-1] if field == "k" else value
        with pytest.raises(ValueError, match=re.escape(f"{field}: {value!r} is not a number")):
            Hyperparams(**kwargs)


    @pytest.mark.parametrize("k", ["12", 5, 2.0])
    def test_rejects_k_that_is_not_a_sequence(self, k):
        # a string would be read one character, one stiffness, at a time
        with pytest.raises(ValueError, match=re.escape(f"k must be a sequence, got {k!r}")):
            Hyperparams(k=k)

    def test_k_takes_a_list_of_numeric_text(self):
        assert Hyperparams(k=["1", "2.5"]).k == (1.0, 2.5)


class TestDriftMatrix:
    def test_default_structure(self):
        f = build_drift_matrix(Hyperparams())
        assert f[0, 0] == 0.0 and f[0, 1] == 1.0
        assert f[1, 0] == -2.0  # -k'/m
        assert np.isclose(f[1, 1], -2.0 * np.sqrt(2.0) * 0.2)

    @given(hyperparams)
    def test_trace_and_determinant(self, hp):
        # det F = k'/m and tr F = -2 zeta sqrt(k'/m), by construction
        f = build_drift_matrix(hp)
        wn2 = hp.k_total / hp.m
        assert np.isclose(np.linalg.det(f), wn2, rtol=1e-12)
        assert np.isclose(np.trace(f), -2.0 * hp.zeta * np.sqrt(wn2), rtol=1e-12)


def max_rel_err(got, ref):
    """Max-norm relative error of a matrix against its reference."""
    return np.abs(np.asarray(got) - ref).max() / np.abs(ref).max()


class TestTaylorExponential:
    def test_identity_for_zero(self):
        np.testing.assert_array_equal(_taylor_expm(np.zeros((4, 4))), np.eye(4))

    def test_matches_taylor_oracle(self):
        # any 4x4 argument inside the polynomial's range ||x||_1 < 1/2
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal((4, 4))
            x *= 0.49 / np.abs(x).sum(axis=0).max()
            np.testing.assert_allclose(_taylor_expm(x), taylor_expm(x), rtol=0, atol=1e-15)

    def test_power_block_keeps_the_stacked_bits(self):
        # the powers I, x, x^2, x^3 fill their (4, 16) rows in place; the
        # stacked form they replace must give the same bytes
        def stacked(x):
            x2 = x @ x
            x4 = x2 @ x2
            blocks = (_TAYLOR_COEF @ np.stack((_EYE4, x, x2, x2 @ x)).reshape(4, 16)).reshape(4, 4, 4)
            e = blocks[3]
            for j in (2, 1, 0):
                e = e @ x4 + blocks[j]
            return e

        rng = np.random.default_rng(1)
        xs = [np.zeros((4, 4))]
        for _ in range(20):
            x = rng.standard_normal((4, 4))
            xs.append(x * (rng.uniform(0.01, 0.49) / np.abs(x).sum(axis=0).max()))
        for x in xs:
            assert _taylor_expm(x).tobytes() == stacked(x).tobytes()

    def test_squaring_matches_oracles(self):
        # ||F||_1 dt = 96 takes eight doublings; Sigma = UR inv(LR) over the
        # whole interval was 88% off here
        hp = Hyperparams(m=0.25, zeta=1.5, k=(4.0, 4.0), dt=3.0)
        f = build_drift_matrix(hp)
        a, sigma = matrix_fraction_decomposition(f, hp.dt)
        assert max_rel_err(a, taylor_expm(f * hp.dt)) < 1e-12
        assert max_rel_err(sigma, quad_sigma(f, 1.0, hp.dt)) < 1e-12


class TestMatrixFractionDecomposition:
    def test_frozen_default_case(self):
        f = build_drift_matrix(Hyperparams())
        a, sigma = matrix_fraction_decomposition(f, 1.0)
        np.testing.assert_allclose(a, A_DEFAULT, rtol=0, atol=1e-14)
        np.testing.assert_allclose(sigma, SIGMA_DEFAULT, rtol=0, atol=1e-14)

    def test_frozen_overdamped_case(self):
        f = build_drift_matrix(Hyperparams(m=2.0, zeta=1.5, k=(0.5,), dt=0.7))
        a, sigma = matrix_fraction_decomposition(f, 0.7)
        np.testing.assert_allclose(a, A_OVERDAMPED, rtol=0, atol=1e-14)
        np.testing.assert_allclose(sigma, SIGMA_OVERDAMPED, rtol=0, atol=1e-14)

    def test_closed_form_underdamped(self):
        hp = Hyperparams(m=1.3, zeta=0.45, k=(0.8, 0.7), dt=0.9)
        a, _ = matrix_fraction_decomposition(build_drift_matrix(hp), hp.dt)
        ref = underdamped_transition(hp.m, hp.zeta, hp.k_total, hp.dt)
        np.testing.assert_allclose(a, ref, rtol=0, atol=1e-13)

    @given(hyperparams)
    @settings(max_examples=60, deadline=None)
    def test_sigma_symmetric_psd_and_quadrature(self, hp):
        f = build_drift_matrix(hp)
        a, sigma = matrix_fraction_decomposition(f, hp.dt)
        sigma = hp.q0 * sigma
        np.testing.assert_array_equal(sigma, sigma.T)
        eig = np.linalg.eigvalsh(sigma)
        assert eig.min() > -1e-12
        np.testing.assert_allclose(
            sigma, quad_sigma(f, hp.q0, hp.dt), rtol=0, atol=1e-11
        )

    @given(hyperparams)
    @example(Hyperparams(m=0.5, zeta=1.5, k=(1.0, 1.0), dt=1.5))
    @settings(max_examples=60, deadline=None)
    def test_semigroup(self, hp):
        # exactness in the composable sense: one double step equals two
        # single steps, for both the mean map and the noise covariance
        f = build_drift_matrix(hp)
        a1, s1 = matrix_fraction_decomposition(f, hp.dt)
        a2, s2 = matrix_fraction_decomposition(f, 2.0 * hp.dt)
        s1, s2 = hp.q0 * s1, hp.q0 * s2
        np.testing.assert_allclose(a2, a1 @ a1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(s2, a1 @ s1 @ a1.T + s1, rtol=0, atol=1e-12)

    @given(hyperparams)
    @settings(max_examples=60, deadline=None)
    def test_determinant_is_liouville(self, hp):
        # det expm(F dt) = exp(tr F dt) = exp(-2 zeta wn dt)
        f = build_drift_matrix(hp)
        a, _ = matrix_fraction_decomposition(f, hp.dt)
        expected = np.exp(-2.0 * hp.zeta * np.sqrt(hp.k_total / hp.m) * hp.dt)
        np.testing.assert_allclose(np.linalg.det(a), expected, rtol=1e-10)

    @pytest.mark.parametrize(
        "f, dt, match",
        [
            (F_DEFAULT, 0.0, "dt must be > 0"),
            (F_DEFAULT, np.inf, "must be finite"),
            (F_DEFAULT * np.nan, 1.0, "must be finite"),
            # a vector was broadcast into both rows; a 3x3 matrix failed
            # inside NumPy's assignment to the Van Loan block
            (np.array([1.0, 2.0]), 1.0, re.escape("must be 2x2, got shape (2,)")),
            (np.eye(3), 1.0, re.escape("must be 2x2, got shape (3, 3)")),
        ],
        ids=["zero-dt", "inf-dt", "nan-f", "vector-f", "3x3-f"],
    )
    def test_rejects_bad_input(self, f, dt, match):
        with pytest.raises(ValueError, match=match):
            matrix_fraction_decomposition(f, dt)

    @pytest.mark.parametrize("dt", [True, None, "1"])
    def test_rejects_a_dt_that_is_not_a_number(self, dt):
        # a bool used to pass as 1
        with pytest.raises(ValueError, match="is not a number"):
            matrix_fraction_decomposition(build_drift_matrix(Hyperparams()), dt)

    def test_long_horizon_gives_stationary_covariance(self):
        # over a huge horizon the state forgets its start (A = 0) and the
        # noise covariance is the stationary P_inf = diag(1/(4 zeta wn^3),
        # 1/(4 zeta wn)) of the unit-diffusion oscillator
        hp = Hyperparams(zeta=1.5)
        wn = np.sqrt(hp.k_total / hp.m)
        a, sigma = matrix_fraction_decomposition(build_drift_matrix(hp), 1e6)
        np.testing.assert_array_equal(a, np.zeros((2, 2)))
        p_inf = np.diag([1.0 / (4.0 * hp.zeta * wn**3), 1.0 / (4.0 * hp.zeta * wn)])
        np.testing.assert_allclose(sigma, p_inf, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dt", [4e307, 1e308, 1.7e308])
    def test_builds_a_damped_kernel_for_a_dt_near_the_float_maximum(self, dt):
        # dt / 2**s overflowed at s = 1024, and at 1e308 2 ||F||_1 dt overflowed
        # to s = 0 and non-finite A and Sigma
        ref = build_kernel(Hyperparams(dt=1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = build_kernel(Hyperparams(dt=dt))
        np.testing.assert_array_equal(kernel.a, np.zeros((2, 2)))
        np.testing.assert_allclose(
            kernel.sigma_unit, ref.sigma_unit, rtol=0, atol=1e-12 * np.abs(ref.sigma_unit).max()
        )


class TestReferenceGrid:
    def test_matches_high_precision_reference(self):
        # the benchmark's 240-config grid, computed in 250-digit arithmetic
        # by bench/make_reference.py; read here, never written
        path = Path(__file__).resolve().parents[1] / "bench" / "kernel_reference.json"
        with open(path) as fh:
            configs = json.load(fh)["configs"]
        assert len(configs) == 240
        bad = []
        for c in configs:
            hp = Hyperparams(m=c["m"], zeta=c["zeta"], k=tuple(c["k"]), dt=c["dt"])
            kernel = build_kernel(hp)
            err = max(
                max_rel_err(kernel.a, np.array(c["A"], dtype=float)),
                max_rel_err(kernel.sigma_unit, np.array(c["Sigma"], dtype=float)),
            )
            if err > 1e-10:
                bad.append((c["m"], c["zeta"], sum(c["k"]), c["dt"], err))
        assert not bad, f"{len(bad)} of {len(configs)} configs off the reference: {bad}"


class TestPsdCholesky:
    @given(hyperparams)
    @settings(max_examples=40, deadline=None)
    def test_factorises_sigma(self, hp):
        _, sigma = matrix_fraction_decomposition(build_drift_matrix(hp), hp.dt)
        sigma = hp.q0 * sigma
        h = psd_cholesky(sigma)
        assert h[0, 1] == 0.0
        np.testing.assert_allclose(h @ h.T, sigma, rtol=0, atol=1e-13)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(psd_cholesky(np.zeros((2, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "s, match",
        [
            # NaN gave the degenerate factor [[0, 0], [0, 1]], inf an inf
            # factor, and a 3x3 matrix an unpacking error
            ([[np.nan, 0.1], [0.1, 1.0]], "must be finite"),
            ([[np.inf, 0.1], [0.1, 1.0]], "must be finite"),
            ([[1.0, 0.1], [0.1, -np.inf]], "must be finite"),
            (np.eye(3), re.escape("must be 2x2, got shape (3, 3)")),
            ([1.0, 1.0], re.escape("must be 2x2, got shape (2,)")),
        ],
        ids=["nan", "inf", "minus-inf", "3x3", "vector"],
    )
    def test_rejects_what_it_cannot_factor(self, s, match):
        with pytest.raises(ValueError, match=match):
            psd_cholesky(s)

    def test_rank_deficient(self):
        s = np.array([[4.0, 2.0], [2.0, 1.0]])  # rank 1
        h = psd_cholesky(s)
        np.testing.assert_allclose(h @ h.T, s, atol=1e-12)

    def test_zero_pivot_leaves_row_and_column_zero(self):
        # a first pivot below eps * max(diag), with an off-diagonal entry
        # from rounding, must not blow up the second row
        h = psd_cholesky(np.array([[1e-20, 1e-9], [1e-9, 1.0]]))
        np.testing.assert_array_equal(h, np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("dt", [1e-6, 1e-8, 1e-10])
    def test_tiny_positive_definite_sigma_is_reproduced(self, dt):
        # a first pivot below eps * max(diag) is not rounding where Sigma is
        # positive definite: H H^T must still give Sigma's off-diagonal entry
        sigma = build_kernel(Hyperparams(dt=dt)).sigma_unit
        h = psd_cholesky(sigma)
        assert np.abs(h @ h.T - sigma).max() <= 1e-12 * np.abs(sigma).max()

    def test_short_interval_keeps_full_factor(self):
        # Sigma(dt = 1e-6) has a position variance of ~3e-19: tiny, but
        # positive definite at the matrix's own scale
        _, sigma = matrix_fraction_decomposition(build_drift_matrix(Hyperparams()), 1e-6)
        h = psd_cholesky(sigma)
        assert h[0, 0] > 0.0
        assert max_rel_err(h @ h.T, sigma) < 1e-14


class TestDependencies:
    def test_import_pao_loads_no_scipy(self):
        src = str(Path(pao.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, pao; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestKernelAndSampling:
    @pytest.mark.parametrize(
        "kwargs",
        # undamped and stiff enough that A or Sigma overflows; a run on such a
        # kernel would blame the objective for its first non-finite value
        [dict(zeta=0.0, k=(1e16,), dt=1000.0), dict(zeta=0.0, k=(1e24,), dt=1.0), dict(zeta=0.0, dt=1e20)],
    )
    def test_kernel_that_overflows_names_the_hyperparameters(self, kwargs):
        # and warns of nothing: the doublings printed RuntimeWarnings first
        hp = Hyperparams(**kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"A and Sigma of {hp} are not finite")):
                build_kernel(hp)

    def test_build_kernel_is_immutable(self):
        kernel = build_kernel(Hyperparams())
        with pytest.raises(ValueError):
            kernel.a[0, 0] = 99.0

    def test_zero_variance_is_deterministic(self):
        # a single state maps in float arithmetic from A's entries; a @ x
        # (BLAS) may round differently, so it is a closeness check only
        kernel = build_kernel(Hyperparams())
        x = np.array([0.3, -1.2])
        rng = np.random.default_rng(0)
        got = sample_transition(kernel, x, 0.0, rng)
        (a00, a01), (a10, a11) = kernel.a.tolist()
        want = np.array([a00 * 0.3 + a01 * -1.2, a10 * 0.3 + a11 * -1.2])
        assert got.tobytes() == want.tobytes()
        assert np.all(np.abs(got - kernel.a @ x) <= MATVEC_ULPS * EPS * (np.abs(kernel.a) @ np.abs(x)))
        # and the rng was never consumed
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_single_state_is_the_matrix_vector_map(self):
        # one state: bit for bit A x + sqrt(v) H z in float arithmetic from
        # the entries of A and H, with z the generator's next two standard
        # normals; within a few ulps of the BLAS form a @ x + sqrt(v) (h @ z)
        kernel = build_kernel(Hyperparams(m=0.7, zeta=0.4, k=(1.0, 2.5), dt=0.8))
        (a00, a01), (a10, a11) = kernel.a.tolist()
        (h00, _), (h10, h11) = kernel.h.tolist()
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        states = np.random.default_rng(6).standard_normal((200, 2)) * 10.0 ** np.arange(-4, 6, 0.05)[:, None]
        for x, var in zip(states, 10.0 ** np.linspace(-6, 3, 200)):
            z = twin.standard_normal(2)
            (x0, x1), (z0, z1), s = x.tolist(), z.tolist(), math.sqrt(var)
            want = np.array([a00 * x0 + a01 * x1 + s * (h00 * z0), a10 * x0 + a11 * x1 + s * (h10 * z0 + h11 * z1)])
            got = sample_transition(kernel, x, var, rng)
            assert got.tobytes() == want.tobytes()
            scale = np.abs(kernel.a) @ np.abs(x) + s * (np.abs(kernel.h) @ np.abs(z))
            assert np.all(np.abs(got - (kernel.a @ x + s * (kernel.h @ z))) <= MATVEC_ULPS * EPS * scale)

    def test_single_state_and_stack_are_one_map(self):
        # a (2,) state and the same state as a (1, 1, 2) stack take one draw
        # of two normals and agree to a few ulps of the terms' magnitude
        kernel = build_kernel(Hyperparams(m=0.7, zeta=0.4, k=(1.0, 2.5), dt=0.8))
        rng, twin, normals = (np.random.default_rng(8) for _ in range(3))
        states = np.random.default_rng(9).standard_normal((200, 2)) * 10.0 ** np.arange(-4, 6, 0.05)[:, None]
        for x, var in zip(states, 10.0 ** np.linspace(-6, 3, 200)):
            single = sample_transition(kernel, x, var, rng)
            stacked = sample_transition(kernel, x.reshape(1, 1, 2), var, twin)
            assert stacked.shape == (1, 1, 2)
            assert rng.bit_generator.state == twin.bit_generator.state
            z = normals.standard_normal(2)
            scale = np.abs(kernel.a) @ np.abs(x) + np.sqrt(var) * (np.abs(kernel.h) @ np.abs(z))
            assert np.all(np.abs(single - stacked[0, 0]) <= MATVEC_ULPS * EPS * scale)

    def test_single_state_draw_aliases_nothing(self):
        # the draw is written into the generator's fresh (2,) array, never
        # into x or into an earlier draw
        kernel = build_kernel(Hyperparams())
        x = np.array([0.3, -1.2])
        rng = np.random.default_rng(2)
        first, second = sample_transition(kernel, x, 0.5, rng), sample_transition(kernel, x, 0.5, rng)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, x) and not np.shares_memory(second, x)
        assert first.tolist() != second.tolist()
        assert x.tolist() == [0.3, -1.2]

    def test_density_of_a_draw_is_that_of_its_normals(self):
        # x' = A x + sqrt(v) H z has density log_norm - log v - |z|^2 / 2,
        # with z the generator's own draw
        kernel = build_kernel(Hyperparams(m=0.7, zeta=0.4, k=(1.0, 2.5), dt=0.8))
        rng, twin = np.random.default_rng(12), np.random.default_rng(12)
        states = np.random.default_rng(13).standard_normal((200, 2))
        for x, var in zip(states, 10.0 ** np.linspace(-2, 1, 200)):
            y = sample_transition(kernel, x, var, rng)
            z = twin.standard_normal(2)
            want = kernel.log_norm - math.log(var) - 0.5 * (z @ z)
            assert transition_logpdf(kernel, x, y, var) == pytest.approx(want, rel=1e-12)

    def test_stack_of_states_draws_one_block(self):
        # an (N, D, 2) stack consumes the generator as one (N, D, 2) draw,
        # and every state gets the single-state map of its own draw
        kernel = build_kernel(Hyperparams())
        x = np.random.default_rng(3).standard_normal((6, 4, 2))
        got = sample_transition(kernel, x, 0.3, np.random.default_rng(9))
        z = np.random.default_rng(9).standard_normal(x.shape)
        assert got.shape == x.shape
        for i in np.ndindex(x.shape[:2]):
            np.testing.assert_allclose(
                got[i], kernel.a @ x[i] + np.sqrt(0.3) * (kernel.h @ z[i]), rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("shape", [(), (3,), (1,), (4, 3), (2, 2, 3), (2, 0)])
    def test_rejects_states_that_are_not_pairs(self, shape):
        # a scalar raised IndexError, a stack NumPy's matmul message
        kernel = build_kernel(Hyperparams())
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            sample_transition(kernel, np.ones(shape), 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("var", [0.0, 0.5])
    def test_rejects_a_non_finite_single_state(self, bad, var):
        # [nan, 0] used to return [nan, nan]
        kernel = build_kernel(Hyperparams())
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=re.escape(f"state must be finite, got {[bad, 0.0]}")):
            sample_transition(kernel, np.array([bad, 0.0]), var, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_rejects_negative_variance(self):
        kernel = build_kernel(Hyperparams())
        with pytest.raises(ValueError):
            sample_transition(kernel, np.zeros(2), -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("var", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(2,), (5, 3, 2)])
    def test_rejects_non_finite_variance(self, var, shape):
        # nan and inf used to return all-nan and all-inf states
        kernel = build_kernel(Hyperparams())
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            sample_transition(kernel, np.ones(shape), var, np.random.default_rng(0))

    def test_stack_product_matches_the_transposed_view(self):
        # the transposes of the column-major A and H give the bytes of the
        # transposed view of a row-major copy
        kernel = build_kernel(Hyperparams(m=0.7, zeta=0.4, k=(1.0, 2.5), dt=0.8))
        assert kernel.a.T.flags.c_contiguous and kernel.h.T.flags.c_contiguous
        x = np.random.default_rng(4).standard_normal((300, 2)) * 10.0 ** np.arange(-5, 5, 1 / 30)[:, None]
        for m in (kernel.a, kernel.h):
            assert _matvec(m.T, x).tobytes() == (x @ np.ascontiguousarray(m).T).tobytes()

    def test_a_and_h_are_read_only_and_column_major(self):
        assert_read_only_and_column_major(build_kernel(Hyperparams(m=0.7, zeta=0.4, k=(1.0, 2.5), dt=0.8)))

    def test_sample_moments(self):
        kernel = build_kernel(Hyperparams())
        x = np.array([1.0, 0.5])
        var = 0.7
        rng = np.random.default_rng(1234)
        draws = np.array([sample_transition(kernel, x, var, rng) for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(axis=0), kernel.a @ x, atol=0.02)
        np.testing.assert_allclose(
            np.cov(draws.T), var * kernel.sigma_unit, rtol=0.08, atol=0.01
        )

    def test_logpdf_matches_scipy(self):
        from scipy.stats import multivariate_normal

        kernel = build_kernel(Hyperparams())
        x0 = np.array([0.4, -0.7])
        x1 = np.array([1.1, 0.2])
        var = 0.9
        got = transition_logpdf(kernel, x0, x1, var)
        ref = multivariate_normal(kernel.a @ x0, var * kernel.sigma_unit).logpdf(x1)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_logpdf_peaks_at_mean(self):
        kernel = build_kernel(Hyperparams())
        x0 = np.array([0.4, -0.7])
        mean = kernel.a @ x0
        at_mean = transition_logpdf(kernel, x0, mean, 1.0)
        assert at_mean > transition_logpdf(kernel, x0, mean + 0.1, 1.0)

    def test_zero_variance_density_degenerate(self):
        kernel = build_kernel(Hyperparams())
        with pytest.raises(DegenerateCovariance):
            transition_logpdf(kernel, np.zeros(2), np.zeros(2), 0.0)


def assert_read_only_and_column_major(kernel):
    for m in (kernel.a, kernel.h):
        assert m.flags.f_contiguous and not m.flags.c_contiguous
    for m in (kernel.a, kernel.sigma_unit, kernel.h):
        assert not m.flags.writeable


def assert_same_bytes(k1, k2):
    """Every derived field of k1 equals k2's, arrays byte for byte."""
    for name in ("a", "sigma_unit", "h"):
        assert getattr(k1, name).tobytes(order="A") == getattr(k2, name).tobytes(order="A")
    for name in ("entries", "factor", "degenerate", "log_norm"):
        assert getattr(k1, name) == getattr(k2, name)


class TestKernelIsAValueOfHp:
    HP = Hyperparams(m=0.7, zeta=0.4, k=(1.0, 2.5), dt=0.8)

    def test_equal_hp_give_equal_kernels(self):
        # kernels used to compare their arrays: == raised on their truth
        # value, and hash raised TypeError
        k1, k2 = TransitionKernel(self.HP), build_kernel(dataclasses.replace(self.HP))
        assert k1 == k2 and hash(k1) == hash(k2) and len({k1, k2}) == 1
        assert_same_bytes(k1, k2)
        assert repr(k1) == f"TransitionKernel(hp={self.HP!r})"

    def test_kernels_compare_by_hp_not_arrays(self):
        # q0, or how k' splits into k, gives the same arrays but another hp
        k1 = build_kernel(self.HP)
        for hp in (dataclasses.replace(self.HP, q0=2.0), dataclasses.replace(self.HP, k=(2.5, 1.0))):
            k2 = build_kernel(hp)
            assert k2 != k1
            assert k2.a.tobytes() == k1.a.tobytes() and k2.sigma_unit.tobytes() == k1.sigma_unit.tobytes()

    def test_replacing_hp_rederives_every_field(self):
        # replace(kernel, sigma_unit=4 * kernel.sigma_unit) used to keep the
        # old H and log-normaliser
        kernel = build_kernel(Hyperparams())
        replaced = dataclasses.replace(kernel, hp=self.HP)
        assert replaced == build_kernel(self.HP) != kernel
        assert_same_bytes(replaced, build_kernel(self.HP))
        assert_read_only_and_column_major(replaced)

    @pytest.mark.parametrize("name", ["a", "sigma_unit", "h"])
    def test_arrays_are_not_inputs(self, name):
        # a kernel used to take its arrays, h=np.eye(2) beside an all-nan A
        # included, and replace(kernel, h=...) kept the other fields
        kernel = build_kernel(Hyperparams())
        arrays = {n: getattr(kernel, n) for n in ("a", "sigma_unit", "h")}
        with pytest.raises(TypeError):
            TransitionKernel(**{**arrays, name: np.full((2, 2), np.nan)})
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            dataclasses.replace(kernel, **{name: arrays[name]})

    @pytest.mark.parametrize(
        "clone", [lambda k: pickle.loads(pickle.dumps(k)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_a_copy_is_rebuilt_read_only(self, clone):
        # an unpickled kernel used to have writable arrays
        kernel = build_kernel(self.HP)
        got = clone(kernel)
        assert got == kernel
        assert_same_bytes(got, kernel)
        assert_read_only_and_column_major(got)


def reference_logpdf(kernel, x_from, x_to, var):
    from scipy.stats import multivariate_normal

    return multivariate_normal(kernel.a @ x_from, var * kernel.sigma_unit).logpdf(x_to)


class TestDensity:
    @pytest.mark.parametrize("m", [0.25, 2.0])
    @pytest.mark.parametrize("zeta", [0.0, 0.2, 1.5])
    @pytest.mark.parametrize("k_total", [0.5, 8.0])
    @pytest.mark.parametrize("dt", [0.1, 1.0, 3.0])
    def test_matches_scipy_over_a_grid(self, m, zeta, k_total, dt):
        kernel = build_kernel(Hyperparams(m=m, zeta=zeta, k=(k_total,), dt=dt))
        rng = np.random.default_rng(11)
        for var in 10.0 ** np.arange(-6.0, 3.5, 0.5):
            x = rng.standard_normal(2)
            y = sample_transition(kernel, x, var, rng)
            np.testing.assert_allclose(
                transition_logpdf(kernel, x, y, var), reference_logpdf(kernel, x, y, var), rtol=1e-10
            )

    def test_caches_factor_and_log_normaliser(self):
        kernel = build_kernel(Hyperparams())
        assert kernel.factor == (kernel.h[0, 0], kernel.h[1, 0], kernel.h[1, 1])
        assert all(type(v) is float for v in kernel.factor)
        want = -np.log(2.0 * np.pi) - 0.5 * np.log(np.linalg.det(kernel.sigma_unit))
        assert kernel.log_norm == pytest.approx(want, rel=1e-14)
        assert not kernel.degenerate

    def test_caches_the_entries_of_a(self):
        kernel = build_kernel(Hyperparams())
        assert kernel.entries == (kernel.a[0, 0], kernel.a[0, 1], kernel.a[1, 0], kernel.a[1, 1])
        assert all(type(v) is float for v in kernel.entries)

    @pytest.mark.parametrize("var", [1e-300, 1e-170, 1e170, 1e300])
    def test_extreme_variances_give_the_closed_form(self, var):
        # v^2 det(Sigma) under- or overflows here; the density never forms
        # it.  From the zero state the move is sqrt(v) H z, whose density is
        # log_norm - log v - |z|^2 / 2
        kernel = build_kernel(Hyperparams())
        z = np.array([0.8, -1.3])
        x_to = np.sqrt(var) * (kernel.h @ z)
        want = kernel.log_norm - np.log(var) - 0.5 * z @ z
        assert transition_logpdf(kernel, np.zeros(2), x_to, var) == pytest.approx(want, rel=1e-14)

    def test_singular_kernel_is_degenerate(self):
        # Sigma(dt = 1e-110) has a position variance of ~dt^3 / 3, which
        # underflows to 0: H has a zero pivot, whatever the variance
        kernel = build_kernel(Hyperparams(dt=1e-110))
        assert kernel.degenerate
        for var in (1e-6, 1.0, 1e6):
            with pytest.raises(DegenerateCovariance, match="singular"):
                transition_logpdf(kernel, np.zeros(2), np.zeros(2), var)

    @pytest.mark.parametrize("var", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_variance(self, var):
        kernel = build_kernel(Hyperparams())
        with pytest.raises(ValueError, match="must be finite") as info:
            transition_logpdf(kernel, np.zeros(2), np.zeros(2), var)
        assert not isinstance(info.value, DegenerateCovariance)

    def test_negative_variance_is_degenerate(self):
        kernel = build_kernel(Hyperparams())
        with pytest.raises(DegenerateCovariance, match="must be > 0"):
            transition_logpdf(kernel, np.zeros(2), np.zeros(2), -1.0)

    @pytest.mark.parametrize("shape", [(2, 2), (1, 2), (3,), ()])
    def test_takes_single_states_only(self, shape):
        kernel = build_kernel(Hyperparams())
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            transition_logpdf(kernel, np.zeros(shape), np.zeros(2), 1.0)
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            transition_logpdf(kernel, np.zeros(2), np.zeros(shape), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1])
    def test_rejects_non_finite_states(self, bad, which):
        # a nan or infinite state used to score as nan
        kernel = build_kernel(Hyperparams())
        states = [np.zeros(2), np.array([0.5, -1.0])]
        states[which][1] = bad
        with pytest.raises(ValueError, match="states must be finite") as info:
            transition_logpdf(kernel, *states, 1.0)
        assert not isinstance(info.value, DegenerateCovariance)
        assert str(states[0].tolist()) in str(info.value) and str(states[1].tolist()) in str(info.value)

    @pytest.mark.parametrize("dt", [1.0, 1e-6, 1e-8])
    def test_draws_have_the_mahalanobis_mean_of_sigma(self, dt):
        # the squared Mahalanobis distance under v * Sigma of a draw is
        # chi-square with 2 degrees of freedom: mean 2, sd 2 / sqrt(n) of
        # the mean.  Sigma's inverse is taken in closed form, not through H.
        # (At dt = 1e-10 the position noise is below a unit state's float
        # resolution, so the draws themselves are quantised.)
        n, var = 4000, 0.5
        kernel = build_kernel(Hyperparams(dt=dt))
        x = np.random.default_rng(21).standard_normal((n, 2))
        r = sample_transition(kernel, x, var, np.random.default_rng(22)) - x @ kernel.a.T
        (s00, s01), (_, s11) = (var * kernel.sigma_unit).tolist()
        det = s00 * s11 - s01 * s01
        maha = (s11 * r[:, 0] ** 2 - 2.0 * s01 * r[:, 0] * r[:, 1] + s00 * r[:, 1] ** 2) / det
        assert abs(maha.mean() - 2.0) <= 6.0 * 2.0 / np.sqrt(n)
