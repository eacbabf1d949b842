"""End-to-end acceptance gate.

One test per acceptance criterion, each printing a single [PASS]/[FAIL]
line (run with ``pytest -s tests/test_acceptance.py`` to see the checklist
live).  Criteria 1-6 validate the exact-dynamics kernel, the deterministic
oscillator limit, the naive/sampler update equivalence and the benchmark
definitions against independent oracles.  Criteria 7a-7c are the desk-scale
convergence comparison; 8 is the determinism/accounting contract.

Criteria 7b and 7c currently fail and are expected to: with the default
fixed-stiffness (local best, global best) attractor pair, particles whose
archived local best sits in a non-global basin equilibrate around the
midpoint (lb + gb) / 2, which lies on an inter-basin ridge whose fitness is
far worse than the archived value.  Their samples concentrate there and can
never improve the archive, the swarm noise scale bottoms out, and multimodal
refinement stalls (Rastrigin is the sharpest case: beating a trapped
archive needs a sample inside a ~0.07-radius disc at 14 sigma).  The effect
is structural, not a tuning accident; see README for the measurements and
the alternative noise-scale readings that were ruled out.
"""

import json
import time

import numpy as np
import pytest

from pao.attractors import AttractorSpec
from pao.benchmarks import PROBLEM_NAMES, make_problem
from pao.engine import PaoConfig, Swarm, initialize_swarm, step_swarm
from pao.harness import derive_seed, run_one
from pao.kernel import (
    Hyperparams,
    build_drift_matrix,
    build_kernel,
    matrix_fraction_decomposition,
    psd_cholesky,
    sample_transition,
    transition_logpdf,
)
from oracles import quad_sigma, taylor_expm

# Schwefel global minimum, 2 * (-418.9828872724339); independent of the
# constant used by the problem definition.
SCHWEFEL_REF_2D = -837.9657745448678


def _report(num, name: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def hyperparameter_draws():
    """200 randomised valid hyperparameter draws spanning under/overdamped."""
    rng = np.random.default_rng(20260814)
    draws = []
    for _ in range(200):
        draws.append(
            Hyperparams(
                m=float(rng.uniform(0.5, 2.0)),
                zeta=float(rng.uniform(0.05, 1.5)),
                k=tuple(rng.uniform(0.2, 1.5, size=int(rng.integers(1, 4)))),
                q0=float(rng.uniform(0.1, 2.0)),
                dt=float(rng.uniform(0.1, 1.5)),
            )
        )
    return draws


def test_criterion_1_kernel_exactness(hyperparameter_draws):
    t0 = time.perf_counter()
    worst_a = 0.0
    worst_s = 0.0
    for hp in hyperparameter_draws:
        f = build_drift_matrix(hp)
        a, sigma = matrix_fraction_decomposition(f, hp.dt)
        sigma = hp.q0 * sigma
        a_ref = taylor_expm(f * hp.dt)
        s_ref = quad_sigma(f, hp.q0, hp.dt, nodes=32)
        worst_a = max(worst_a, float(np.max(np.abs(a - a_ref)) / np.max(np.abs(a_ref))))
        worst_s = max(worst_s, float(np.max(np.abs(sigma - s_ref))))
    elapsed = time.perf_counter() - t0
    ok = worst_a < 1e-12 and worst_s < 1e-10 and elapsed < 10.0
    _report(
        1,
        "kernel exactness vs oracles",
        ok,
        f"A rel err {worst_a:.2e} (<1e-12), Sigma abs err {worst_s:.2e} (<1e-10), "
        f"{elapsed:.1f}s (<10s), 200 draws",
    )


def test_criterion_2_semigroup(hyperparameter_draws):
    t0 = time.perf_counter()
    worst_a = 0.0
    worst_s = 0.0
    for hp in hyperparameter_draws:
        f = build_drift_matrix(hp)
        a1, s1 = matrix_fraction_decomposition(f, hp.dt)
        a2, s2 = matrix_fraction_decomposition(f, 2.0 * hp.dt)
        s1, s2 = hp.q0 * s1, hp.q0 * s2
        worst_a = max(worst_a, float(np.max(np.abs(a2 - a1 @ a1))))
        worst_s = max(worst_s, float(np.max(np.abs(s2 - (a1 @ s1 @ a1.T + s1)))))
    elapsed = time.perf_counter() - t0
    ok = worst_a < 1e-10 and worst_s < 1e-10 and elapsed < 5.0
    _report(
        2,
        "semigroup composition",
        ok,
        f"A(2dt)-A(dt)^2 err {worst_a:.2e}, Sigma comp err {worst_s:.2e} (<1e-10), "
        f"{elapsed:.1f}s (<5s)",
    )


def test_criterion_3_transition_density():
    t0 = time.perf_counter()
    kern = build_kernel(Hyperparams())
    x0 = np.array([0.7, -0.3])
    variance = 1.0
    rng = np.random.default_rng(derive_seed(3, 0))
    n = 100_000
    samples = np.empty((n, 2))
    for i in range(n):
        samples[i] = sample_transition(kern, x0, variance, rng)

    mean_ref = kern.a @ x0
    cov_ref = variance * kern.sigma_unit
    mean_err = float(np.max(np.abs(samples.mean(axis=0) - mean_ref)))
    cov_err = float(
        np.linalg.norm(np.cov(samples.T, ddof=1) - cov_ref) / np.linalg.norm(cov_ref)
    )

    # grid-integrate the density over +-7 sigma around the analytic mean
    sd = np.sqrt(np.diag(cov_ref))
    g0 = np.linspace(mean_ref[0] - 7 * sd[0], mean_ref[0] + 7 * sd[0], 301)
    g1 = np.linspace(mean_ref[1] - 7 * sd[1], mean_ref[1] + 7 * sd[1], 301)
    dens = np.empty((g0.size, g1.size))
    for i, u in enumerate(g0):
        for j, v in enumerate(g1):
            dens[i, j] = np.exp(transition_logpdf(kern, x0, (u, v), variance))
    mass = float(np.trapezoid(np.trapezoid(dens, g1, axis=1), g0))

    elapsed = time.perf_counter() - t0
    ok = mean_err < 0.02 and cov_err < 0.05 and abs(mass - 1.0) < 1e-3 and elapsed < 30.0
    _report(
        3,
        "transition density",
        ok,
        f"mean err {mean_err:.4f} (<0.02), cov Frob rel {cov_err:.4f} (<0.05), "
        f"density mass {mass:.6f} (1 +- 1e-3), {elapsed:.1f}s (<30s)",
    )


def test_criterion_4_deterministic_oscillator():
    t0 = time.perf_counter()
    hp = Hyperparams(m=1.0, zeta=0.2, k=(2.0,), q0=0.0, dt=0.05)
    cfg = PaoConfig(hp=hp, specs=(AttractorSpec("globalbest"),))
    problem = make_problem("dejong", 2)

    # particle 0 sits exactly on the attractor; particle 1 is displaced
    pos = np.array([[0.0, 0.0], [1.0, 0.5]])
    fit = problem.evaluate(pos)
    swarm = Swarm(
        positions=pos,
        velocities=np.zeros((2, 2)),
        fitness=fit,
        local_best_pos=pos.copy(),
        local_best_fit=fit.copy(),
        global_best_pos=np.zeros(2),
        global_best_fit=0.0,
    )

    rng = np.random.default_rng(0)
    trace = [1.0]
    fixed_point_exact = True
    for _ in range(400):
        swarm = step_swarm(swarm, cfg, problem, rng)
        fixed_point_exact &= bool(np.all(swarm.positions[0] == 0.0) and np.all(swarm.velocities[0] == 0.0))
        trace.append(float(swarm.positions[1, 0]))

    peaks = [
        trace[i]
        for i in range(1, len(trace) - 1)
        if trace[i] > trace[i - 1] and trace[i] >= trace[i + 1] and trace[i] > 1e-3
    ]
    target = np.exp(-2.0 * np.pi * hp.zeta / np.sqrt(1.0 - hp.zeta**2))
    ratios = [b / a for a, b in zip(peaks, peaks[1:])]
    ratio_ok = len(ratios) >= 2 and all(abs(r / target - 1.0) < 0.10 for r in ratios)

    elapsed = time.perf_counter() - t0
    ok = ratio_ok and fixed_point_exact and elapsed < 1.0
    _report(
        4,
        "deterministic oscillator limit",
        ok,
        f"peak ratios {[f'{r:.4f}' for r in ratios]} vs {target:.4f} (+-10%), "
        f"attractor fixed point exact: {fixed_point_exact}, {elapsed:.2f}s (<1s)",
    )


def test_criterion_5_naive_equals_tensorised():
    t0 = time.perf_counter()
    problem = make_problem("rastrigin", 4)
    cfg = PaoConfig()
    n, gens = 10, 10

    swarm0 = initialize_swarm(problem, n, cfg, np.random.default_rng(derive_seed(5, 0)))

    swarm = swarm0
    step_rng = np.random.default_rng(derive_seed(5, 1))
    for g in range(gens):
        swarm = step_swarm(swarm, cfg, problem, step_rng)

    # naive route: per-element loop, fresh matrix fraction decomposition at
    # the generation's actual noise variance instead of the unit-q kernel
    f = build_drift_matrix(cfg.hp)
    k0, k1 = cfg.hp.k
    ktot = k0 + k1
    state = np.stack((swarm0.positions, swarm0.velocities), -1)
    lb_pos = swarm0.local_best_pos.copy()
    lb_fit = swarm0.local_best_fit.copy()
    gb_pos = swarm0.global_best_pos.copy()
    gb_fit = swarm0.global_best_fit
    # twin of the step's generator: the default attractors draw nothing, and
    # the step draws one (n, D, 2) block whenever the variance is positive
    twin = np.random.default_rng(derive_seed(5, 1))
    for g in range(gens):
        nu = float(np.sum((state[:, :, 0].mean(axis=0) - gb_pos) ** 2))
        var = cfg.hp.q0 * nu
        a_g, s_g = matrix_fraction_decomposition(f, cfg.hp.dt)
        h_g = psd_cholesky((var if var > 0.0 else 1.0) * s_g)
        noise = twin.standard_normal((n, problem.dim, 2)) if var > 0.0 else None
        new = np.empty_like(state)
        for i in range(n):
            for j in range(problem.dim):
                centroid = (k0 * lb_pos[i, j] + k1 * gb_pos[j]) / ktot
                xv = np.array([state[i, j, 0] - centroid, state[i, j, 1]])
                nxt = a_g @ xv
                if var > 0.0:
                    nxt = nxt + h_g @ noise[i, j]
                new[i, j, 0] = nxt[0] + centroid
                new[i, j, 1] = nxt[1]
        new[:, :, 0] = np.clip(new[:, :, 0], problem.lower, problem.upper)
        fit = problem.evaluate(new[:, :, 0])
        for i in range(n):
            if fit[i] < lb_fit[i]:
                lb_fit[i] = fit[i]
                lb_pos[i] = new[i, :, 0]
        best = int(np.argmin(lb_fit))
        if lb_fit[best] < gb_fit:
            gb_fit = float(lb_fit[best])
            gb_pos = lb_pos[best].copy()
        state = new

    state_err = float(np.max(np.abs(state - np.stack((swarm.positions, swarm.velocities), -1))))
    lb_err = float(np.max(np.abs(lb_pos - swarm.local_best_pos)))
    gb_err = float(np.max(np.abs(gb_pos - swarm.global_best_pos)))
    elapsed = time.perf_counter() - t0
    ok = state_err < 1e-12 and lb_err < 1e-12 and gb_err < 1e-12 and elapsed < 5.0
    _report(
        5,
        "naive loop equals the sampler step",
        ok,
        f"state err {state_err:.2e}, local best err {lb_err:.2e}, "
        f"global best err {gb_err:.2e} (<1e-12 over {gens} gens), {elapsed:.1f}s (<5s)",
    )


def test_criterion_6_benchmark_sanity():
    worst = 0.0
    failures = []
    for name in PROBLEM_NAMES:
        p = make_problem(name, 2)
        xstar = np.asarray(p.optimum_pos, dtype=float)
        fstar = float(p.evaluate(xstar[None, :])[0])
        ref = SCHWEFEL_REF_2D if name == "schwefel" else 0.0
        worst = max(worst, abs(fstar - ref))
        if abs(fstar - p.optimum_val) > 1e-9:
            failures.append(f"{name}: stated optimum off by {abs(fstar - p.optimum_val):.2e}")
        for j in range(2):
            for h in (1e-3, 1e-2):
                for s in (1.0, -1.0):
                    xp = xstar.copy()
                    xp[j] += s * h
                    if float(p.evaluate(xp[None, :])[0]) < fstar:
                        failures.append(f"{name}: descent at x*{s:+.0f}*{h}e_{j}")
    ok = worst <= 1e-9 and not failures
    _report(
        6,
        "benchmark optima and minimality",
        ok,
        f"worst |f(x*) - ref| {worst:.2e} (<=1e-9), "
        f"perturbation failures: {failures or 'none'}",
    )


@pytest.fixture(scope="module")
def desk_scale_finals():
    """Final shifted best per (optimizer, problem) over 20 seeded repetitions."""
    finals = {"pao": {}, "pso": {}}
    for name in PROBLEM_NAMES:
        problem = make_problem(name, 2)
        for opt in finals:
            finals[opt][name] = np.array(
                [
                    run_one(opt, problem, 100, 100, derive_seed(0, r)).final_shifted_best()
                    for r in range(20)
                ]
            )
    return finals


def test_criterion_7a_unimodal_medians(desk_scale_finals):
    targets = ("dejong", "hyperellipsoid", "rotatedhyperellipsoid", "powersum")
    medians = {t: float(np.median(desk_scale_finals["pao"][t])) for t in targets}
    ok = all(v < 1e-3 for v in medians.values())
    _report(
        "7a",
        "unimodal medians below 1e-3",
        ok,
        ", ".join(f"{t} {v:.1e}" for t, v in medians.items()),
    )


def test_criterion_7b_beats_pso(desk_scale_finals):
    wins = []
    losses = []
    for name in PROBLEM_NAMES:
        mp = float(np.median(desk_scale_finals["pao"][name]))
        ms = float(np.median(desk_scale_finals["pso"][name]))
        (wins if mp <= ms else losses).append(f"{name} ({mp:.1e} vs {ms:.1e})")
    ok = len(wins) >= 7
    _report(
        "7b",
        "median <= PSO on >= 7 of 9 problems",
        ok,
        f"{len(wins)}/9 wins; losses: {'; '.join(losses) or 'none'}",
    )


def test_criterion_7c_multimodal_refinement(desk_scale_finals):
    counts = {
        name: int(np.sum(desk_scale_finals["pao"][name] < 1e-6))
        for name in ("rastrigin", "ackley")
    }
    ok = all(c >= 10 for c in counts.values())
    _report(
        "7c",
        "below 1e-6 in >= 10/20 seeds on rastrigin and ackley",
        ok,
        ", ".join(f"{k} {v}/20" for k, v in counts.items()),
    )


def test_criterion_8_determinism_and_accounting():
    problem = make_problem("rastrigin", 2)
    n, gens = 12, 25
    mismatches = []
    for opt in ("pao", "pso", "qpso", "de", "sade"):
        r1 = run_one(opt, problem, n, gens, 777)
        r2 = run_one(opt, problem, n, gens, 777)
        s1 = json.dumps(r1.to_json_dict(include_duration=False))
        s2 = json.dumps(r2.to_json_dict(include_duration=False))
        if s1 != s2:
            mismatches.append(f"{opt}: rerun not byte-identical")
        if r1.evals != n * (gens + 1):
            mismatches.append(f"{opt}: {r1.evals} evals, expected {n * (gens + 1)}")
    ok = not mismatches
    _report(
        8,
        "determinism and evaluation accounting",
        ok,
        f"5 optimizers, {n}x{gens}: {mismatches or 'byte-identical, n*(gens+1) evals'}",
    )
