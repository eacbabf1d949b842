"""Tests of the benchmark's own checks: each is fed a deliberately wrong
output and must reject it, and accept the right one.

    python3 -m pytest -q bench/test_checks.py
"""

import copy
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import make_reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import pao.engine  # noqa: E402
from pao.benchmarks import make_problem  # noqa: E402


def _record(problem="dejong", dim=2, pop=4, gens=3, pos=(0.1, -0.2)):
    f = checks.objective(problem, pos)
    bests = [f + 3.0, f + 1.0, f + 1.0, f][: gens + 1]
    f_opt = checks.optimum(problem, dim)
    return {
        "problem": problem,
        "dim": dim,
        "pop": pop,
        "gens": gens,
        "evals": pop * (gens + 1),
        "history": [
            {"g": g, "best": b, "mean": b + 1.0, "shifted_best": b - f_opt} for g, b in enumerate(bests)
        ],
    }, list(pos)


def test_good_record_passes():
    rec, pos = _record()
    assert checks.check_run("r", rec, 4, 3, pos, counted_points=16) == []


def test_non_monotone_history_rejected():
    rec, pos = _record()
    rec["history"][2]["best"] += 5.0
    assert any("increases" in p for p in checks.check_run("r", rec, 4, 3, pos))


def test_wrong_history_length_rejected():
    rec, pos = _record()
    rec["history"].pop()
    assert checks.check_run("r", rec, 4, 3, pos)


def test_wrong_evaluation_counts_rejected():
    rec, pos = _record()
    assert checks.check_run("r", rec, 4, 3, pos, counted_points=15)
    rec["evals"] = 12
    assert checks.check_run("r", rec, 4, 3, pos)


def test_best_below_optimum_rejected():
    # what bounds_policy="none" produces on schwefel: a best outside the box
    rec, pos = _record(problem="schwefel", pos=(420.9687, 420.9687))
    bad = copy.deepcopy(rec)
    for h in bad["history"]:
        h["best"] -= 1e3
        h["shifted_best"] -= 1e3
    assert checks.check_run("r", rec, 4, 3, pos) == []
    assert any("below the optimum" in p for p in checks.check_run("r", bad, 4, 3))


def test_final_best_must_match_its_position():
    rec, pos = _record(problem="rastrigin")
    assert checks.check_run("r", rec, 4, 3, [0.11, -0.2])
    assert any("outside the box" in p for p in checks.check_run("r", rec, 4, 3, [0.1, -6.0]))


@pytest.mark.parametrize("problem", checks.PROBLEMS)
def test_own_objectives_agree_with_the_package(problem):
    rng = np.random.default_rng(0)
    p = make_problem(problem, 5)
    for x in rng.uniform(p.lower, p.upper, size=(20, 5)):
        assert math.isclose(checks.objective(problem, x), p.objective(x), rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(checks.optimum(problem, 5), p.optimum_val, rel_tol=1e-12, abs_tol=0.0)


def _runs():
    recs = []
    for opt, finals in (("pao", (1.0, 3.0, 2.0)), ("pso", (5.0, 4.0, 6.0))):
        for i, f in enumerate(finals):
            recs.append({"optimizer": opt, "problem": "dejong", "dim": 2,
                         "history": [{"shifted_best": f + 1.0}, {"shifted_best": f}], "run_id": f"{opt}{i}"})
    return recs


def test_summary_median_checked():
    recs = _runs()
    entries = [{"optimizer": "pao", "problem": "dejong", "dim": 2, "runs": 3, "median": 2.0},
               {"optimizer": "pso", "problem": "dejong", "dim": 2, "runs": 3, "median": 5.0}]
    assert checks.check_summary({"entries": entries}, recs) == []
    entries[1]["median"] = 4.0
    assert checks.check_summary({"entries": entries}, recs)


def test_plot_csv_mean_checked():
    recs = _runs()
    good = "generation,pao,pso\n0,3.0,6.0\n1,2.0,5.0\n"
    assert checks.check_plot_csv(good, "dejong", 2, recs) == []
    assert checks.check_plot_csv(good.replace("5.0", "5.5"), "dejong", 2, recs)


def _reference(index):
    with open(os.path.join(BENCH, "kernel_reference.json")) as fh:
        return json.load(fh)["configs"][index]


def test_reference_file_is_reproducible():
    import mpmath

    mpmath.mp.dps = make_reference.DPS
    for index in (0, 101, 239):
        c = _reference(index)
        a, sigma = make_reference.reference(c["m"], c["zeta"], c["k"], c["dt"])
        assert c["A"] == make_reference._strings(a)
        assert c["Sigma"] == make_reference._strings(sigma)


def test_perturbed_sigma_fails_the_reference_check():
    c = _reference(50)
    sigma = [[float(v) for v in row] for row in c["Sigma"]]
    assert checks.max_rel_err(sigma, sigma) == 0.0
    off = [[v * (1.0 + 1e-8) for v in row] for row in sigma]
    assert checks.max_rel_err(off, sigma) > checks.KERNEL_RTOL


def test_wrong_factor_rejected():
    sigma = [[2.0, 0.5], [0.5, 1.0]]
    h = np.linalg.cholesky(np.array(sigma)).tolist()
    assert checks.check_factor(h, sigma) == []
    assert checks.check_factor([[h[0][0], 0.0], [h[1][0], h[1][1] * 1.01]], sigma)
    assert checks.check_factor([[h[0][0], 0.1], [h[1][0], h[1][1]]], sigma)


def _draws(sigma_draw, n=4000, seed=0):
    a = [[0.9, 0.1], [-0.2, 0.8]]
    sigma = [[2.0, 0.5], [0.5, 1.0]]
    rng = np.random.default_rng(seed)
    x_from = rng.standard_normal((n, 2))
    v = 10.0 ** rng.uniform(-2.0, 1.0, n)
    chol = np.linalg.cholesky(np.array(sigma_draw))
    x_to = x_from @ np.array(a).T + np.sqrt(v)[:, None] * (rng.standard_normal((n, 2)) @ chol.T)
    lps = [checks.gaussian_terms(a, sigma, x_from[j], x_to[j], v[j])[1] for j in range(n)]
    return a, sigma, x_from.tolist(), x_to.tolist(), v.tolist(), lps


def test_draws_from_the_reference_pass():
    a, sigma, x_from, x_to, v, lps = _draws([[2.0, 0.5], [0.5, 1.0]])
    found, total = checks.check_draws(a, sigma, x_from, x_to, v, lps)
    assert found == [] and checks.check_pooled_chi2(total, len(v)) == []


def test_wrong_logpdf_rejected():
    a, sigma, x_from, x_to, v, lps = _draws([[2.0, 0.5], [0.5, 1.0]], n=50)
    lps[7] += 1e-3
    assert checks.check_draws(a, sigma, x_from, x_to, v, lps)[0]


def test_draws_with_a_wrong_covariance_fail_chi2():
    a, sigma, x_from, x_to, v, lps = _draws([[2.4, 0.6], [0.6, 1.2]])
    _, total = checks.check_draws(a, sigma, x_from, x_to, v, lps)
    assert checks.check_pooled_chi2(total, len(v))


def test_kernel_sweep_counts_a_perturbed_sigma_as_failed(monkeypatch):
    wl = workloads.build("kernel-sweep", 0, BENCH, workloads.RefClock())
    wl.configs = wl.configs[:3]
    wl.ops_per_round = 3
    times, failed, found = wl.run_round()
    assert (len(times), failed, found, wl.inaccurate_per_round) == (3, 0, [], 0)

    build = pao.kernel.build_kernel

    def perturbed(hp):
        k = build(hp)
        return dataclasses.replace(k, sigma_unit=k.sigma_unit * (1.0 + 1e-8), h=k.h.copy())

    monkeypatch.setattr(pao.kernel, "build_kernel", perturbed)
    wl.digests = None
    _, failed, _ = wl.run_round()
    assert failed == 3 and wl.inaccurate_per_round == 3


def test_pao_runs_reject_a_wrong_record(monkeypatch):
    wl = workloads.PaoRuns(
        "t", 0, [("dejong", 8, 2, "default"), ("ackley", 8, 2, "stochastic")], workloads.RefClock()
    )
    assert wl.run_round()[1:] == (0, [])
    assert wl.rerun() == []

    run = pao.engine.run_pao

    def broken(*args):
        rec = run(*args)
        rec.history[1]["best"] = rec.history[0]["best"] + 1.0
        return rec

    monkeypatch.setattr(pao.engine, "run_pao", broken)
    found = wl.run_round()[2]
    assert any("increases" in p for p in found)
    assert any("previous round" in p for p in found)


def test_ref_clock_scales_wall_time_by_the_calibration(monkeypatch):
    # a machine running at half the reference speed: the unit takes 2 ms
    monkeypatch.setattr(workloads, "calibration_s", lambda: 2.0 * workloads.CAL_REF_S)
    clock = workloads.RefClock()
    clock.start()
    t0 = time.perf_counter()
    time.sleep(0.02)
    ref = clock.stop()
    wall = time.perf_counter() - t0
    assert ref == pytest.approx(0.5 * wall, rel=0.05)
    assert clock.factor() == 0.5


def test_desk_mix_is_balanced():
    specs = workloads.desk_specs()
    assert len(specs) == 27
    for menu in workloads.MENUS:
        assert sorted(p for p, _, _, m in specs if m == menu) == sorted(checks.PROBLEMS)
    for n, dim in workloads.DESK_SIZES:
        assert sorted(p for p, nn, d, _ in specs if (nn, d) == (n, dim)) == sorted(checks.PROBLEMS)


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "peak_rss_mb"}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.METRICS
