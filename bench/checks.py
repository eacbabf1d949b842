"""Correctness checks of the benchmark, written from the problem statement
rather than from the package under test.

Each check returns a list of human-readable problems (empty when the output
is right), so a workload can report every fault it finds in one run.  The
objective formulas, boxes and optima below are the benchmark's own scalar
transcriptions of the nine test functions; they share no code with
``pao.benchmarks``.
"""

import math
import statistics

# name -> half-width of the box [-w, w]^n
BOXES = {
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
PROBLEMS = tuple(BOXES)

# min over [-500, 500] of -x sin(sqrt|x|), attained at x = 420.96874635998...
SCHWEFEL_MIN_PER_DIM = -418.9828872724337063
GRIEWANGK_DENOMINATOR = 400.0

# Sigma and A must match the high-precision reference to this max-norm
# relative error; a kernel output beyond it is a failed operation.
KERNEL_RTOL = 1e-10


def objective(name, x):
    """Objective value of problem ``name`` at the point ``x`` (a sequence)."""
    x = [float(v) for v in x]
    n = len(x)
    if name == "dejong":
        return sum(v * v for v in x)
    if name == "hyperellipsoid":
        return sum((i + 1) * v * v for i, v in enumerate(x))
    if name == "rotatedhyperellipsoid":
        return sum(sum(x[j] * x[j] for j in range(i + 1)) for i in range(n))
    if name == "powersum":
        return sum(abs(v) ** (i + 2) for i, v in enumerate(x))
    if name == "rosenbrock":
        return sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(n - 1))
    if name == "griewangk":
        prod = 1.0
        for i, v in enumerate(x):
            prod *= math.cos(v / math.sqrt(i + 1))
        return sum(v * v for v in x) / GRIEWANGK_DENOMINATOR - prod + 1.0
    if name == "rastrigin":
        return 10.0 * n + sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) for v in x)
    if name == "ackley":
        s1 = math.sqrt(sum(v * v for v in x) / n)
        s2 = sum(math.cos(2.0 * math.pi * v) for v in x) / n
        return -20.0 * math.exp(-0.2 * s1) - math.exp(s2) + 20.0 + math.e
    if name == "schwefel":
        return sum(-v * math.sin(math.sqrt(abs(v))) for v in x)
    raise KeyError(f"unknown problem {name!r}")


def optimum(name, dim):
    """Known global minimum value of the problem in ``dim`` dimensions."""
    return SCHWEFEL_MIN_PER_DIM * dim if name == "schwefel" else 0.0


def _tol(value):
    return 1e-9 * max(1.0, abs(value))


def check_run(label, rec, pop, gens, best_pos=None, counted_points=None):
    """Contract of one optimiser run, given its serialised record ``rec``.

    ``best_pos`` is the final best position (checked against the record's
    final best through the benchmark's own objective, and against the box);
    ``counted_points`` is the number of objective evaluations the benchmark
    counted itself.
    """
    out = []
    name, dim = rec["problem"], rec["dim"]
    hist = rec["history"]
    if rec["pop"] != pop or rec["gens"] != gens:
        out.append(f"{label}: pop/gens {rec['pop']}/{rec['gens']}, expected {pop}/{gens}")
    if len(hist) != gens + 1:
        out.append(f"{label}: {len(hist)} history entries for {gens} generations")
        return out
    if [h["g"] for h in hist] != list(range(gens + 1)):
        out.append(f"{label}: history generations are not 0..{gens}")
    best = [h["best"] for h in hist]
    if not all(math.isfinite(b) for b in best):
        out.append(f"{label}: non-finite best in history")
        return out
    if any(b2 > b1 for b1, b2 in zip(best, best[1:])):
        out.append(f"{label}: best-so-far history increases")
    evals = pop * (gens + 1)
    if rec["evals"] != evals:
        out.append(f"{label}: evals {rec['evals']}, expected pop x (gens + 1) = {evals}")
    if counted_points is not None and counted_points != evals:
        out.append(f"{label}: {counted_points} objective evaluations counted, expected {evals}")
    f_opt = optimum(name, dim)
    tol = _tol(f_opt)
    for h in hist:
        if h["shifted_best"] < -tol:
            out.append(f"{label}: shifted_best {h['shifted_best']!r} below the optimum at g={h['g']}")
            break
        if abs(h["shifted_best"] - (h["best"] - f_opt)) > tol:
            out.append(f"{label}: shifted_best {h['shifted_best']!r} != best - optimum at g={h['g']}")
            break
    if best_pos is not None:
        pos = [float(v) for v in best_pos]
        half = BOXES[name]
        if len(pos) != dim:
            out.append(f"{label}: final best position has {len(pos)} coordinates, expected {dim}")
        elif not all(-half <= v <= half for v in pos):
            out.append(f"{label}: final best position lies outside the box [-{half}, {half}]")
        else:
            f = objective(name, pos)
            if abs(f - best[-1]) > _tol(f):
                out.append(f"{label}: final best {best[-1]!r} != objective {f!r} at its position")
    return out


def check_summary(summary, recs):
    """Summary medians against medians the benchmark computes from ``recs``."""
    groups = {}
    for r in recs:
        groups.setdefault((r["optimizer"], r["problem"], r["dim"]), []).append(
            r["history"][-1]["shifted_best"]
        )
    out = []
    entries = {(e["optimizer"], e["problem"], e["dim"]): e for e in summary["entries"]}
    if set(entries) != set(groups):
        return [f"summary has {len(entries)} groups, records have {len(groups)}"]
    for key, finals in groups.items():
        med = statistics.median(finals)
        got = entries[key]["median"]
        if entries[key]["runs"] != len(finals) or not math.isclose(got, med, rel_tol=1e-12, abs_tol=1e-300):
            out.append(f"summary median of {key}: {got!r}, records give {med!r}")
    return out


def check_plot_csv(text, problem, dim, recs):
    """Mean-convergence CSV of one (problem, dim) against means the benchmark
    computes from ``recs``."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    if header[0] != "generation":
        return [f"{problem}_{dim}d.csv: first column is {header[0]!r}"]
    out = []
    for col, opt in enumerate(header[1:], start=1):
        runs = [r for r in recs if (r["optimizer"], r["problem"], r["dim"]) == (opt, problem, dim)]
        if not runs:
            out.append(f"{problem}_{dim}d.csv: column {opt!r} has no records")
            continue
        gens = len(runs[0]["history"])
        if len(lines) - 1 != gens:
            out.append(f"{problem}_{dim}d.csv: {len(lines) - 1} rows for {gens} generations")
            continue
        for g in range(gens):
            mean = math.fsum(r["history"][g]["shifted_best"] for r in runs) / len(runs)
            got = float(lines[g + 1].split(",")[col])
            if not math.isclose(got, mean, rel_tol=1e-12, abs_tol=1e-300):
                out.append(f"{problem}_{dim}d.csv: {opt} mean at g={g} is {got!r}, records give {mean!r}")
                break
    return out


def max_rel_err(got, ref):
    """Max-norm relative error of a matrix against its reference."""
    scale = max(abs(v) for row in ref for v in row)
    return max(abs(g - r) for grow, rrow in zip(got, ref) for g, r in zip(grow, rrow)) / scale


def check_factor(h, sigma):
    """H is lower triangular and H H^T reproduces Sigma."""
    out = []
    if h[0][1] != 0.0:
        out.append("Cholesky factor is not lower triangular")
    hht = [[sum(h[i][k] * h[j][k] for k in range(2)) for j in range(2)] for i in range(2)]
    scale = max(abs(v) for row in sigma for v in row)
    if max(abs(hht[i][j] - sigma[i][j]) for i in range(2) for j in range(2)) > 1e-12 * scale:
        out.append("H H^T != Sigma")
    return out


def gaussian_terms(a_ref, sigma_ref, x_from, x_to, variance):
    """Squared Mahalanobis distance and log-density of one transition under
    the reference kernel: x_to ~ N(A x_from, variance * Sigma)."""
    r0 = x_to[0] - (a_ref[0][0] * x_from[0] + a_ref[0][1] * x_from[1])
    r1 = x_to[1] - (a_ref[1][0] * x_from[0] + a_ref[1][1] * x_from[1])
    s00, s01, s11 = (variance * sigma_ref[0][0], variance * sigma_ref[0][1], variance * sigma_ref[1][1])
    det = s00 * s11 - s01 * s01
    maha = (s11 * r0 * r0 - 2.0 * s01 * r0 * r1 + s00 * r1 * r1) / det
    return maha, -math.log(2.0 * math.pi) - 0.5 * math.log(det) - 0.5 * maha


def check_draws(a_ref, sigma_ref, x_from, x_to, variances, logpdfs):
    """Scored draws of one config against the reference Gaussian.

    Returns (problems, sum of squared Mahalanobis distances).  The mean of n
    squared distances of correct draws is chi^2_2 / n distributed: mean 2,
    standard deviation 2 / sqrt(n).  Eight standard deviations keep a false
    alarm below 1e-10 per config at n = 128.
    """
    out = []
    total = 0.0
    for j, v in enumerate(variances):
        maha, lp_ref = gaussian_terms(a_ref, sigma_ref, x_from[j], x_to[j], v)
        total += maha
        if not abs(logpdfs[j] - lp_ref) <= 1e-6 * max(1.0, abs(lp_ref)):
            out.append(f"draw {j}: transition_logpdf {logpdfs[j]!r}, reference {lp_ref!r}")
            break
    n = len(variances)
    if abs(total / n - 2.0) > 8.0 * 2.0 / math.sqrt(n):
        out.append(f"mean squared Mahalanobis distance {total / n:.4f} is not chi^2_2 (mean 2)")
    return out, total


def check_pooled_chi2(total, n):
    """Pooled draws of a round: mean squared distance within 6 sd of 2."""
    if n and abs(total / n - 2.0) > 6.0 * 2.0 / math.sqrt(n):
        return [f"pooled mean squared Mahalanobis distance {total / n:.5f} over {n} draws is not 2"]
    return []
