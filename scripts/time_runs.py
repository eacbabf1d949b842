#!/usr/bin/env python3
"""Print the in-process ms/run table: each optimiser on rastrigin in 2D and
8D at pop 100, the median wall time of one ``run_one`` call over seeds
0 .. N-1, with numeric libraries held to one thread.  A second table gives
the kernel layer in us/call: ``build_kernel`` of the default
hyperparameters, and ``sample_transition`` and ``transition_logpdf`` of one
(2,) state.  A third gives the attractor layer in us/call at pop 100:
``weighted_centroid`` of two attractors in 2D, and ``draw_donors`` with
the three donors of DE and ``derand1bin`` and the four of SADE.  Each
us/call figure is the median over batches of repeated calls.

    PYTHONPATH=src python3 scripts/time_runs.py              # 100 generations, 7 seeds
    PYTHONPATH=src python3 scripts/time_runs.py --gens 2 --seeds 1

Each (optimiser, dimension) cell first runs once untimed, so imports and
lazy set-up stay out of the table.  Read the figures against the machine's
own spread: run the script twice before comparing two commits.
"""

import argparse
import os
import statistics
import sys
import time

POP = 100
DIMS = (2, 8)
PROBLEM = "rastrigin"
BATCHES = 25
CALLS = 200  # per batch
CENTROID_K = (1.0, 1.0)  # the default menu's two stiffnesses
DONOR_SIZES = (3, 4)  # DE and derand1bin; SADE
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def time_runs(gens: int, seeds: int) -> dict:
    """(optimiser, dim) -> median ms of one run over ``seeds`` seeds."""
    from pao.benchmarks import make_problem
    from pao.harness import OPTIMIZER_IDS, run_one

    table = {}
    for dim in DIMS:
        problem = make_problem(PROBLEM, dim)
        for opt in OPTIMIZER_IDS:
            run_one(opt, problem, POP, gens, seed=0)
            ms = []
            for seed in range(seeds):
                t0 = time.perf_counter()
                run_one(opt, problem, POP, gens, seed=seed)
                ms.append((time.perf_counter() - t0) * 1e3)
            table[(opt, dim)] = statistics.median(ms)
    return table


def median_us(calls: dict) -> dict:
    """Name -> median us of one call of ``calls[name]`` over BATCHES batches
    of CALLS calls."""
    us = {}
    for name, call in calls.items():
        batches = []
        for _ in range(BATCHES):
            t0 = time.perf_counter()
            for _ in range(CALLS):
                call()
            batches.append((time.perf_counter() - t0) * 1e6 / CALLS)
        us[name] = statistics.median(batches)
    return us


def time_kernel() -> dict:
    """Kernel-layer call -> median us of one call."""
    import numpy as np

    from pao.kernel import Hyperparams, build_kernel, sample_transition, transition_logpdf

    hp = Hyperparams()
    kernel = build_kernel(hp)
    rng = np.random.default_rng(0)
    x, var = rng.standard_normal(2), 0.5
    y = sample_transition(kernel, x, var, rng)
    return median_us({
        "build_kernel": lambda: build_kernel(hp),
        "sample_transition": lambda: sample_transition(kernel, x, var, rng),
        "transition_logpdf": lambda: transition_logpdf(kernel, x, y, var),
    })


def time_attractors() -> dict:
    """``weighted_centroid`` of CENTROID_K's attractors at (POP, 2), then
    ``draw_donors(POP, size)`` per DONOR_SIZES -> median us of one call."""
    import numpy as np

    from pao.attractors import draw_donors, weighted_centroid

    rng = np.random.default_rng(0)
    alpha = rng.standard_normal((len(CENTROID_K), POP, 2))
    return median_us({
        f"weighted_centroid({len(CENTROID_K)}, {POP}, 2)": lambda: weighted_centroid(alpha, CENTROID_K),
        **{f"draw_donors({POP}, {size})": lambda size=size: draw_donors(POP, size, rng) for size in DONOR_SIZES},
    })


def format_us(us: dict) -> str:
    return "\n".join([
        "| " + " | ".join(us) + " |",
        "|" + "----:|" * len(us),
        "| " + " | ".join(f"{v:.2f}" for v in us.values()) + " |",
    ])


def format_table(table: dict) -> str:
    opts = list(dict.fromkeys(opt for opt, _ in table))
    lines = ["| dim | " + " | ".join(opts) + " |", "|----:|" + "----:|" * len(opts)]
    for dim in DIMS:
        lines.append(f"| {dim}D | " + " | ".join(f"{table[(o, dim)]:.1f}" for o in opts) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--gens", type=int, default=100, help="generations per run (default 100)")
    ap.add_argument("--seeds", type=int, default=7, help="timed runs per cell (default 7)")
    args = ap.parse_args(argv)
    if args.gens < 0 or args.seeds < 1:
        ap.error("--gens must be >= 0 and --seeds >= 1")
    # before NumPy loads, which reads these once
    for var in THREAD_VARS:
        os.environ[var] = "1"
    print(f"ms/run on {PROBLEM}, pop {POP}, gens {args.gens}, median of {args.seeds} seeds")
    print(format_table(time_runs(args.gens, args.seeds)))
    print(f"us/call of the kernel layer, one (2,) state, median of {BATCHES} batches of {CALLS} calls")
    print(format_us(time_kernel()))
    print(f"us/call of the attractor layer, pop {POP}, median of {BATCHES} batches of {CALLS} calls")
    print(format_us(time_attractors()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
