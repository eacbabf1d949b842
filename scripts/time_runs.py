#!/usr/bin/env python3
"""Print the in-process ms/run table: each optimiser on rastrigin in 2D and
8D at pop 100, the median wall time of one ``run_one`` call over seeds
0 .. N-1, with numeric libraries held to one thread.

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
