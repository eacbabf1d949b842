#!/usr/bin/env python3
"""Reproduce the nine-problem convergence comparison.

Runs every optimiser on the chosen benchmark suite with a shared evaluation
budget (pop 100, 100 generations) and writes records.jsonl, summary.json and
per-problem mean-convergence CSVs under --out.  Desk scale is 20 repetitions
per (optimiser, problem) cell; --full switches to the published 100.
"""

import argparse
import os
import sys
import time

from pao.harness import (
    aggregate_convergence,
    BenchmarkSuite,
    cell_processes,
    emit_plot_data,
    format_summary,
    run_suite,
    standard_suite,
)
from pao.records import read_jsonl


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", choices=("2d", "8d", "all"), default="all")
    ap.add_argument("--reps", type=int,
                    help=f"repetitions per cell (default {BenchmarkSuite.reps}, or 100 with --full)")
    ap.add_argument("--full", action="store_true",
                    help="published experiment size: 100 repetitions")
    ap.add_argument("--seed", type=int, help=f"base seed (default {BenchmarkSuite.base_seed})")
    ap.add_argument("--out", default="results")
    ap.add_argument("--optimizers", default=None,
                    help="comma-separated subset (default: all five)")
    args = ap.parse_args(argv)

    overrides = {}
    if args.reps is not None or args.full:
        overrides["reps"] = 100 if args.reps is None else args.reps
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.optimizers:
        overrides["optimizers"] = tuple(s.strip() for s in args.optimizers.split(","))
    suite = standard_suite(args.suite, **overrides)

    t0 = time.perf_counter()
    summary = run_suite(suite, args.out)
    records = read_jsonl(os.path.join(args.out, "records.jsonl"))
    plot_dir = os.path.join(args.out, "plots")
    paths = emit_plot_data(aggregate_convergence(records), plot_dir)

    print(format_summary(summary))
    processes = cell_processes(len(suite.optimizers) * len(suite.problems))
    print(f"{len(records)} runs in {time.perf_counter() - t0:.1f}s on {processes} process(es) -> {args.out}")
    print(f"plot data: {len(paths)} CSVs under {plot_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
