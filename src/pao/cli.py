"""Command-line harness for single runs, benchmark suites, plot data and
kernel inspection.

``bench`` is the comparison experiment: it runs a suite and writes its
records, summary and plot CSVs; ``plot-data`` re-plots a records file.

A flat JSON config file can supply the command's flag values (``run``:
optimizer, problem, dim, pop, gens, reps, seed, out; ``bench``: optimizers,
pop, gens, reps, seed), griewangk_denominator, and the PAO-specific keys of
``PaoConfig.params_dict`` (m, zeta, k, q0, dt, attractors, bounds_policy,
velocity_init), which ``run`` accepts only with optimizer pao; explicit
command-line flags win over the config, and any other key is rejected.
Each command merges its config and flags once and passes on only the values
the user gave, so every default is the library's own: ``BenchmarkSuite``'s
for the suite and run sizes and the seed, ``PaoConfig.from_params``'s for
the PAO keys.  ``run`` alone adds its own: pao on 2-D dejong, one repetition.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from .benchmarks import GRIEWANGK_DENOMINATOR, PROBLEM_NAMES, make_problem
from .engine import DEFAULT_PAO, PaoConfig
from .harness import (
    aggregate_convergence,
    BenchmarkSuite,
    cell_processes,
    derive_seed,
    emit_plot_data,
    format_summary,
    OPTIMIZER_IDS,
    run_cell,
    run_suite,
    standard_suite,
    SUITES,
)
from .kernel import Hyperparams, build_kernel
from .records import read_jsonl, write_jsonl
from .settings import to_choice, to_int, to_items

PAO_KEYS = tuple(DEFAULT_PAO.params_dict())
RUN_KEYS = ("optimizer", "problem", "dim", "pop", "gens", "reps", "seed", "out", "griewangk_denominator")
BENCH_KEYS = ("optimizers", "pop", "gens", "reps", "seed", "griewangk_denominator") + PAO_KEYS
# integer key -> the domain it is read in here, or None; reading the seed's
# here makes run and bench refuse a bad seed alike, by its key
INT_KEYS = {"dim": None, "pop": None, "gens": None, "reps": None, "seed": "in [0, 2**64)"}
# name key -> the names it may take; each entry of `optimizers` takes OPTIMIZER_IDS
NAME_KEYS = {"optimizer": OPTIMIZER_IDS, "problem": PROBLEM_NAMES}
# list keys that a config may also give as one comma-separated string
LIST_KEYS = ("optimizers", "attractors", "k")


def _load_config(path, keys) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a flat JSON object")
    _check_keys(path, cfg, keys)
    return cfg


def _check_keys(path, cfg: dict, keys, context=""):
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ValueError(
            f"config {path} has unknown keys {unknown}{context}; known keys: {', '.join(keys)}"
        )


def _given(args, keys) -> dict:
    """The config file's values under the command's flags: only the values
    the user gave, comma-separated lists split, integer keys checked and
    names checked and normalised.  A config value is checked even where a
    flag overrides it."""
    flags = {key: v for key, v in vars(args).items() if key in keys and v is not None}
    return {**_read(_load_config(args.config, keys)), **_read(flags)}


def _read(given: dict) -> dict:
    for key in LIST_KEYS:
        if isinstance(given.get(key), str):
            given[key] = _split(given[key])
    for key in [key for key in INT_KEYS if key in given]:
        given[key] = to_int(f"config key {key!r}", given[key], INT_KEYS[key])
    for key in [key for key in NAME_KEYS if key in given]:
        given[key] = to_choice(f"config key {key!r}", given[key], NAME_KEYS[key])
    if "optimizers" in given:
        what = "config key 'optimizers'"
        given["optimizers"] = [to_choice(what, o, OPTIMIZER_IDS) for o in to_items(what, given["optimizers"])]
    if not isinstance(given.get("out", ""), str):
        raise ValueError(f"config key 'out' must be a path string, got {given['out']!r}")
    return given


def _split(text):
    return [v.strip() for v in text.split(",") if v.strip()]


def _cmd_run(args) -> int:
    given = _given(args, RUN_KEYS + PAO_KEYS)
    optimizer = given.get("optimizer", "pao")
    is_pao = optimizer == "pao"
    if not is_pao:
        _check_keys(args.config, given, RUN_KEYS, f" for optimizer {optimizer!r}")
    dim = given.get("dim", 2)
    problem = make_problem(
        given.get("problem", "dejong"), dim, given.get("griewangk_denominator", GRIEWANGK_DENOMINATOR)
    )
    pop = given.get("pop", BenchmarkSuite.pop)
    gens = given.get("gens", BenchmarkSuite.gens)
    seed = given.get("seed", BenchmarkSuite.base_seed)
    reps = to_int("reps", given.get("reps", 1), ">= 1")
    cfg = PaoConfig.from_params({key: given[key] for key in PAO_KEYS if key in given}) if is_pao else None
    records = run_cell(optimizer, problem, pop, gens, [derive_seed(seed, rep) for rep in range(reps)], cfg)
    if "out" in given:
        write_jsonl(records, given["out"])
    for rec in records:
        print(
            f"{rec.run_id}: final best {rec.final_best():.6e} "
            f"(shifted {rec.final_shifted_best():.6e}), {rec.evals} evaluations"
        )
    return 0


def _cmd_bench(args) -> int:
    given = _given(args, BENCH_KEYS)
    if "seed" in given:
        given["base_seed"] = given.pop("seed")
    pao_params = {key: given.pop(key) for key in PAO_KEYS if key in given}
    if pao_params:
        given["pao"] = PaoConfig.from_params(pao_params)
    suite = standard_suite(args.suite, **given)
    t0 = time.perf_counter()
    summary = run_suite(suite, args.out)
    plot_dir = os.path.join(args.out, "plots")
    paths = _plot(args.out, plot_dir)
    print(format_summary(summary))
    runs = sum(entry["runs"] for entry in summary["entries"])
    processes = cell_processes(len(suite.optimizers) * len(suite.problems))
    print(f"{runs} runs in {time.perf_counter() - t0:.1f}s on {processes} process(es) -> {args.out}")
    print(f"plot data: {len(paths)} CSVs under {plot_dir}")
    return 0


def _plot(in_dir, out_dir) -> list:
    """Write the mean-convergence CSVs of ``in_dir/records.jsonl`` under
    ``out_dir`` and return their paths."""
    records = read_jsonl(os.path.join(in_dir, "records.jsonl"))
    return emit_plot_data(aggregate_convergence(records), out_dir)


def _cmd_plot_data(args) -> int:
    for p in _plot(args.in_dir, args.out):
        print(p)
    return 0


def _cmd_kernel_info(args) -> int:
    hp = Hyperparams(m=args.m, zeta=args.zeta, k=_split(args.k), dt=args.dt)
    kernel = build_kernel(hp)
    moduli = np.abs(np.linalg.eigvals(kernel.a))
    fmt = dict(precision=12, suppress_small=False)
    print(f"m={hp.m} zeta={hp.zeta} k={list(hp.k)} (k'={hp.k_total}) dt={hp.dt}")
    print("A =")
    print(np.array2string(np.asarray(kernel.a), **fmt))
    print("Sigma (unit diffusion) =")
    print(np.array2string(np.asarray(kernel.sigma_unit), **fmt))
    print("H (Cholesky factor) =")
    print(np.array2string(np.asarray(kernel.h), **fmt))
    print(f"|eig(A)| = {moduli.tolist()}")
    print(f"spectral radius = {moduli.max()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pao", description="Particle attractor optimisation benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one optimiser on one problem")
    run_p.add_argument("--optimizer", choices=OPTIMIZER_IDS)
    run_p.add_argument("--problem", choices=PROBLEM_NAMES)
    run_p.add_argument("--dim", type=int)
    run_p.add_argument("--pop", type=int)
    run_p.add_argument("--gens", type=int)
    run_p.add_argument("--reps", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", help="JSONL output file")
    run_p.add_argument("--config", help="flat JSON config file")
    run_p.set_defaults(func=_cmd_run)

    bench_p = sub.add_parser(
        "bench", help="run a benchmark suite and write its records, summary and plot CSVs"
    )
    bench_p.add_argument("--suite", required=True, choices=tuple(SUITES))
    bench_p.add_argument("--reps", type=int)
    bench_p.add_argument("--seed", type=int)
    bench_p.add_argument("--out", required=True, help="output directory")
    bench_p.add_argument("--optimizers", help="comma-separated optimiser subset")
    bench_p.add_argument("--config", help="flat JSON config file")
    bench_p.set_defaults(func=_cmd_bench)

    plot_p = sub.add_parser("plot-data", help="aggregate records into plot CSVs")
    plot_p.add_argument("--in", dest="in_dir", required=True, help="suite output directory")
    plot_p.add_argument("--out", required=True, help="CSV output directory")
    plot_p.set_defaults(func=_cmd_plot_data)

    kinfo_p = sub.add_parser("kernel-info", help="print A, Sigma, H and eigenvalue moduli")
    kinfo_p.add_argument("--m", type=float, default=Hyperparams.m)
    kinfo_p.add_argument("--zeta", type=float, default=Hyperparams.zeta)
    kinfo_p.add_argument("--k", default=",".join(map(str, Hyperparams.k)), help="comma-separated stiffnesses")
    kinfo_p.add_argument("--dt", type=float, default=Hyperparams.dt)
    kinfo_p.set_defaults(func=_cmd_kernel_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
