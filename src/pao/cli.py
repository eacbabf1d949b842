"""Command-line harness for single runs, benchmark suites, plot data and
kernel inspection.

A flat JSON config file can supply the command's flag values (``run``:
optimizer, problem, dim, pop, gens, reps, seed, out; ``bench``: optimizers,
pop, gens, reps, seed), griewangk_denominator, and the PAO-specific keys (m,
zeta, k, q0, dt, attractors, bounds_policy, velocity_init), which ``run``
accepts only with optimizer pao; explicit command-line flags win over the
config, and any other key is rejected.
"""

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .attractors import AttractorSpec
from .benchmarks import GRIEWANGK_DENOMINATOR, PROBLEM_NAMES, make_problem
from .engine import PaoConfig
from .harness import (
    aggregate_convergence,
    derive_seed,
    emit_plot_data,
    format_summary,
    OPTIMIZER_IDS,
    run_one,
    run_suite,
    standard_suite,
)
from .kernel import Hyperparams, build_kernel
from .records import read_jsonl, write_jsonl

PAO_KEYS = ("m", "zeta", "k", "q0", "dt", "attractors", "bounds_policy", "velocity_init")
RUN_KEYS = ("optimizer", "problem", "dim", "pop", "gens", "reps", "seed", "out", "griewangk_denominator")
BENCH_KEYS = ("optimizers", "pop", "gens", "reps", "seed", "griewangk_denominator") + PAO_KEYS


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


def _pick(cli_value, config: dict, key: str, default):
    if cli_value is not None:
        return cli_value
    if key in config:
        return config[key]
    return default


def _float_list(value):
    if isinstance(value, str):
        return [float(v) for v in value.split(",") if v.strip()]
    return [float(v) for v in value]


def _str_list(value):
    if isinstance(value, str):
        return [v.strip() for v in value.split(",") if v.strip()]
    return list(value)


def _pao_config(config: dict) -> PaoConfig:
    """The config's PAO keys over ``PaoConfig()``'s defaults; k defaults to
    one 1.0 per attractor."""
    base = PaoConfig()
    specs = base.specs
    if "attractors" in config:
        specs = tuple(AttractorSpec.parse(s) for s in _str_list(config["attractors"]))
    given = {key: float(config[key]) for key in ("m", "zeta", "q0", "dt") if key in config}
    return PaoConfig(
        hp=replace(base.hp, k=_float_list(config.get("k", [1.0] * len(specs))), **given),
        specs=specs,
        bounds_policy=config.get("bounds_policy", base.bounds_policy),
        velocity_init=config.get("velocity_init", base.velocity_init),
    )


def _cmd_run(args) -> int:
    config = _load_config(args.config, RUN_KEYS + PAO_KEYS)
    optimizer = _pick(args.optimizer, config, "optimizer", "pao")
    is_pao = optimizer.strip().lower() == "pao"
    if not is_pao:
        _check_keys(args.config, config, RUN_KEYS, f" for optimizer {optimizer!r}")
    problem_name = _pick(args.problem, config, "problem", "dejong")
    dim = int(_pick(args.dim, config, "dim", 2))
    pop = int(_pick(args.pop, config, "pop", 100))
    gens = int(_pick(args.gens, config, "gens", 100))
    reps = int(_pick(args.reps, config, "reps", 1))
    seed = int(_pick(args.seed, config, "seed", 0))
    out = _pick(args.out, config, "out", None)

    problem = make_problem(
        problem_name, dim, float(config.get("griewangk_denominator", GRIEWANGK_DENOMINATOR))
    )
    cfg = _pao_config(config) if is_pao else None
    records = []
    for rep in range(reps):
        rec = run_one(optimizer, problem, pop, gens, derive_seed(seed, rep), cfg)
        rec.run_id = f"{rec.optimizer}_{problem.name}_{dim}d_r{rep:03d}"
        records.append(rec)
    if out is not None:
        write_jsonl(records, out)
    for rec in records:
        print(
            f"{rec.run_id}: final best {rec.final_best():.6e} "
            f"(shifted {rec.final_shifted_best():.6e}), {rec.evals} evaluations"
        )
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args.config, BENCH_KEYS)
    suite = standard_suite(
        args.suite,
        pop=int(config.get("pop", 100)),
        gens=int(config.get("gens", 100)),
        reps=int(_pick(args.reps, config, "reps", 20)),
        base_seed=int(_pick(args.seed, config, "seed", 0)),
        optimizers=tuple(_str_list(_pick(args.optimizers, config, "optimizers", OPTIMIZER_IDS))),
        griewangk_denominator=float(config.get("griewangk_denominator", GRIEWANGK_DENOMINATOR)),
        pao=_pao_config(config),
    )
    summary = run_suite(suite, args.out)
    print(format_summary(summary))
    print(f"\nrecords: {args.out}/records.jsonl, summary: {args.out}/summary.json")
    return 0


def _cmd_plot_data(args) -> int:
    records = read_jsonl(f"{args.in_dir}/records.jsonl")
    curves = aggregate_convergence(records)
    paths = emit_plot_data(curves, args.out)
    for p in paths:
        print(p)
    return 0


def _cmd_kernel_info(args) -> int:
    hp = Hyperparams(
        m=args.m, zeta=args.zeta, k=_float_list(args.k), q0=args.q0, dt=args.dt
    )
    kernel = build_kernel(hp)
    moduli = np.abs(np.linalg.eigvals(kernel.a))
    fmt = dict(precision=12, suppress_small=False)
    print(f"m={hp.m} zeta={hp.zeta} k={list(hp.k)} (k'={hp.k_total}) q0={hp.q0} dt={hp.dt}")
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

    bench_p = sub.add_parser("bench", help="run a full benchmark suite")
    bench_p.add_argument("--suite", required=True, choices=("2d", "8d", "all"))
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
    kinfo_p.add_argument("--q0", type=float, default=Hyperparams.q0)
    kinfo_p.add_argument("--dt", type=float, default=Hyperparams.dt)
    kinfo_p.set_defaults(func=_cmd_kernel_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
