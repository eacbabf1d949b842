"""Experiment runner: seeded repetition suites over problems and optimisers,
JSONL persistence, convergence aggregation and plot-ready CSV emission.

A suite is fully reproducible from its config plus base seed: every run's
seed is a 64-bit hash-combine of the base seed with the (optimiser, problem,
repetition) indices, so any single run can be re-executed in isolation.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import baselines, engine
from .attractors import check_pop
from .baselines import DeConfig, PsoConfig, QpsoConfig, SadeConfig
from .benchmarks import GRIEWANGK_DENOMINATOR, PROBLEM_NAMES, make_problem
from .engine import DEFAULT_PAO, PaoConfig
from .records import write_jsonl
from .settings import read_fields, setting, to_choice, to_int

# optimiser id -> (module, runner name, default config).  A runner is looked up
# by name at each call, so one replaced in its module is the one that runs.
_OPTIMIZERS = {
    "pao": (engine, "run_pao", DEFAULT_PAO),
    "pso": (baselines, "run_pso", PsoConfig()),
    "qpso": (baselines, "run_qpso", QpsoConfig()),
    "de": (baselines, "run_de", DeConfig()),
    "sade": (baselines, "run_sade", SadeConfig()),
}
OPTIMIZER_IDS = tuple(_OPTIMIZERS)
# stock suite -> the dimensions its nine problems run in
SUITES = {"2d": (2,), "8d": (8,), "all": (2, 8)}

_MASK = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Deterministic 64-bit seed from the base seed and run indices, each an
    integer in [0, 2**64); anything else raises naming it."""
    h = _splitmix64(to_int("base seed", base_seed, "in [0, 2**64)"))
    for i, v in enumerate(indices):
        h = _splitmix64(h ^ to_int(f"seed index {i}", v, "in [0, 2**64)"))
    return h


@dataclass(frozen=True)
class BenchmarkSuite:
    """One comparison experiment: (problem, dim) pairs x optimisers x seeds."""

    problems: tuple
    pop: int = setting(100, ">= 1")
    gens: int = setting(100, ">= 0")
    reps: int = setting(20, ">= 1")
    optimizers: tuple = OPTIMIZER_IDS
    base_seed: int = setting(0, "in [0, 2**64)")
    griewangk_denominator: float = setting(GRIEWANGK_DENOMINATOR, "> 0")
    pao: PaoConfig = DEFAULT_PAO
    pso: PsoConfig = PsoConfig()
    qpso: QpsoConfig = QpsoConfig()
    de: DeConfig = DeConfig()
    sade: SadeConfig = SadeConfig()

    def __post_init__(self):
        # every cell is checked here, before any run: a setting read_fields
        # refuses (an axis that is not a sequence, a number out of its domain,
        # a config field not of its config type), an empty axis, a problem
        # that is not a (name, dim) pair or that make_problem rejects, an
        # unknown optimiser, or a population an optimiser cannot run with
        read_fields(self)
        for what in ("optimizers", "problems"):
            if not getattr(self, what):
                raise ValueError(f"the suite has no {what}")
        for item in self.problems:
            if isinstance(item, str) or not np.iterable(item) or len(item) != 2:
                raise ValueError(f"problem {item!r} is not a (name, dim) pair")
        problems = [
            make_problem(n, to_int(f"problem ({n!r}, {d!r}): the dimension", d), self.griewangk_denominator)
            for n, d in self.problems
        ]
        object.__setattr__(self, "problems", tuple((p.name, p.dim) for p in problems))
        object.__setattr__(self, "optimizers", tuple(to_choice("optimizer", o, OPTIMIZER_IDS) for o in self.optimizers))
        # a repeated cell would write runs under the ids of the first one
        for what, items in (("optimizer", self.optimizers), ("problem", self.problems)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ValueError(f"duplicate {what} {item!r} in the suite")
        for opt in self.optimizers:
            check_pop(opt, self.pop)
        if "pao" in self.optimizers:
            for spec in self.pao.specs:
                check_pop(spec.kind, self.pop)


def standard_suite(which: str, **overrides) -> BenchmarkSuite:
    """The stock 2d / 8d / all benchmark suites over all nine problems."""
    dims = SUITES[to_choice("suite", which, tuple(SUITES))]
    problems = tuple((name, dim) for dim in dims for name in PROBLEM_NAMES)
    return BenchmarkSuite(problems=problems, **overrides)


def run_one(optimizer: str, problem, n: int, generations: int, seed, cfg=None):
    """Run a single optimiser under the shared run contract.

    ``cfg`` defaults to the optimiser's default config and must otherwise be
    of its config type; ``engine.drive`` reads ``n``, ``generations`` and
    ``seed``.
    """
    opt = to_choice("optimizer", optimizer, OPTIMIZER_IDS)
    module, runner, default = _OPTIMIZERS[opt]
    if cfg is None:
        cfg = default
    elif not isinstance(cfg, type(default)):
        raise ValueError(f"{opt} must be a {type(default).__name__}, got {cfg!r}")
    return getattr(module, runner)(problem, n, generations, cfg, seed)


def run_cell(optimizer: str, problem, n: int, generations: int, seeds, cfg=None) -> list:
    """One run of one (optimiser, problem) cell per seed, in seed order.

    Each record's run id numbers its repetition:
    ``<optimizer>_<problem>_<dim>d_r<rep>``.  ``run_one`` is looked up at each
    run, so one replaced in this module is the one that runs.
    """
    records = []
    for rep, seed in enumerate(seeds):
        rec = run_one(optimizer, problem, n, generations, seed, cfg)
        rec.run_id = f"{rec.optimizer}_{problem.name}_{problem.dim}d_r{rep:03d}"
        records.append(rec)
    return records


def cell_processes(n_cells: int) -> int:
    """How many processes ``run_suite`` runs ``n_cells`` cells on.

    One per CPU this process may run on, at most one per cell; 1 (the cells
    run in this process) where ``fork`` is unavailable.
    """
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(engine.usable_cpus(), n_cells))


def run_suite(suite: BenchmarkSuite, out_path) -> dict:
    """Execute every (optimiser, problem, repetition) run of the suite.

    Writes ``records.jsonl`` and ``summary.json`` under ``out_path`` and
    returns the summary.  Each (optimiser, problem) cell is one job: the
    arguments of one ``run_cell`` call on a problem built here, which
    pickles.  The jobs run on ``cell_processes`` forked workers (in this
    process when that is 1, as under ``taskset -c 0``); the derived seeds
    make the records the same either way, and in cell order.  A forked
    worker inherits the imported package and any ``run_one`` replaced in
    this module.  ``duration_ms`` is each run's wall time in its worker.
    """
    os.makedirs(out_path, exist_ok=True)
    problems = [make_problem(name, dim, suite.griewangk_denominator) for name, dim in suite.problems]
    jobs = [
        (opt, problem, suite.pop, suite.gens,
         [derive_seed(suite.base_seed, oi, pi, rep) for rep in range(suite.reps)], getattr(suite, opt))
        for oi, opt in enumerate(suite.optimizers)
        for pi, problem in enumerate(problems)
    ]
    processes = cell_processes(len(jobs))
    if processes == 1:
        cells = [run_cell(*job) for job in jobs]
    else:
        # imported here, so `import pao` does not load it
        import multiprocessing

        # leaving the block terminates and joins the workers, on success or error
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            cells = pool.starmap(run_cell, jobs, chunksize=1)
    records = [rec for cell in cells for rec in cell]
    write_jsonl(records, os.path.join(out_path, "records.jsonl"))
    summary = summarize(records)
    with open(os.path.join(out_path, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def _cells(records) -> dict:
    """The records of each (optimiser, problem, dim) cell, in input order."""
    cells = {}
    for rec in records:
        cells.setdefault((rec.optimizer, rec.problem, rec.dim), []).append(rec)
    return cells


def summarize(records) -> dict:
    """Median / mean / stddev of the final shifted best per (optimiser, problem)."""
    cells = _cells(records)
    entries = []
    for (opt, prob, dim) in sorted(cells, key=lambda k: (k[1], k[2], _opt_rank(k[0]))):
        finals = np.array(sorted(rec.final_shifted_best() for rec in cells[(opt, prob, dim)]))
        entries.append(
            {
                "optimizer": opt,
                "problem": prob,
                "dim": dim,
                "runs": len(finals),
                "median": float(np.median(finals)),
                "mean": float(finals.mean()),
                "std": float(finals.std()),
            }
        )
    return {"entries": entries}


def _opt_rank(opt):
    return OPTIMIZER_IDS.index(opt) if opt in OPTIMIZER_IDS else len(OPTIMIZER_IDS)


def aggregate_convergence(records) -> dict:
    """Mean convergence curve per (optimiser, problem, dim) cell.

    Returns, per cell, ``{"generation": [...], "mean": [...]}``: the
    arithmetic mean over the cell's runs of the shifted best fitness at each
    generation.  Records are sorted by run id before stacking so the result
    is independent of input order.
    """
    if not records:
        raise ValueError("no records to aggregate")
    horizons = {rec.gens for rec in records}
    if len(horizons) > 1:
        raise ValueError(f"records have mismatched generation horizons: {sorted(horizons)}")
    curves = {}
    for key, recs in _cells(records).items():
        recs = sorted(recs, key=lambda r: r.run_id)
        data = np.array([[h["shifted_best"] for h in r.history] for r in recs])
        curves[key] = {
            "generation": [h["g"] for h in recs[0].history],
            "mean": data.mean(axis=0).tolist(),
        }
    return curves


def emit_plot_data(curves: dict, out_path) -> list:
    """One CSV per problem: ``generation`` column then one mean-curve column
    per optimiser.  Values are written in full precision (round-trip exact)."""
    os.makedirs(out_path, exist_ok=True)
    by_problem = {}
    for (opt, prob, dim), curve in curves.items():
        by_problem.setdefault((prob, dim), {})[opt] = curve
    paths = []
    for (prob, dim) in sorted(by_problem):
        group = by_problem[(prob, dim)]
        opts = sorted(group, key=_opt_rank)
        path = os.path.join(out_path, f"{prob}_{dim}d.csv")
        generations = group[opts[0]]["generation"]
        with open(path, "w") as fh:
            fh.write("generation," + ",".join(opts) + "\n")
            for i, g in enumerate(generations):
                row = ",".join(repr(group[o]["mean"][i]) for o in opts)
                fh.write(f"{g},{row}\n")
        paths.append(path)
    return paths


def format_summary(summary: dict) -> str:
    """Fixed-width text table of the summary, grouped by problem."""
    lines = [
        f"{'problem':<24}{'dim':>4}  {'optimizer':<8}{'runs':>6}"
        f"{'median':>14}{'mean':>14}{'std':>14}"
    ]
    for e in summary["entries"]:
        lines.append(
            f"{e['problem']:<24}{e['dim']:>4}  {e['optimizer']:<8}{e['runs']:>6}"
            f"{e['median']:>14.4e}{e['mean']:>14.4e}{e['std']:>14.4e}"
        )
    return "\n".join(lines)
