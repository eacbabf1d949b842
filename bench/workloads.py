"""The four workloads, and the reference clock they are timed with.

A workload is built from the seed alone, then runs whole rounds of the same
operations: every round repeats the same inputs, so each round doubles as a
byte-identical rerun of the one before.  ``run_round`` returns the timed
units of the round (one time per operation, or one for the whole
comparison pipeline), the number of failed operations and the problems its
checks found.  Checks run outside the timed units.
"""

import dataclasses
import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

import pao.benchmarks as benchmarks
import pao.engine as engine
import pao.harness as harness
import pao.kernel as kernel
import pao.records as records
from pao.attractors import AttractorSpec

import checks

POP = 100
GENS = 100


# The calibration unit: fixed work in the style of the package's hot paths
# (small NumPy calls and interpreter overhead).  The reference speed is the
# one at which it takes CAL_REF_S.
CAL_REF_S = 1.0e-3
_CAL_X = np.arange(200.0).reshape(100, 2)
_CAL_M = np.array([[0.5, 0.1], [0.2, 0.4]])


def calibration_s():
    """Wall time of one calibration unit."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += float((_CAL_X @ _CAL_M).mean()) + i * 0.5
    return time.perf_counter() - t0


class RefClock:
    """Times intervals in reference seconds.

    The machine's speed drifts by up to 2x over seconds to minutes (it
    shares cores with other tenants), and the drift slows the package and
    the calibration unit alike.  So each stretch of wall time is scaled by
    CAL_REF_S / (the calibration unit's time right after the stretch).  The
    calibration time itself is not counted.
    """

    def __init__(self):
        self.samples = []
        self.start()

    def start(self):
        self._ref = 0.0
        self._t = time.perf_counter()

    def checkpoint(self):
        """Close the current stretch: calibrate, scale it, start the next."""
        stretch = time.perf_counter() - self._t
        cal = calibration_s()
        self.samples.append(cal)
        self._ref += stretch * CAL_REF_S / cal
        self._t = time.perf_counter()

    def stop(self):
        """Reference seconds since ``start``."""
        self.checkpoint()
        return self._ref

    def factor(self):
        """Reference seconds per wall second over every sample so far."""
        return CAL_REF_S / statistics.median(self.samples)


def op_seed(seed, index):
    """Seed of operation ``index`` of a workload built from ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""
    ops_per_round = 0
    # per round: configs whose Sigma misses the reference (kernel-sweep only)
    inaccurate_per_round = 0

    def warm_up(self):
        """Run one operation untimed by the rounds; its reference seconds."""
        raise NotImplementedError

    def run_round(self):
        raise NotImplementedError

    def rerun(self):
        """Rerun one operation outside the timed phase; problems if it differs."""
        raise NotImplementedError


class Comparison(Workload):
    """All five optimisers x nine problems x {2D, 8D}, pop 100, gens 100, one
    repetition, through run_suite, read_jsonl, aggregate_convergence and
    emit_plot_data: the paper's experiment as the reproduce script runs it."""

    name = "comparison"

    def __init__(self, seed, out_dir, clock, per_run_clock):
        self.seed = seed
        self.clock = clock
        self.suite = harness.standard_suite("all", pop=POP, gens=GENS, reps=1, base_seed=seed)
        self.ops_per_round = len(self.suite.optimizers) * len(self.suite.problems) * self.suite.reps
        self.out = os.path.join(out_dir, "comparison")
        self.digest = None
        self.recs = []
        # the serialised records lack the final best position; keep the
        # in-memory records run_suite hands to write_jsonl
        self.captured = []
        write = harness.write_jsonl

        def capture(recs, path, *args, **kwargs):
            self.captured = list(recs)
            return write(self.captured, path, *args, **kwargs)

        harness.write_jsonl = capture
        if per_run_clock:
            # calibrate after every run, so the clock follows the machine's
            # speed through the round
            run_one = harness.run_one

            def run_one_then_calibrate(*args, **kwargs):
                rec = run_one(*args, **kwargs)
                clock.checkpoint()
                return rec

            harness.run_one = run_one_then_calibrate

    def _pipeline(self, suite, out):
        summary = harness.run_suite(suite, out)
        recs = records.read_jsonl(os.path.join(out, "records.jsonl"))
        paths = harness.emit_plot_data(harness.aggregate_convergence(recs), os.path.join(out, "plots"))
        return summary, paths

    def warm_up(self):
        one = harness.BenchmarkSuite(
            problems=(("dejong", 2),), pop=POP, gens=GENS, reps=1, optimizers=("pao",), base_seed=self.seed
        )
        self.clock.start()
        self._pipeline(one, os.path.join(self.out, "warmup"))
        return self.clock.stop()

    def run_round(self):
        self.clock.start()
        summary, paths = self._pipeline(self.suite, self.out)
        dt = self.clock.stop()
        return [dt], 0, self._check(summary, paths)

    def _check(self, summary, paths):
        with open(os.path.join(self.out, "records.jsonl")) as fh:
            recs = [json.loads(line) for line in fh]
        out = []
        if len(recs) != self.ops_per_round:
            out.append(f"records.jsonl holds {len(recs)} runs, expected {self.ops_per_round}")
        cells = {(r["optimizer"], r["problem"], r["dim"]) for r in recs}
        want = {(o, p, d) for o in self.suite.optimizers for p, d in self.suite.problems}
        if cells != want:
            out.append(f"records cover {len(cells)} (optimizer, problem, dim) cells, expected {len(want)}")
        final_pos = {r.run_id: r.best_pos[-1] for r in self.captured if r.best_pos}
        for r in recs:
            pos = final_pos.get(r["run_id"])
            if pos is None:
                out.append(f"{r['run_id']}: no in-memory final best position")
            out += checks.check_run(r["run_id"], r, POP, GENS, pos)
        with open(os.path.join(self.out, "summary.json")) as fh:
            if json.load(fh) != summary:
                out.append("summary.json differs from the summary run_suite returned")
        out += checks.check_summary(summary, recs)
        if len(paths) != len(self.suite.problems):
            out.append(f"{len(paths)} plot CSVs for {len(self.suite.problems)} (problem, dim) pairs")
        for path in paths:
            problem, _, dim = os.path.basename(path)[: -len(".csv")].rpartition("_")
            with open(path) as fh:
                out += checks.check_plot_csv(fh.read(), problem, int(dim[:-1]), recs)
        for r in recs:
            r.pop("duration_ms", None)
        digest = _digest("\n".join(json.dumps(r) for r in recs))
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            out.append("records differ from the previous round's")
        self.recs = recs
        return out

    def rerun(self):
        r = self.recs[self.seed % len(self.recs)]
        problem = benchmarks.make_problem(r["problem"], r["dim"])
        rec = harness.run_one(r["optimizer"], problem, r["pop"], r["gens"], r["seed"])
        rec.run_id = r["run_id"]
        if json.dumps(rec.to_json_dict(include_duration=False)) != json.dumps(r):
            return [f"rerun of {r['run_id']} is not byte-identical"]
        return []


class _Counter:
    """Counts the points an objective is evaluated at."""

    def __init__(self, batch):
        self.batch = batch
        self.points = 0

    def __call__(self, xs):
        self.points += xs.size // xs.shape[-1]
        return self.batch(xs)


def counting_problem(name, dim):
    problem = benchmarks.make_problem(name, dim)
    counter = _Counter(problem.batch)
    return dataclasses.replace(problem, batch=counter), counter


@dataclasses.dataclass
class PaoOp:
    label: str
    problem: object
    counter: _Counter
    n: int
    cfg: engine.PaoConfig
    seed: int


class PaoRuns(Workload):
    """engine.run_pao alone over a fixed list of (problem, size, menu) runs."""

    def __init__(self, name, seed, specs, clock):
        self.name = name
        self.seed = seed
        self.clock = clock
        self.ops = []
        for i, (problem, n, dim, menu) in enumerate(specs):
            prob, counter = counting_problem(problem, dim)
            label = f"{menu}/{problem}/{n}x{dim}"
            self.ops.append(PaoOp(label, prob, counter, n, MENUS[menu], op_seed(seed, i)))
        self.ops_per_round = len(self.ops)
        self.digests = None

    def _run(self, op):
        op.counter.points = 0
        self.clock.start()
        rec = engine.run_pao(op.problem, op.n, GENS, op.cfg, op.seed)
        return self.clock.stop(), rec

    def warm_up(self):
        return self._run(self.ops[0])[0]

    def run_round(self):
        times, failed, out, digests = [], 0, [], []
        for op in self.ops:
            try:
                dt, rec = self._run(op)
            except Exception as exc:  # a raising run is a failed operation
                failed += 1
                print(f"{op.label}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
                times.append(0.0)
                digests.append(None)
                continue
            times.append(dt)
            d = rec.to_json_dict(include_duration=False)
            pos = rec.best_pos[-1] if rec.best_pos else None
            out += checks.check_run(op.label, d, op.n, GENS, pos, op.counter.points)
            digests.append(_digest(json.dumps(d)))
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            out.append("records differ from the previous round's")
        return times, failed, out

    def rerun(self):
        i = self.seed % len(self.ops)
        _, rec = self._run(self.ops[i])
        if _digest(json.dumps(rec.to_json_dict(include_duration=False))) != self.digests[i]:
            return [f"rerun of {self.ops[i].label} is not byte-identical"]
        return []


MENUS = {
    "default": engine.PaoConfig(),
    "derand1bin": engine.PaoConfig(
        hp=kernel.Hyperparams(k=(1.0, 1.0, 1.0)),
        specs=(AttractorSpec("localbest"), AttractorSpec("globalbest"), AttractorSpec("derand1bin")),
        bounds_policy="reflect",
    ),
    "stochastic": engine.PaoConfig(
        hp=kernel.Hyperparams(k=(1.0, 1.0, 1.0)),
        specs=(
            AttractorSpec("stochasticgaussian"),
            AttractorSpec("weightedaverageparticle"),
            AttractorSpec("averagelocalbest"),
        ),
        velocity_init="uniform-scaled",
    ),
}
DESK_SIZES = ((20, 2), (100, 2), (100, 8))


def desk_specs():
    """27 runs: each (menu, size) cell gets three of the nine problems, chosen
    so that every menu and every size covers all nine problems once."""
    out = []
    for a, menu in enumerate(MENUS):
        for b, (n, dim) in enumerate(DESK_SIZES):
            for p, problem in enumerate(checks.PROBLEMS):
                if p % 3 == (a + b) % 3:
                    out.append((problem, n, dim, menu))
    return out


def large_specs():
    return [("rastrigin", 1000, 32, "default"), ("rosenbrock", 1000, 32, "default")]


@dataclasses.dataclass
class KernelConfig:
    label: str
    hp: kernel.Hyperparams
    a_ref: list
    sigma_ref: list
    x_from: list
    variances: list
    draw_seed: int


class KernelSweep(Workload):
    """The 240-config kernel grid: build_kernel, A and Sigma against the
    mpmath reference, then DRAWS transitions through sample_transition, each
    scored with transition_logpdf."""

    name = "kernel-sweep"
    DRAWS = 128

    def __init__(self, seed, reference_path, clock):
        self.seed = seed
        self.clock = clock
        with open(reference_path) as fh:
            ref = json.load(fh)["configs"]
        self.configs = []
        for i, c in enumerate(ref):
            rng = np.random.default_rng([seed, i])
            x_from = rng.standard_normal((self.DRAWS, 2))
            variances = 10.0 ** rng.uniform(-2.0, 1.0, self.DRAWS)
            self.configs.append(
                KernelConfig(
                    label=f"m={c['m']} zeta={c['zeta']} k'={sum(c['k'])} dt={c['dt']}",
                    hp=kernel.Hyperparams(m=c["m"], zeta=c["zeta"], k=tuple(c["k"]), q0=1.0, dt=c["dt"]),
                    a_ref=[[float(v) for v in row] for row in c["A"]],
                    sigma_ref=[[float(v) for v in row] for row in c["Sigma"]],
                    x_from=list(x_from),
                    variances=variances.tolist(),
                    draw_seed=op_seed(seed, i),
                )
            )
        self.ops_per_round = len(self.configs)
        self.digests = None

    def _run(self, c):
        """One operation; returns (reference seconds, kernel, draws, logpdfs, error)."""
        self.clock.start()
        kern, draws, lps = None, [], []
        try:
            kern = kernel.build_kernel(c.hp)
            sample, logpdf = kernel.sample_transition, kernel.transition_logpdf
            rng = np.random.default_rng(c.draw_seed)
            for x, v in zip(c.x_from, c.variances):
                y = sample(kern, x, v, rng)
                draws.append(y)
                lps.append(logpdf(kern, x, y, v))
        except Exception as exc:  # a raising config is a failed operation
            return self.clock.stop(), kern, draws, lps, exc
        return self.clock.stop(), kern, draws, lps, None

    def warm_up(self):
        return self._run(self.configs[0])[0]

    def _digest(self, kern, draws, lps):
        if kern is None:
            return None
        return _digest(repr((kern.a.tolist(), kern.sigma_unit.tolist(), np.asarray(draws).tolist(), lps)))

    def run_round(self):
        times, failed, inaccurate, out, digests = [], 0, 0, [], []
        pooled, pooled_n = 0.0, 0
        for c in self.configs:
            dt, kern, draws, lps, exc = self._run(c)
            times.append(dt)
            digests.append(self._digest(kern, draws, lps))
            if kern is None:  # build_kernel raised
                failed += 1
                continue
            err_a = checks.max_rel_err(kern.a.tolist(), c.a_ref)
            err_s = checks.max_rel_err(kern.sigma_unit.tolist(), c.sigma_ref)
            if err_s > checks.KERNEL_RTOL:
                inaccurate += 1
            if exc is not None or err_a > checks.KERNEL_RTOL or err_s > checks.KERNEL_RTOL:
                failed += 1
                continue
            problems = checks.check_factor(kern.h.tolist(), kern.sigma_unit.tolist())
            found, total = checks.check_draws(
                c.a_ref, c.sigma_ref, [x.tolist() for x in c.x_from],
                [y.tolist() for y in draws], c.variances, lps,
            )
            out += [f"{c.label}: {p}" for p in problems + found]
            pooled += total
            pooled_n += len(lps)
        out += checks.check_pooled_chi2(pooled, pooled_n)
        if self.digests is None:
            self.digests = digests
            self.inaccurate_per_round = inaccurate
        elif digests != self.digests or inaccurate != self.inaccurate_per_round:
            out.append("kernel outputs differ from the previous round's")
        return times, failed, out

    def rerun(self):
        i = self.seed % len(self.configs)
        _, kern, draws, lps, _ = self._run(self.configs[i])
        if self._digest(kern, draws, lps) != self.digests[i]:
            return [f"rerun of {self.configs[i].label} is not byte-identical"]
        return []


WORKLOADS = ("comparison", "pao-desk", "pao-large", "kernel-sweep")


def build(name, seed, bench_dir, clock, traced=False):
    """The workload ``name`` with its inputs made from ``seed``, timed by
    ``clock``.  A traced comparison calibrates only between rounds, so that
    no calibration runs inside a traced span."""
    if name == "comparison":
        return Comparison(seed, os.path.join(bench_dir, "out"), clock, per_run_clock=not traced)
    if name == "pao-desk":
        return PaoRuns(name, seed, desk_specs(), clock)
    if name == "pao-large":
        return PaoRuns(name, seed, large_specs(), clock)
    if name == "kernel-sweep":
        return KernelSweep(seed, os.path.join(bench_dir, "kernel_reference.json"), clock)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
