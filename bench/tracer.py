"""Outside-in layer tracing.

The package holds no tracing code.  For a traced run the benchmark replaces
each layer's public functions, in the module namespaces where callers look
them up, with a wrapper that times the call.  A wrapper keeps a per-span
aggregate (calls, total time, self time, calls that raised) and, for the
spans whose per-call distribution is reported, every duration.  Self time
is a span's duration minus the wrapped calls made inside it.

A lookup that no longer exists (a layer moved or renamed) is skipped, and
the metrics built on it read 0.
"""

import os
import statistics
from array import array
from importlib import import_module
from time import perf_counter

# span -> the module attributes its callers look it up through
TARGETS = {
    "kernel.build_kernel": ("pao.engine.build_kernel", "pao.kernel.build_kernel"),
    "kernel.sample_transition": ("pao.kernel.sample_transition",),
    "kernel.transition_logpdf": ("pao.kernel.transition_logpdf",),
    "attractors.compute_attractors": ("pao.engine.compute_attractors",),
    "attractors.weighted_centroid": ("pao.engine.weighted_centroid",),
    "attractors.noise_scale": ("pao.engine.noise_scale",),
    "engine.run_pao": ("pao.engine.run_pao", "pao.harness.run_pao"),
    "engine.step_swarm": ("pao.engine.step_swarm",),
    "engine.apply_bounds": ("pao.engine.apply_bounds",),
    "benchmarks.evaluate": ("pao.engine.evaluate_population", "pao.baselines.evaluate_population"),
    "baselines.run_pso": ("pao.baselines.run_pso",),
    "baselines.run_qpso": ("pao.baselines.run_qpso",),
    "baselines.run_de": ("pao.baselines.run_de",),
    "baselines.run_sade": ("pao.baselines.run_sade",),
    "harness.run_suite": ("pao.harness.run_suite",),
    "harness.summarize": ("pao.harness.summarize",),
    "harness.aggregate_convergence": ("pao.harness.aggregate_convergence",),
    "harness.emit_plot_data": ("pao.harness.emit_plot_data",),
    "records.write_jsonl": ("pao.harness.write_jsonl", "pao.records.write_jsonl"),
    "records.read_jsonl": ("pao.records.read_jsonl",),
}
# spans that are one optimiser run each
RUN_SPANS = (
    "engine.run_pao",
    "baselines.run_pso",
    "baselines.run_qpso",
    "baselines.run_de",
    "baselines.run_sade",
)
SAMPLED = RUN_SPANS + ("kernel.build_kernel", "kernel.sample_transition", "kernel.transition_logpdf")


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "raised", "samples")

    def __init__(self, sampled):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0
        self.samples = array("d") if sampled else None


class Tracer:
    """Wraps the layer functions named in TARGETS and aggregates their spans."""

    def __init__(self):
        self.stats = {name: SpanStats(name in SAMPLED) for name in TARGETS}
        self.points = 0  # rows passed to benchmarks.evaluate
        self.pao_gens = 0  # generations of the traced PAO runs
        self.jsonl_bytes = 0  # bytes written by records.write_jsonl
        self.run_ms_by_dim = {}  # (run span, dim) -> per-run ms
        self._stack = []
        self._undo = []

    def install(self):
        for name, lookups in TARGETS.items():
            wrappers = {}
            for path in lookups:
                mod_name, attr = path.rsplit(".", 1)
                mod = import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                setattr(mod, attr, wrappers[id(fn)])
                self._undo.append((mod, attr, fn))
        return self

    def uninstall(self):
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        observe = self._observer(name)

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - child[0]
                if stat.samples is not None:
                    stat.samples.append(dt)
            if observe is not None:
                observe(args, result, dt)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observer(self, name):
        if name == "benchmarks.evaluate":
            def observe(args, result, dt):
                xs = args[1]
                self.points += xs.size // xs.shape[-1]
            return observe
        if name in RUN_SPANS:
            def observe(args, rec, dt):
                self.run_ms_by_dim.setdefault((name, rec.dim), []).append(dt * 1e3)
                if name == "engine.run_pao":
                    self.pao_gens += rec.gens
            return observe
        if name == "records.write_jsonl":
            def observe(args, result, dt):
                self.jsonl_bytes += os.path.getsize(args[1])
            return observe
        return None

    def dump(self):
        """Span aggregates and per-dimension run latencies, JSON-ready."""
        return {
            "spans": {
                name: {
                    "calls": s.calls,
                    "total_ms": s.total * 1e3,
                    "self_ms": s.self_time * 1e3,
                    "raised": s.raised,
                }
                for name, s in self.stats.items()
                if s.calls
            },
            "run_ms_by_dim": {
                f"{name}@{dim}d": {"runs": len(v), "p50": statistics.median(v)}
                for (name, dim), v in sorted(self.run_ms_by_dim.items())
            },
        }


def _median(samples, scale):
    return statistics.median(samples) * scale if samples else 0.0


def _p90(samples, scale):
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * scale
    return statistics.quantiles(samples, n=10, method="inclusive")[8] * scale


# per-layer metric -> unit, better direction
METRICS = {
    "pao.import_ms": ("ms", "lower"),
    "kernel.build_kernel.us": ("us", "lower"),
    "kernel.sample_transition.us": ("us", "lower"),
    "kernel.transition_logpdf.us": ("us", "lower"),
    "kernel.build_kernel.raised": ("count", "lower"),
    "kernel.sigma_unit.inaccurate": ("count", "lower"),
    "attractors.compute_attractors.ms_per_run": ("ms", "lower"),
    "attractors.weighted_centroid.ms_per_run": ("ms", "lower"),
    "attractors.noise_scale.ms_per_run": ("ms", "lower"),
    "attractors.noise_scale.calls_per_gen": ("count", "lower"),
    "engine.step_swarm.self_ms_per_run": ("ms", "lower"),
    "engine.apply_bounds.ms_per_run": ("ms", "lower"),
    "engine.run_pao.self_ms_per_run": ("ms", "lower"),
    "engine.run_pao.ms_p50": ("ms", "lower"),
    "engine.run_pao.ms_p90": ("ms", "lower"),
    "benchmarks.evaluate.ms_per_run": ("ms", "lower"),
    "benchmarks.evaluate.points_per_run": ("count", "lower"),
    "baselines.run_pso.ms_p50": ("ms", "lower"),
    "baselines.run_qpso.ms_p50": ("ms", "lower"),
    "baselines.run_de.ms_p50": ("ms", "lower"),
    "baselines.run_sade.ms_p50": ("ms", "lower"),
    "baselines.run_de.self_ms_per_run": ("ms", "lower"),
    "baselines.run_sade.self_ms_per_run": ("ms", "lower"),
    "harness.run_suite.self_ms": ("ms", "lower"),
    "harness.summarize.ms": ("ms", "lower"),
    "harness.aggregate_convergence.ms": ("ms", "lower"),
    "harness.emit_plot_data.ms": ("ms", "lower"),
    "records.write_jsonl.ms": ("ms", "lower"),
    "records.read_jsonl.ms": ("ms", "lower"),
    "records.write_jsonl.bytes": ("bytes", "lower"),
}


def layer_metrics(tr, rounds, import_ms, inaccurate_per_round, speed):
    """Every per-layer metric of a traced run of ``rounds`` whole rounds.

    Per-run figures divide by the PAO runs (attractors, engine), by all
    optimiser runs (benchmarks.evaluate) or by the runs of that baseline;
    per-round figures divide by ``rounds``.  Times (ms, us) of the timed
    phase are scaled to reference seconds by ``speed``, the run's median
    reference seconds per wall second.
    """
    s = tr.stats

    def per(total, count):
        return total / count if count else 0.0

    pao_runs = s["engine.run_pao"].calls
    all_runs = sum(s[n].calls for n in RUN_SPANS)
    values = {
        "pao.import_ms": import_ms,
        "kernel.build_kernel.us": _median(s["kernel.build_kernel"].samples, 1e6),
        "kernel.sample_transition.us": _median(s["kernel.sample_transition"].samples, 1e6),
        "kernel.transition_logpdf.us": _median(s["kernel.transition_logpdf"].samples, 1e6),
        "kernel.build_kernel.raised": per(s["kernel.build_kernel"].raised, rounds),
        "kernel.sigma_unit.inaccurate": inaccurate_per_round,
        "attractors.noise_scale.calls_per_gen": per(s["attractors.noise_scale"].calls, tr.pao_gens),
        "engine.step_swarm.self_ms_per_run": per(s["engine.step_swarm"].self_time * 1e3, pao_runs),
        "engine.run_pao.self_ms_per_run": per(s["engine.run_pao"].self_time * 1e3, pao_runs),
        "engine.run_pao.ms_p50": _median(s["engine.run_pao"].samples, 1e3),
        "engine.run_pao.ms_p90": _p90(s["engine.run_pao"].samples, 1e3),
        "benchmarks.evaluate.ms_per_run": per(s["benchmarks.evaluate"].total * 1e3, all_runs),
        "benchmarks.evaluate.points_per_run": per(tr.points, all_runs),
        "baselines.run_de.self_ms_per_run": per(s["baselines.run_de"].self_time * 1e3, s["baselines.run_de"].calls),
        "baselines.run_sade.self_ms_per_run": per(
            s["baselines.run_sade"].self_time * 1e3, s["baselines.run_sade"].calls
        ),
        "harness.run_suite.self_ms": per(s["harness.run_suite"].self_time * 1e3, rounds),
        "records.write_jsonl.bytes": per(tr.jsonl_bytes, rounds),
    }
    for name in ("compute_attractors", "weighted_centroid", "noise_scale"):
        values[f"attractors.{name}.ms_per_run"] = per(s[f"attractors.{name}"].total * 1e3, pao_runs)
    values["engine.apply_bounds.ms_per_run"] = per(s["engine.apply_bounds"].total * 1e3, pao_runs)
    for opt in ("pso", "qpso", "de", "sade"):
        values[f"baselines.run_{opt}.ms_p50"] = _median(s[f"baselines.run_{opt}"].samples, 1e3)
    for name in ("harness.summarize", "harness.aggregate_convergence", "harness.emit_plot_data",
                 "records.write_jsonl", "records.read_jsonl"):
        values[f"{name}.ms"] = per(s[name].total * 1e3, rounds)
    return {
        name: {"value": values[name] * (speed if unit in ("ms", "us") and name != "pao.import_ms" else 1.0),
               "unit": unit}
        for name, (unit, _) in METRICS.items()
    }
