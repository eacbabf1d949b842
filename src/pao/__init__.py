"""Particle attractor optimisation: a swarm optimiser whose particles are
damped stochastic oscillators advanced by their exact Gaussian transition
kernel, plus PSO/QPSO/DE/SADE baselines and a benchmark harness."""

from .attractors import (
    AttractorSpec,
    VALID_KINDS,
    compute_attractors,
    noise_scale,
    weighted_centroid,
)
from .baselines import (
    DeConfig,
    PsoConfig,
    QpsoConfig,
    SadeConfig,
    run_de,
    run_pso,
    run_qpso,
    run_sade,
)
from .benchmarks import PROBLEM_NAMES, Problem, make_problem, shift_to_zero
from .engine import (
    PaoConfig,
    Swarm,
    initialize_swarm,
    run_pao,
    step_swarm,
)
from .harness import (
    BenchmarkSuite,
    OPTIMIZER_IDS,
    aggregate_convergence,
    derive_seed,
    emit_plot_data,
    run_one,
    run_suite,
    standard_suite,
    summarize,
)
from .kernel import (
    DegenerateCovariance,
    Hyperparams,
    TransitionKernel,
    build_drift_matrix,
    build_kernel,
    matrix_fraction_decomposition,
    psd_cholesky,
    sample_transition,
    transition_logpdf,
)
from .records import RunRecord, read_jsonl, write_jsonl

__version__ = "0.1.0"

__all__ = [
    "AttractorSpec",
    "BenchmarkSuite",
    "DeConfig",
    "DegenerateCovariance",
    "Hyperparams",
    "OPTIMIZER_IDS",
    "PROBLEM_NAMES",
    "PaoConfig",
    "Problem",
    "PsoConfig",
    "QpsoConfig",
    "RunRecord",
    "SadeConfig",
    "Swarm",
    "TransitionKernel",
    "VALID_KINDS",
    "aggregate_convergence",
    "build_drift_matrix",
    "build_kernel",
    "compute_attractors",
    "derive_seed",
    "emit_plot_data",
    "initialize_swarm",
    "make_problem",
    "matrix_fraction_decomposition",
    "noise_scale",
    "psd_cholesky",
    "read_jsonl",
    "run_de",
    "run_one",
    "run_pao",
    "run_pso",
    "run_qpso",
    "run_sade",
    "run_suite",
    "sample_transition",
    "shift_to_zero",
    "standard_suite",
    "step_swarm",
    "summarize",
    "transition_logpdf",
    "weighted_centroid",
    "write_jsonl",
]
