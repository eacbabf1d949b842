"""Shared helpers for the test suite."""

import numpy as np

from pao import baselines, engine

# optimiser id -> (its runner, called directly, and the runner's default config)
RUNNERS = {
    "pao": (engine.run_pao, engine.PaoConfig()),
    "pso": (baselines.run_pso, baselines.PsoConfig()),
    "qpso": (baselines.run_qpso, baselines.QpsoConfig()),
    "de": (baselines.run_de, baselines.DeConfig()),
    "sade": (baselines.run_sade, baselines.SadeConfig()),
}


class CountingProblem:
    """Wraps a benchmark problem and counts every objective evaluation row."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = 0
        self.name = inner.name
        self.dim = inner.dim
        self.lower = inner.lower
        self.upper = inner.upper
        self.optimum_pos = inner.optimum_pos
        self.optimum_val = inner.optimum_val

    def evaluate(self, xs) -> np.ndarray:
        xs = np.asarray(xs)
        self.rows += xs.shape[0]
        return self.inner.evaluate(xs)

    def objective(self, x) -> float:
        self.rows += 1
        return self.inner.objective(x)
