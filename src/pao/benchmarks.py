"""Benchmark objective functions with box domains and known optima.

All nine functions accept any dimension n >= 1 (Rosenbrock needs n >= 2) and are
evaluated batch-wise over an (m, n) array of candidate points.  Indices in
the formulas are 1-based.  Every objective is a module-level function (the
Griewangk one with its denominator bound by ``functools.partial``), so a
built ``Problem`` pickles and a suite's worker processes receive it whole.
"""

from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .settings import to_choice, to_float, to_int

# Refined location of the Schwefel minimiser (per dimension).
SCHWEFEL_OPT = 420.968746
# Griewangk's printed quadratic coefficient is 1/400; the literature often uses 1/4000.
GRIEWANGK_DENOMINATOR = 400.0


@dataclass(frozen=True, eq=False)
class Problem:
    """One benchmark instance: objective, box bounds and known optimum."""

    name: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    optimum_pos: np.ndarray
    optimum_val: float
    batch: callable = field(repr=False)

    def __post_init__(self):
        for arr in (self.lower, self.upper, self.optimum_pos):
            arr.setflags(write=False)
        if not np.all(self.lower < self.upper):
            raise ValueError(f"{self.name}: lower bounds must be < upper bounds")
        got = self.objective(self.optimum_pos)
        tol = 1e-9 * max(1.0, abs(self.optimum_val))
        if not (abs(got - self.optimum_val) <= tol):
            raise ValueError(
                f"{self.name}: objective({self.optimum_pos}) = {got}, "
                f"expected {self.optimum_val}"
            )

    def __reduce__(self):
        # rebuilt through __init__: the copy is checked against its optimum
        # and its arrays are read-only again
        return (Problem, tuple(getattr(self, f.name) for f in fields(self)))

    def objective(self, x) -> float:
        """Objective value at a single n-vector."""
        x = np.asarray(x, dtype=float)
        return float(self.batch(x[None, :])[0])

    def evaluate(self, xs) -> np.ndarray:
        """Objective values for a batch of points, shape (m, n) -> (m,)."""
        return self.batch(np.asarray(xs, dtype=float))


def _dejong(x):
    return (x**2).sum(axis=-1)


def _hyperellipsoid(x):
    i = np.arange(1, x.shape[-1] + 1)
    return (i * x**2).sum(axis=-1)


def _rotated_hyperellipsoid(x):
    # sum_i sum_{j<=i} x_j^2: x_j^2 contributes (n - j + 1) times
    n = x.shape[-1]
    w = np.arange(n, 0, -1)
    return (w * x**2).sum(axis=-1)


def _powersum(x):
    e = np.arange(2, x.shape[-1] + 2)
    return (np.abs(x) ** e).sum(axis=-1)


def _rosenbrock(x):
    head, tail = x[..., :-1], x[..., 1:]
    return (100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2).sum(axis=-1)


def _griewangk(x, denominator):
    i = np.arange(1, x.shape[-1] + 1)
    return (
        (x**2).sum(axis=-1) / denominator
        - np.cos(x / np.sqrt(i)).prod(axis=-1)
        + 1.0
    )


def _rastrigin(x):
    n = x.shape[-1]
    return 10.0 * n + (x**2 - 10.0 * np.cos(2.0 * np.pi * x)).sum(axis=-1)


def _ackley(x):
    n = x.shape[-1]
    s1 = np.sqrt((x**2).sum(axis=-1) / n)
    s2 = np.cos(2.0 * np.pi * x).sum(axis=-1) / n
    return -20.0 * np.exp(-0.2 * s1) - np.exp(s2) + 20.0 + np.e


def _schwefel(x):
    return (-x * np.sin(np.sqrt(np.abs(x)))).sum(axis=-1)


# name -> (domain half-width bounds, batch objective, optimiser position per dim)
_CATALOG = {
    "dejong": (5.12, _dejong, 0.0),
    "hyperellipsoid": (5.12, _hyperellipsoid, 0.0),
    "rotatedhyperellipsoid": (65.54, _rotated_hyperellipsoid, 0.0),
    "powersum": (1.0, _powersum, 0.0),
    "rosenbrock": (2.048, _rosenbrock, 1.0),
    "griewangk": (600.0, _griewangk, 0.0),
    "rastrigin": (5.12, _rastrigin, 0.0),
    "ackley": (32.77, _ackley, 0.0),
    "schwefel": (500.0, _schwefel, SCHWEFEL_OPT),
}

PROBLEM_NAMES = tuple(_CATALOG)


def make_problem(name: str, dim: int, griewangk_denominator: float = GRIEWANGK_DENOMINATOR) -> Problem:
    """Build one of the nine benchmark problems in the given dimension.

    The Griewangk quadratic coefficient defaults to the printed 1/400 but can
    be switched to the common literature 1/4000 via ``griewangk_denominator``.
    """
    key = to_choice("problem name", name, PROBLEM_NAMES)
    dim = to_int("dimension", dim, ">= 1")
    if key == "rosenbrock" and dim < 2:
        raise ValueError("rosenbrock needs dimension >= 2")
    griewangk_denominator = to_float("griewangk_denominator", griewangk_denominator, "> 0")
    half_width, batch, opt_coord = _CATALOG[key]
    if key == "griewangk":
        batch = partial(batch, denominator=griewangk_denominator)
    opt_pos = np.full(dim, opt_coord)
    opt_val = float(batch(opt_pos[None, :])[0]) if key == "schwefel" else 0.0
    return Problem(
        name=key,
        dim=dim,
        lower=np.full(dim, -half_width),
        upper=np.full(dim, half_width),
        optimum_pos=opt_pos,
        optimum_val=opt_val,
        batch=batch,
    )


def shift_to_zero(problem: Problem, value: float) -> float:
    """Objective value minus its value at the known optimum."""
    return value - problem.optimum_val
