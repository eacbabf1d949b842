"""Comparison optimisers behind the same run contract as the attractor
engine: PSO, QPSO, DE and SADE.

Each optimiser supplies only its move rule; ``engine.drive`` owns the run
contract (seeded start, exactly n * (generations + 1) objective evaluations,
monotone best-so-far history) and ``engine.update_archive`` folds every
generation's trials into the best archives, greedily for DE and SADE.
Trials respect the box by clipping (``engine.clip``).  A move's draws, in
order and shape, are part of its records: uniforms come from ``rng.random``,
one block per move where a move needs several arrays, which gives the bits
of one ``rng.uniform`` call per array.  Hyperparameter defaults are
canonical literature values; the values actually used are recorded in the
run's ``params``.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .attractors import draw_donors, particle_mean
from .benchmarks import Problem
from .engine import clip, drive, update_archive
from .records import RunRecord
from .settings import read_fields, setting


@dataclass(frozen=True)
class _Config:
    """Reads its fields by type and domain; errors name ``<Config>.<field>``."""

    def __post_init__(self):
        read_fields(self, f"{type(self).__name__}.")


@dataclass(frozen=True)
class PsoConfig(_Config):
    """Inertia-weight PSO: w decays linearly over the run, velocity clamped
    to a fraction of the domain width."""

    w_start: float = 0.9
    w_end: float = 0.4
    c1: float = 2.0
    c2: float = 2.0
    # crossed clip bounds pin every velocity to vmax < 0, and 0 freezes the swarm
    vmax_frac: float = setting(0.5, "> 0")


@dataclass(frozen=True)
class QpsoConfig(_Config):
    """Quantum-behaved PSO: contraction-expansion coefficient decays
    linearly; attraction around the mean of the personal bests."""

    alpha_start: float = 1.0
    alpha_end: float = 0.5


@dataclass(frozen=True)
class DeConfig(_Config):
    """rand/1/bin differential evolution with greedy selection."""

    f_de: float = 0.5
    cr: float = setting(0.9, "in [0, 1]")


@dataclass(frozen=True)
class SadeConfig(_Config):
    """Self-adaptive DE: two-strategy pool with success-history strategy
    probabilities, per-individual CR and F drawn from normals."""

    learning_period: int = setting(10, ">= 1")
    cr_mean: float = 0.5
    cr_std: float = setting(0.1, ">= 0")
    f_mean: float = 0.5
    f_std: float = setting(0.3, ">= 0")


def _schedule(start, end, swarm, generations):
    """Linear decay from ``start`` to ``end`` over the run's generations."""
    return start + (end - start) * (swarm.generation / max(generations - 1, 1))


def run_pso(problem: Problem, n: int, generations: int, cfg: PsoConfig = PsoConfig(), seed=0) -> RunRecord:
    vmax = cfg.vmax_frac * (problem.upper - problem.lower)

    def move(swarm, rng):
        w = _schedule(cfg.w_start, cfg.w_end, swarm, generations)
        pos, vel = swarm.positions, swarm.velocities
        r1, r2 = rng.random((2,) + pos.shape)
        vel = w * vel + cfg.c1 * r1 * (swarm.local_best_pos - pos) + cfg.c2 * r2 * (swarm.global_best_pos - pos)
        vel = clip(vel, -vmax, vmax)
        pos = clip(pos + vel, problem.lower, problem.upper)
        return update_archive(swarm, pos, vel, problem)[0]

    return drive("pso", problem, n, generations, seed, asdict(cfg), move)


def run_qpso(problem: Problem, n: int, generations: int, cfg: QpsoConfig = QpsoConfig(), seed=0) -> RunRecord:
    def move(swarm, rng):
        alpha = _schedule(cfg.alpha_start, cfg.alpha_end, swarm, generations)
        pos, pbest = swarm.positions, swarm.local_best_pos
        mbest = particle_mean(pbest)
        phi, u, coin = rng.random((3,) + pos.shape)
        attract = phi * pbest + (1.0 - phi) * swarm.global_best_pos
        u = np.maximum(u, 1e-300)
        sign = np.where(coin < 0.5, -1.0, 1.0)
        pos = attract + sign * alpha * np.abs(mbest - pos) * np.log(1.0 / u)
        pos = clip(pos, problem.lower, problem.upper)
        return update_archive(swarm, pos, swarm.velocities, problem)[0]

    return drive("qpso", problem, n, generations, seed, asdict(cfg), move)


def _de_trials(problem, swarm, fs, crs, rng, rand1=None):
    """One trial per row, clipped to the box: rand/1 donors from three drawn
    indices, or with ``rand1`` four per row and current-to-best/2 where it is
    false; then binomial crossover with the row's CR (``fs`` and ``crs`` are
    scalars or one per row) and one forced donor coordinate."""
    pos = swarm.positions
    n, d = pos.shape
    # a scalar is used as it is and one value per row as a column, decided
    # per argument: a caller may pass a scalar F beside per-row CRs
    fs, crs = (v[:, None] if isinstance(v, np.ndarray) else v for v in (fs, crs))
    # gathered on the (size, n) picks, each donor is a contiguous (n, D) slice
    p = pos[draw_donors(n, 3 if rand1 is None else 4, rng).T]
    donors = p[0] + fs * (p[1] - p[2])
    if rand1 is not None:
        best = pos[swarm.fitness.argmin()]
        to_best = pos + fs * (best - pos) + fs * (p[0] - p[1]) + fs * (p[2] - p[3])
        donors = np.where(rand1[:, None], donors, to_best)
    cross = rng.random((n, d)) < crs
    cross[np.arange(n), rng.integers(d, size=n)] = True
    return clip(np.where(cross, donors, pos), problem.lower, problem.upper)


def run_de(problem: Problem, n: int, generations: int, cfg: DeConfig = DeConfig(), seed=0) -> RunRecord:
    def move(swarm, rng):
        trials = _de_trials(problem, swarm, cfg.f_de, cfg.cr, rng)
        return update_archive(swarm, trials, swarm.velocities, problem, greedy=True)[0]

    return drive("de", problem, n, generations, seed, asdict(cfg), move)


def run_sade(problem: Problem, n: int, generations: int, cfg: SadeConfig = SadeConfig(), seed=0) -> RunRecord:
    p_rand1 = 0.5
    # successes and failures of (rand/1, current-to-best/2) this learning period
    ns = np.zeros(2)
    nf = np.zeros(2)

    def move(swarm, rng):
        nonlocal p_rand1
        n = len(swarm.fitness)
        use_rand1 = rng.random(n) < p_rand1
        crs = clip(rng.normal(cfg.cr_mean, cfg.cr_std, size=n), 0.0, 1.0)
        fs = rng.normal(cfg.f_mean, cfg.f_std, size=n)
        trials = _de_trials(problem, swarm, fs, crs, rng, use_rand1)
        swarm, take = update_archive(swarm, trials, swarm.velocities, problem, greedy=True)
        for s, used in enumerate((use_rand1, ~use_rand1)):
            ns[s] += np.count_nonzero(take & used)
            nf[s] += np.count_nonzero(~take & used)
        if swarm.generation % cfg.learning_period == 0:
            denom = ns[0] * (ns[1] + nf[1]) + ns[1] * (ns[0] + nf[0])
            if denom > 0:
                p_rand1 = ns[0] * (ns[1] + nf[1]) / denom
            ns[:] = 0.0
            nf[:] = 0.0
        return swarm

    return drive("sade", problem, n, generations, seed, asdict(cfg), move)
