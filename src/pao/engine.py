"""The particle attractor optimiser.

One generation: compute attractors, shift positions into attractor-centred
coordinates, advance every (position, velocity) pair exactly through the
config's Gaussian transition kernel, shift back, apply the bounds policy
and update the best archives.  The state of N particles in D dimensions is
two (N, D) arrays, positions and velocities; the step stacks them into one
(N, D, 2) state only for its one call to the kernel's sampler,
``kernel.sample_transition``.  Given the attractors and before the bounds
policy, each element's move has the density ``kernel.transition_logpdf``
reports at noise variance q0 * nu; the step computes the noise scale nu from
the swarm it moves, so no run state carries it.

The run contract every optimiser shares lives here too: ``drive`` seeds,
starts, moves and logs one run, and ``update_archive`` evaluates each
generation's trials and folds them into the best archives, the start's
included: generation 0 is the fold of the starting draws into empty
archives, so every evaluation of a run goes through it.  A trial outside
the problem's box never enters an archive; clipping and reflecting keep
every trial inside it, so only the PAO step under ``bounds_policy="none"``
asks ``update_archive`` to test the trials against the box.
"""

import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .attractors import AttractorSpec, check_pop, compute_attractors, noise_scale, weighted_centroid
from .benchmarks import Problem, shift_to_zero
from .kernel import Hyperparams, TransitionKernel, build_kernel, sample_transition
from .records import RunRecord, history_entry
from .settings import read_fields, setting, to_int, to_items

BOUNDS_POLICIES = ("none", "clip", "reflect")
VELOCITY_INITS = ("zero", "uniform-scaled")


class ObjectiveEvaluationError(RuntimeError):
    """A population evaluation gave a non-finite fitness: either the objective
    returned one at a finite position, or the move left a trial position that
    is itself not finite."""


@dataclass
class Swarm:
    """Population state of every optimiser: (N, D) positions and velocities
    (zero for optimisers without them) plus best archives.  Consecutive
    swarms share arrays (DE's positions are its local bests, one zero
    velocity array serves a whole run), so nothing writes into them in place."""

    positions: np.ndarray
    velocities: np.ndarray
    fitness: np.ndarray
    local_best_pos: np.ndarray
    local_best_fit: np.ndarray
    global_best_pos: np.ndarray
    global_best_fit: float
    generation: int = 0


@dataclass(frozen=True)
class PaoConfig:
    """Optimiser configuration: dynamics hyperparameters, one stiffness per
    attractor, the artifact-level policies the dynamics do not fix, and the
    derived ``kernel`` of ``hp``, built (or refused) when the config is made."""

    hp: Hyperparams = Hyperparams()
    specs: tuple = (AttractorSpec("localbest"), AttractorSpec("globalbest"))
    bounds_policy: str = setting("clip", BOUNDS_POLICIES)
    velocity_init: str = setting("zero", VELOCITY_INITS)
    kernel: TransitionKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        read_fields(self)
        for spec in self.specs:
            if not isinstance(spec, AttractorSpec):
                raise ValueError(f"specs must be AttractorSpecs, got {spec!r}")
        if len(self.specs) != len(self.hp.k):
            raise ValueError(
                f"{len(self.specs)} attractor specs but {len(self.hp.k)} stiffnesses"
            )
        object.__setattr__(self, "kernel", build_kernel(self.hp))

    def params_dict(self) -> dict:
        """The run's ``params``: every :class:`Hyperparams` field in declared
        order (a tuple, such as ``k``, as a list), then the attractor labels
        and the two policies."""
        return {
            **{key: list(v) if type(v) is tuple else v for key, v in asdict(self.hp).items()},
            "attractors": [s.label() for s in self.specs],
            "bounds_policy": self.bounds_policy,
            "velocity_init": self.velocity_init,
        }

    @classmethod
    def from_params(cls, params: dict) -> "PaoConfig":
        """The inverse of :meth:`params_dict`: missing keys take
        ``PaoConfig()``'s values, and ``k`` defaults to one 1.0 per attractor."""
        base = DEFAULT_PAO
        unknown = sorted(set(params) - set(base.params_dict()))
        if unknown:
            raise ValueError(f"unknown PAO keys {unknown}")
        specs = base.specs
        if "attractors" in params:
            specs = tuple(map(AttractorSpec.parse, to_items("attractors", params["attractors"])))
        hp = {f.name: params[f.name] for f in fields(Hyperparams) if f.name in params}
        hp.setdefault("k", (1.0,) * len(specs))
        policies = {key: params[key] for key in ("bounds_policy", "velocity_init") if key in params}
        return replace(base, hp=replace(base.hp, **hp), specs=specs, **policies)


# built once: from_params reads its defaults, so it builds no default kernel
DEFAULT_PAO = PaoConfig()


def evaluate_population(problem: Problem, positions) -> np.ndarray:
    """Batch-evaluate the objective, rejecting non-finite fitness."""
    fit = np.asarray(problem.evaluate(positions), dtype=float)
    # ndarray.all, not the slower np.all wrapper; testing the sum first would
    # save another microsecond but warns of overflow on large finite values
    finite = np.isfinite(fit)
    if not finite.all():
        at = positions[~finite][0]
        if not np.isfinite(at).all():
            raise ObjectiveEvaluationError(
                f"trial position {at} is not finite, so objective {problem.name!r} was not at fault"
            )
        raise ObjectiveEvaluationError(f"objective {problem.name!r} returned a non-finite value at {at}")
    return fit


def clip(x, lower, upper):
    """``np.clip(x, lower, upper)`` without its Python wrapper.  The bits are
    the same except the sign of a zero at a bound that is itself zero: a -0.0
    clipped from below at 0.0 comes out +0.0.  No catalogue problem has a
    zero bound."""
    y = np.maximum(x, lower)
    return np.minimum(y, upper, out=y)


def apply_bounds(pos, vel, lower, upper, policy):
    """Apply the bounds policy to positions; reflect also flips velocity.
    A policy not in ``BOUNDS_POLICIES`` raises ``ValueError``."""
    if policy == "none":
        return pos, vel
    if policy == "clip":
        return clip(pos, lower, upper), vel
    if policy != "reflect":
        raise ValueError(f"bounds policy must be one of {BOUNDS_POLICIES}, got {policy!r}")
    # reflect: fold the position back into the box, negate the velocity of
    # every component that left it.  The rounded fold never falls below
    # lower but can pass upper by an ulp (lower -1, upper 1.5 * 2**-53),
    # hence the minimum.  A swarm wholly inside the box, most generations,
    # is returned as it is.
    out = (pos < lower) | (pos > upper)
    if not out.any():
        return pos, vel
    span = upper - lower
    y = np.mod(pos - lower, 2.0 * span)
    folded = np.minimum(lower + np.where(y <= span, y, 2.0 * span - y), upper)
    return np.where(out, folded, pos), np.where(out, -vel, vel)


def _start_swarm(problem: Problem, n: int, rng, v_half=None) -> Swarm:
    """Generation 0: uniform draws in the box folded into empty archives."""
    d = problem.dim
    pos = rng.uniform(problem.lower, problem.upper, size=(n, d))
    vel = np.zeros((n, d)) if v_half is None else rng.uniform(-v_half, v_half, size=(n, d))
    # +inf bests at generation -1: every finite trial enters the archives
    inf = np.full(n, np.inf)
    empty = Swarm(
        positions=pos, velocities=vel, fitness=inf, local_best_pos=pos, local_best_fit=inf,
        global_best_pos=pos[0], global_best_fit=np.inf, generation=-1,
    )
    return update_archive(empty, pos, vel, problem)[0]


def initialize_swarm(problem: Problem, n: int, cfg: PaoConfig, rng) -> Swarm:
    """Uniform positions within the box, velocities per cfg.velocity_init,
    best archives seeded from the first evaluation.  A population the
    attractor menu cannot run with raises before anything is drawn."""
    n = to_int("population size", n, ">= 1")
    for spec in cfg.specs:
        check_pop(spec.kind, n)
    v_half = None
    if cfg.velocity_init == "uniform-scaled":
        v_half = (problem.upper - problem.lower) / (2.0 * cfg.hp.dt)
    return _start_swarm(problem, n, rng, v_half)


def update_archive(
    swarm: Swarm, pos, vel, problem: Problem, greedy: bool = False, may_leave_box: bool = False
):
    """Evaluate the trial positions and fold them into the best archives.

    A trial improves its particle's personal best only if its fitness is
    lower and it lies inside the problem's box.  Only a caller whose trials
    can lie outside the box passes ``may_leave_box``, and only then is each
    trial tested against it: the PAO step under ``bounds_policy="none"``.
    Every other move clips or reflects its trials into the box.  With
    ``greedy`` (DE selection) the improving trials replace their parents
    and the others are discarded, so the population is its own archive.
    Returns the next generation's Swarm and the improvement mask.
    """
    fitness = evaluate_population(problem, pos)
    improved = fitness < swarm.local_best_fit
    if may_leave_box:
        improved &= ((pos >= problem.lower) & (pos <= problem.upper)).all(axis=-1)
    local_best_pos = np.where(improved[:, None], pos, swarm.local_best_pos)
    local_best_fit = np.where(improved, fitness, swarm.local_best_fit)
    best = local_best_fit.argmin()
    if local_best_fit[best] < swarm.global_best_fit:
        global_best_pos = local_best_pos[best].copy()
        global_best_fit = float(local_best_fit[best])
    else:
        global_best_pos = swarm.global_best_pos
        global_best_fit = swarm.global_best_fit
    if greedy:
        pos, fitness = local_best_pos, local_best_fit
    return Swarm(
        positions=pos,
        velocities=vel,
        fitness=fitness,
        local_best_pos=local_best_pos,
        local_best_fit=local_best_fit,
        global_best_pos=global_best_pos,
        global_best_fit=global_best_fit,
        generation=swarm.generation + 1,
    ), improved


def step_swarm(swarm: Swarm, cfg: PaoConfig, problem: Problem, rng) -> Swarm:
    """Advance the swarm one generation; returns a new Swarm.

    The centred positions and the velocities are stacked into one (N, D, 2)
    state, the only place that layout exists, which moves through one
    ``sample_transition`` call on ``cfg.kernel`` at noise variance q0 * nu,
    where nu is ``noise_scale(swarm)``, computed here and nowhere else; that
    call draws one (N, D, 2) block from ``rng``.
    """
    centroid = weighted_centroid(compute_attractors(swarm, cfg.specs, rng), cfg.hp.k)
    nu = noise_scale(swarm)

    # attractors are frozen within the step, so the velocity transforms as-is
    state = np.empty(swarm.positions.shape + (2,))
    np.subtract(swarm.positions, centroid, out=state[..., 0])
    state[..., 1] = swarm.velocities
    state = sample_transition(cfg.kernel, state, cfg.hp.q0 * nu, rng)
    pos, vel = apply_bounds(
        state[..., 0] + centroid, state[..., 1], problem.lower, problem.upper, cfg.bounds_policy
    )
    return update_archive(swarm, pos, vel, problem, may_leave_box=cfg.bounds_policy == "none")[0]


def drive(optimizer, problem: Problem, n, generations, seed, params, move, start=None):
    """One optimiser run under the shared contract.

    Reads n, ``generations`` and ``seed`` as integers, checks that
    ``optimizer`` can run with a population of n, seeds one generator, starts
    the population (``start(n, rng)``, by default uniform in the box with
    zero velocities), then applies ``move(swarm, rng)`` ``generations``
    times, logging the best-so-far after each generation.  The n starting
    positions and each generation's n trials go through
    :func:`update_archive`, which evaluates them, so a run uses exactly
    n * (generations + 1) evaluations.  Beside the history the
    record keeps, in memory only, each generation's best position.
    """
    n = to_int("population size", n, ">= 1")
    check_pop(optimizer, n)
    generations = to_int("generations", generations, ">= 0")
    seed = to_int("seed", seed, ">= 0")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    record = RunRecord(
        run_id=f"{optimizer}_{problem.name}_{problem.dim}d_seed{seed}",
        optimizer=optimizer,
        problem=problem.name,
        dim=problem.dim,
        seed=seed,
        pop=n,
        gens=generations,
        evals=n * (generations + 1),
        history=[],
        params=params,
    )
    swarm = start(n, rng) if start else _start_swarm(problem, n, rng)
    # a move that overflows is reported once, by evaluate_population's
    # ObjectiveEvaluationError, not first by a RuntimeWarning per NumPy call
    with np.errstate(over="ignore", invalid="ignore"):
        for g in range(generations + 1):
            if g:
                swarm = move(swarm, rng)
            best = float(swarm.global_best_fit)
            record.history.append(
                history_entry(
                    g=swarm.generation,
                    best=best,
                    # bit for bit swarm.fitness.mean(), without the wrapper's overhead
                    mean=float(np.add.reduce(swarm.fitness, axis=-1) / n),
                    shifted_best=shift_to_zero(problem, best),
                )
            )
            # shared, not copied: a new best is always a new array, never written in place
            record.best_pos.append(swarm.global_best_pos)
    record.duration_ms = (time.perf_counter() - t0) * 1e3
    return record


def run_pao(problem: Problem, n: int, generations: int, cfg: PaoConfig, seed) -> RunRecord:
    """Full optimiser run: init plus ``generations`` steps, seeded end to end.

    Uses exactly n * (generations + 1) objective evaluations.
    """
    return drive(
        "pao", problem, n, generations, seed, cfg.params_dict(),
        move=lambda swarm, rng: step_swarm(swarm, cfg, problem, rng),
        start=lambda n, rng: initialize_swarm(problem, n, cfg, rng),
    )
