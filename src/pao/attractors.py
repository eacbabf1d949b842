"""Attraction points, their stiffness-weighted centroid and the swarm noise
scale.

One table maps each attractor kind to its rule, and ``VALID_KINDS`` is its
keys.  ``compute_attractors`` fills one (N, D) slice of the (r, N, D)
attractor tensor per spec with its kind's rule.  All rules are pure functions
of a snapshot of the swarm plus an explicit random source.  The stiffnesses
are not stored with the attractors: ``weighted_centroid`` takes them as a
plain sequence, one per slice, and ``engine.PaoConfig`` holds them beside the
attractor menu.

A generation runs a few dozen NumPy calls on small arrays, so call overhead
counts: reductions go through the ufunc's ``reduce`` rather than the
``mean``/``sum``/``min``/``max`` wrappers, which give the same bits at a
higher cost.  Each reduction over particles runs along axis -2, so it
carries over to a leading repetition axis.  What a run holds fixed is
checked and built once, on first use, in a bounded least-recently-used
cache of read-only arrays: ``weighted_centroid`` keeps one (1, r) stiffness
row and its total per distinct ``k`` (a bad ``k`` raises and is never
kept), and ``draw_donors`` one (size, n) array of draw bounds per
(n, size).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .settings import read_fields, setting, to_choice, to_name

# Differential weight of the derand1bin attractor's rand/1 donor.
DE_WEIGHT = 0.5

# attractor kind -> rule(swarm, spec, rng): the kind's attraction points, an
# array that broadcasts to the swarm's (N, D) positions
_RULES = {
    "globalbest": lambda swarm, spec, rng: swarm.global_best_pos,
    "localbest": lambda swarm, spec, rng: swarm.local_best_pos,
    "averagelocalbest": lambda swarm, spec, rng: particle_mean(swarm.local_best_pos),
    "averageparticle": lambda swarm, spec, rng: particle_mean(swarm.positions),
    "weightedaverageparticle": lambda swarm, spec, rng: _fitness_weighted_mean(swarm.positions, swarm.fitness),
    "derand1bin": lambda swarm, spec, rng: _de_donors(swarm.positions, rng),
    "stochasticgaussian": lambda swarm, spec, rng: (
        swarm.global_best_pos + spec.stddev * rng.standard_normal(swarm.positions.shape)
    ),
}
VALID_KINDS = tuple(_RULES)
# the kinds whose rule draws from rng; a run whose menu holds one draws its
# noise in line (see engine.noise_block), so its draws keep their order
DRAWING_KINDS = frozenset({"derand1bin", "stochasticgaussian"})


@dataclass(frozen=True)
class AttractorSpec:
    """One attractor rule; ``stddev`` applies to stochasticgaussian only, and
    every other kind refuses a spread other than the default."""

    kind: str
    stddev: float = setting(1.0, ">= 0")

    def __post_init__(self):
        object.__setattr__(self, "kind", to_choice("attractor kind", self.kind, VALID_KINDS))
        read_fields(self, f"attractor spec {self.kind}: ")
        if self.kind != "stochasticgaussian" and self.stddev != AttractorSpec.stddev:
            raise ValueError(f"attractor spec {self.kind}: {self.kind} takes no argument, got stddev {self.stddev}")

    @classmethod
    def parse(cls, text: str) -> "AttractorSpec":
        """Parse a config string, e.g. ``globalbest`` or ``stochasticgaussian:0.5``."""
        kind, colon, arg = to_name("attractor spec", text).partition(":")
        spec = cls(kind)
        if not colon:
            return spec
        if not arg.strip():
            raise ValueError(f"attractor spec {text!r}: nothing follows the ':'")
        if spec.kind != "stochasticgaussian":
            raise ValueError(f"attractor spec {text!r}: {spec.kind} takes no argument")
        try:
            stddev = float(arg)
        except ValueError:
            raise ValueError(f"attractor spec {text!r}: {arg.strip()!r} is not a number") from None
        return cls(kind, stddev=stddev)

    def label(self) -> str:
        """Round-trippable config string for this spec."""
        if self.kind == "stochasticgaussian":
            return f"{self.kind}:{self.stddev}"
        return self.kind


def compute_attractors(swarm, specs, rng) -> np.ndarray:
    """Fill one attractor slice per spec from the current swarm snapshot.

    Returns the (r, N, D) attractor tensor, one (N, D) slice per spec.
    Needs the swarm's fitness and best archives to be up to date.
    """
    alpha = np.empty((len(specs),) + swarm.positions.shape)
    for s, spec in enumerate(specs):
        alpha[s] = _RULES[spec.kind](swarm, spec, rng)
    return alpha


def particle_mean(x) -> np.ndarray:
    """Mean over the particle axis (-2); bit for bit ``x.mean(axis=-2)``,
    which is this sum followed by a true divide by the count."""
    return np.add.reduce(x, axis=-2) / x.shape[-2]


def _fitness_weighted_mean(positions, fitness):
    # softmax of negative min-max-normalised fitness: scale-free and
    # minimisation-consistent, no division by possibly-zero raw fitness
    lo, hi = np.minimum.reduce(fitness), np.maximum.reduce(fitness)
    w = np.exp(-(fitness - lo) / (hi - lo + 1e-12))
    w /= np.add.reduce(w)
    return w @ positions


# the smallest population each user of ``draw_donors`` can draw its donors
# from: the derand1bin attractor and the DE and SADE baselines
MIN_POP = {"derand1bin": 4, "de": 4, "sade": 5}


def check_pop(name: str, n: int):
    """Raise unless ``name`` can run with a population of ``n``."""
    least = MIN_POP.get(name, 1)
    if n < least:
        raise ValueError(f"{name} needs a population of at least {least}, got {n}")


def _de_donors(positions, rng):
    """The derand1bin attractor: the rand/1 donor p_a + 0.5 (p_b - p_c), with
    a, b, c distinct and not the particle itself; no crossover is applied."""
    n = positions.shape[0]
    check_pop("derand1bin", n)
    # gathered on the (3, n) picks, each donor is a contiguous (n, D) slice
    p = positions[draw_donors(n, 3, rng).T]
    return p[0] + DE_WEIGHT * (p[1] - p[2])


def draw_donors(n, size, rng):
    """(n, size) donor indices shared by the DE attractor and the DE/SADE
    baselines: row i holds ``size`` distinct indices from range(n) without i
    (n > size), each pick uniform over the indices not yet taken.  It is
    :func:`decode_donors` of one ``rng.integers`` draw on the cached bounds,
    transposed."""
    return decode_donors(rng.integers(_donor_bounds(n, size))).T


@lru_cache(maxsize=32)
def _donor_bounds(n, size):
    # pick t is one of the n - 1 - t free slots: row t of this (size, n)
    # block, which one rng.integers call fills row by row with the draws of
    # one rng.integers(n - 1 - t, size=n) per t
    bounds = np.repeat(np.arange(n - 1, n - 1 - size, -1)[:, None], n, axis=1)
    bounds.flags.writeable = False
    return bounds


def decode_donors(picks):
    """Map raw draws to donor indices in place and return them: ``picks`` is
    a (..., size, n) stack of draws on the bounds ``draw_donors`` uses, one
    (size, n) block per leading index, decoded as that many separate calls
    would decode them."""
    # pick t indexes range(n) less the row's own index and picks 0 .. t - 1.
    # Decoding right to left as a Lehmer code puts each removal back, last
    # first: every later pick at or above pick t steps up by one, then every
    # pick at or above the own index does.  That is the index that stepping
    # the pick past the taken indices in ascending order reaches.
    for t in range(picks.shape[-2] - 2, -1, -1):
        later = picks[..., t + 1:, :]
        later += later >= picks[..., t:t + 1, :]
    picks += picks >= np.arange(picks.shape[-1])
    return picks


def weighted_centroid(alpha, k) -> np.ndarray:
    """Stiffness-weighted mean attractor, (N, D): (1/k') sum_r k_r alpha_r,
    for (r, N, D) attractors ``alpha`` and r finite stiffnesses ``k`` >= 0."""
    try:
        row, total = _stiffness_row(tuple(k))
    except (TypeError, ValueError):
        row = None
    if row is None or alpha.ndim != 3 or row.shape[1] != alpha.shape[0]:
        raise ValueError(
            f"need (r, N, D) attractors, r stiffnesses, each finite and >= 0, and a total stiffness > 0; "
            f"got alpha of shape {alpha.shape} and k = {np.asarray(k, dtype=float).tolist()}"
        )
    # the (1, r) x (r, N*D) product np.tensordot(k, alpha, axes=(0, 0)) makes,
    # without its argument handling
    return np.dot(row, alpha.reshape(row.shape[1], -1)).reshape(alpha.shape[1:]) / total


@lru_cache(maxsize=32)
def _stiffness_row(k):
    """The read-only (1, r) row of the stiffness tuple ``k`` and its total;
    a ``k`` that is not r finite stiffnesses >= 0 with a positive total
    raises ``ValueError``.  Adding 0.0 reads a stiffness of -0.0 as +0.0, so
    keys that compare equal give the same row in whatever order they come."""
    k = np.asarray(k, dtype=float) + 0.0
    total = np.add.reduce(k)
    if k.ndim != 1 or not (total > 0) or not all(0 <= v < math.inf for v in k.tolist()):
        raise ValueError(f"bad stiffnesses {k.tolist()}")
    k.flags.writeable = False
    return k[None, :], total


def noise_scale(swarm) -> float:
    """Squared distance between mean particle position and the global best.

    One scalar per swarm per generation; shrinks to zero as the swarm
    collapses onto its best point, so the injected noise dies out with
    convergence.
    """
    diff = particle_mean(swarm.positions) - swarm.global_best_pos
    return float(diff @ diff)
