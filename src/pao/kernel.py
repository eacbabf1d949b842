"""Exact discretisation of the damped stochastic oscillator driving each
particle element.

Every element of every particle follows the scalar second-order SDE

    m x'' + c x' + k' x = forcing,      c = 2 zeta sqrt(k' m)

written in state-space form ``d(x, v) = F (x, v) dt + L dbeta`` with
``L = (0, 1)^T``.  Over a fixed interval ``dt`` the flow is an exact
Gaussian map: the next state is ``A (x, v) + noise`` with ``A = e^{F dt}``
and process-noise covariance ``Sigma``.  Both come from one exponential of
the 4x4 Van Loan block ``[[F, L L^T], [0, -F^T]]`` (matrix fraction
decomposition), taken in plain NumPy by scaling and squaring, so no
time-stepping error is ever introduced, regardless of ``dt``.

The kernel is a value of the hyperparameters, ``TransitionKernel(hp)``, built
once per config, with unit diffusion; the per-generation noise variance is
the one scalar multiplier of the Cholesky factor ``H`` of ``Sigma``, through
which a draw maps standard normals and the density whitens a residual.

A and H are stored column-major, so their transposes are the C-contiguous
right operands of the stacked product: a stack of states (the engine's
swarm) moves through one array product per matrix.  A single (2,) state
moves, and is scored, in float arithmetic from the kernel's cached entries
of A and H, which skips NumPy's per-call cost.  Its last bits can differ
from ``a @ x`` and from the stacked path; run records come from the stacked
path and do not depend on it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .settings import read_fields, setting, to_float

# 1/(4j + i)! for the Paterson-Stockmeyer blocks of the degree-15 Taylor
# polynomial: sum_j (X^4)^j (sum_i c_ji X^i), i, j = 0..3
_TAYLOR_COEF = np.array([[1.0 / math.factorial(4 * j + i) for i in range(4)] for j in range(4)])
_EYE4 = np.eye(4)
_EPS = np.finfo(float).eps


class DegenerateCovariance(ValueError):
    """The requested Gaussian density has a singular covariance."""


@dataclass(frozen=True)
class Hyperparams:
    """Dynamics hyperparameters of the particle oscillator.

    m     inertia coefficient (> 0)
    zeta  damping ratio (>= 0); < 1 underdamped, 1 critical, > 1 overdamped
    k     stiffness weight per attractor (each >= 0, sum > 0)
    q0    stochastic scale multiplying the swarm noise function (>= 0)
    dt    integration interval of one generation (> 0)
    """

    m: float = setting(1.0, "> 0")
    zeta: float = setting(0.2, ">= 0")
    k: tuple = (1.0, 1.0)
    q0: float = setting(1.0, ">= 0")
    dt: float = setting(1.0, "> 0")

    def __post_init__(self):
        # floats, so a record's params read back through PaoConfig.from_params
        # write the same bytes; k takes numeric strings, as `kernel-info --k 1,2`
        read_fields(self)
        object.__setattr__(self, "k", tuple(to_float("k", v, ">= 0", strings=True) for v in self.k))
        if not (self.k_total > 0):
            raise ValueError("at least one stiffness must be strictly positive")
        wn2, damping = (-build_drift_matrix(self)[1]).tolist()
        if not (math.isfinite(wn2) and math.isfinite(damping)):
            raise ValueError(
                f"k = {list(self.k)}, m = {self.m} and zeta = {self.zeta} give a drift matrix "
                f"that is not finite: k'/m = {wn2}, 2 zeta sqrt(k'/m) = {damping}"
            )

    @property
    def k_total(self) -> float:
        """Combined stiffness k' of the equivalent single spring."""
        return float(sum(self.k))


def build_drift_matrix(hp: Hyperparams) -> np.ndarray:
    """Drift matrix F of the state-space form, for state (position, velocity).

    F = [[0, 1], [-k'/m, -2 sqrt(k'/m) zeta]], its entries in float
    arithmetic: one that overflows is inf, and nothing warns.
    """
    wn2 = hp.k_total / hp.m
    return np.array([[0.0, 1.0], [-wn2, -2.0 * math.sqrt(wn2) * hp.zeta]])


def _taylor_expm(x) -> np.ndarray:
    """Degree-15 Taylor polynomial of e^x for a 4x4 x with ||x||_1 < 1/2.

    The truncation error is below 0.5^16/16! ~ 1e-18, under double rounding.
    Paterson-Stockmeyer evaluation takes six matrix products.
    """
    x2 = x @ x
    x4 = x2 @ x2
    powers = np.empty((4, 16))
    powers[0], powers[1], powers[2], powers[3] = _EYE4.ravel(), x.ravel(), x2.ravel(), (x2 @ x).ravel()
    blocks = (_TAYLOR_COEF @ powers).reshape(4, 4, 4)
    e = blocks[3]
    for j in (2, 1, 0):
        e = e @ x4 + blocks[j]
    return e


def matrix_fraction_decomposition(f, dt: float):
    """Transition matrix and unit-diffusion noise covariance of the 2x2 SDE.

    The Van Loan block Phi = [[F, L L^T], [0, -F^T]] (unit diffusion,
    L = (0, 1)^T) is exponentiated over h = dt / 2^s, with s at most one
    more than the smallest integer such that ||F||_1 h < 1/2, by a Taylor
    polynomial.  s is read from the binary exponent of 2 ||F||_1 dt, or,
    where that product overflows, as the sum of the exponents of 2 ||F||_1
    and of dt, so every finite dt > 0 builds.  Its blocks give A_h and
    Sigma_h = UR @ inv(LR).  LR = e^{-F^T h} has the exact
    inverse e^{F^T h} = A_h^T, so Sigma_h = UR @ A_h^T needs no solve and no
    singularity test.  The interval is then doubled s times with
    Sigma <- A Sigma A^T + Sigma and A <- A^2.  This never forms
    e^{-F^T dt}, which grows like e^{|lambda| dt} and cannot be inverted
    accurately over long intervals.  Sigma is symmetrised to suppress
    floating-point asymmetry; :class:`TransitionKernel` stores A column-major.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (2, 2):
        raise ValueError(f"drift matrix must be 2x2, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError(f"drift matrix must be finite, got {f.tolist()}")
    dt = to_float("dt", dt, "> 0")
    norm2 = 2.0 * float(np.abs(f).sum(axis=0).max())
    span = norm2 * dt
    s = max(0, math.frexp(span)[1] if math.isfinite(span) else math.frexp(norm2)[1] + math.frexp(dt)[1])
    h = math.ldexp(dt, -s)
    phi = np.zeros((4, 4))
    phi[:2, :2] = f * h
    phi[1, 3] = h  # L L^T with L = (0, 1)^T
    phi[2:, 2:] = -f.T * h
    e = _taylor_expm(phi)
    a = e[:2, :2]
    sigma = e[:2, 2:] @ a.T
    # an overflow here is reported by the finiteness check of the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            sigma = a @ sigma @ a.T + sigma
            a = a @ a
    return a, 0.5 * (sigma + sigma.T)


def psd_cholesky(s) -> np.ndarray:
    """Lower-triangular H with H H^T = s for a symmetric PSD 2x2 matrix.

    Closed form of the 2x2 Cholesky factorisation.  A positive definite s
    gets its full factor, however small its entries.  Otherwise a first
    pivot at or below eps * max(diag) is rounding, whose row and column of
    H stay zero, and a pivot that is not positive is zero, so a singular
    matrix still gets a factor, with a zero pivot.  A matrix that is not
    2x2, or not finite, raises ``ValueError``.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (2, 2):
        raise ValueError(f"covariance must be 2x2, got shape {s.shape}")
    (s00, s01), (s10, s11) = s.tolist()
    if not all(map(math.isfinite, (s00, s01, s10, s11))):
        raise ValueError(f"covariance must be finite, got {[[s00, s01], [s10, s11]]}")
    l00 = math.sqrt(s00) if s00 > 0 else 0.0
    l10 = s10 / l00 if l00 else 0.0
    d = s11 - l10 * l10
    if d <= 0 and s00 <= _EPS * max(abs(s00), abs(s11)):
        l00, l10, d = 0.0, 0.0, s11
    return np.array([[l00, 0.0], [l10, math.sqrt(d) if d > 0 else 0.0]])


@dataclass(frozen=True)
class TransitionKernel:
    """One-step Gaussian transition map for a single element, built from
    ``hp`` alone; two kernels are equal, and hash alike, when their ``hp``
    are.  Derived from hp at construction (only m, zeta, k' and dt count):

    a           2x2 state transition matrix e^{F dt}, stored column-major
    sigma_unit  process-noise covariance for unit diffusion
    h           lower-triangular Cholesky factor of sigma_unit, column-major
    entries     (a00, a01, a10, a11), the entries of a as floats
    factor      (h00, h10, h11), the entries of h as floats
    degenerate  whether h has a zero pivot, h00 or h11; a variance v > 0
                scales h by sqrt(v), so this holds for every variance
    log_norm    -log 2 pi - log h00 - log h11, the log-normaliser of the
                unit-diffusion density (nan where degenerate)

    Raises ``ValueError`` where A or Sigma overflows to a non-finite value.
    A single (2,) state is drawn and scored in float arithmetic from
    ``entries`` and ``factor``, a stack through ``a.T`` and ``h.T``, the
    C-contiguous right operands of :func:`_matvec`.  The two agree to a few
    ulps, not bit for bit, and the single-state bits can also differ in the
    last place from ``a @ x``; run records come from the stacked path.

    Immutable after construction; safe to share across threads.
    """

    hp: Hyperparams
    a: np.ndarray = field(init=False, repr=False, compare=False)
    sigma_unit: np.ndarray = field(init=False, repr=False, compare=False)
    h: np.ndarray = field(init=False, repr=False, compare=False)
    entries: tuple = field(init=False, repr=False, compare=False)
    factor: tuple = field(init=False, repr=False, compare=False)
    degenerate: bool = field(init=False, repr=False, compare=False)
    log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, sigma = matrix_fraction_decomposition(build_drift_matrix(self.hp), self.hp.dt)
        if not all(map(math.isfinite, a.ravel().tolist() + sigma.ravel().tolist())):
            raise ValueError(f"A and Sigma of {self.hp} are not finite")
        h = psd_cholesky(sigma)
        (h00, _), (h10, h11) = h.tolist()
        degenerate = not (h00 > 0 and h11 > 0)
        derived = dict(
            a=np.asfortranarray(a),
            sigma_unit=sigma,
            h=np.asfortranarray(h),
            entries=tuple(a.ravel().tolist()),
            factor=(h00, h10, h11),
            degenerate=degenerate,
            log_norm=math.nan if degenerate else -math.log(2.0 * math.pi) - math.log(h00) - math.log(h11),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        for arr in (self.a, self.sigma_unit, self.h):
            arr.setflags(write=False)

    def __reduce__(self):
        # a copy or an unpickled kernel is rebuilt from hp, its arrays read-only
        return (TransitionKernel, (self.hp,))


def build_kernel(hp: Hyperparams) -> TransitionKernel:
    """The transition kernel of hp, as :class:`TransitionKernel` builds it."""
    return TransitionKernel(hp)


def _matvec(m_t, x):
    """m @ s for every state s along the last axis of the (..., 2) stack x,
    with m_t the C-contiguous m^T (``.T`` of a column-major m): one (M, 2)
    product against m_t, which beats both a broadcast 3-D product and the
    transposed view of a row-major m."""
    return (x.reshape(-1, 2) @ m_t).reshape(x.shape)


def _mean(kernel, x0, x1):
    """A (x0, x1) in float arithmetic: the mean of a single-state move."""
    a00, a01, a10, a11 = kernel.entries
    return a00 * x0 + a01 * x1, a10 * x0 + a11 * x1


def sample_transition(kernel: TransitionKernel, x, noise_variance: float, rng) -> np.ndarray:
    """Draw the next (position, velocity) states of a (..., 2) array of states.

    Returns x A^T + sqrt(noise_variance) z H^T, with z drawn from ``rng`` in
    one ``standard_normal(x.shape)`` block.  With zero noise variance the
    draw is skipped entirely and the deterministic map is applied.  The
    variance must be finite and >= 0, and x an array whose last axis has
    length 2; a single (2,) state must be finite and is mapped in float
    arithmetic (see :class:`TransitionKernel`), its result written into the
    (2,) array the generator returns for its normals.
    """
    if not (0 <= noise_variance < math.inf):
        raise ValueError(f"noise variance must be finite and >= 0, got {noise_variance}")
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        if x.shape[-1:] != (2,):
            raise ValueError(f"states must have a last axis of length 2, got shape {x.shape}")
        mean = _matvec(kernel.a.T, x)
        if noise_variance == 0.0:
            return mean
        noise = _matvec(kernel.h.T, rng.standard_normal(mean.shape))
        noise *= math.sqrt(noise_variance)
        noise += mean
        return noise
    x0, x1 = x.tolist()
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ValueError(f"state must be finite, got {[x0, x1]}")
    m0, m1 = _mean(kernel, x0, x1)
    if noise_variance == 0.0:
        return np.array([m0, m1])
    z = rng.standard_normal(2)
    z0, z1 = z.tolist()
    h00, h10, h11 = kernel.factor
    s = math.sqrt(noise_variance)
    z[0], z[1] = m0 + s * (h00 * z0), m1 + s * (h10 * z0 + h11 * z1)
    return z


def transition_logpdf(kernel: TransitionKernel, x_from, x_to, noise_variance: float) -> float:
    """Log-density of the one-step transition from the state x_from to x_to.

    The density of the move x' = A x + sqrt(v) H z of :func:`sample_transition`
    (z standard normal) between single (2,) states, by change of variables:
    the residual r = x' - A x, with A x the sampler's own float mean, is
    whitened by forward substitution through the kernel's cached factor H,
    giving log_norm - log v - |H^-1 r|^2 / (2 v), so no determinant of
    v * sigma_unit is formed and any finite v > 0 works.
    Raises ``DegenerateCovariance`` for v = 0 or a kernel whose H has a zero
    pivot, and ``ValueError`` for a non-finite v, non-finite states or states
    of another shape.  Exposed for use as a proposal in sequential Monte Carlo.
    """
    if not math.isfinite(noise_variance):
        raise ValueError(f"noise variance must be finite, got {noise_variance}")
    if noise_variance <= 0:
        raise DegenerateCovariance(
            f"noise variance must be > 0 for a density, got {noise_variance}"
        )
    if kernel.degenerate:
        raise DegenerateCovariance("transition covariance is singular: H has a zero pivot")
    x_from, x_to = np.asarray(x_from, dtype=float), np.asarray(x_to, dtype=float)
    if x_from.shape != (2,) or x_to.shape != (2,):
        raise ValueError(
            f"the density takes single (2,) states, got {x_from.shape} and {x_to.shape}"
        )
    x0, x1 = x_from.tolist()
    y0, y1 = x_to.tolist()
    m0, m1 = _mean(kernel, x0, x1)
    r0, r1 = y0 - m0, y1 - m1
    if not (math.isfinite(r0) and math.isfinite(r1)):
        raise ValueError(f"states must be finite, got {[x0, x1]} and {[y0, y1]}")
    h00, h10, h11 = kernel.factor
    z0 = r0 / h00
    z1 = (r1 - h10 * z0) / h11
    return kernel.log_norm - math.log(noise_variance) - 0.5 * (z0 * z0 + z1 * z1) / noise_variance
