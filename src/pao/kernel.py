"""Exact discretisation of the damped stochastic oscillator driving each
particle element.

Every element of every particle follows the scalar second-order SDE

    m x'' + c x' + k' x = forcing,      c = 2 zeta sqrt(k' m)

written in state-space form ``d(x, v) = F (x, v) dt + L dbeta`` with
``L = (0, 1)^T``.  Over a fixed interval ``dt`` the flow is an exact
Gaussian map: the next state is ``A (x, v) + noise`` with ``A = expm(F dt)``
and process-noise covariance ``Sigma``.  Both are obtained jointly from a
single 4x4 matrix exponential (matrix fraction decomposition), so no
time-stepping error is ever introduced, regardless of ``dt``.

The kernel is precomputed once per optimiser run for unit diffusion; the
actual per-generation noise variance enters as a scalar multiplier of the
Cholesky factor ``H`` of ``Sigma``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm


class NumericalFailure(RuntimeError):
    """A linear-algebra step produced a result that cannot occur for valid
    inputs (signals a broken matrix exponential, not bad hyperparameters)."""


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

    m: float = 1.0
    zeta: float = 0.2
    k: tuple = (1.0, 1.0)
    q0: float = 1.0
    dt: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(float(v) for v in self.k))
        for name in ("m", "zeta", "q0", "dt", "k"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.m > 0):
            raise ValueError(f"inertia m must be > 0, got {self.m}")
        if not (self.dt > 0):
            raise ValueError(f"interval dt must be > 0, got {self.dt}")
        if self.zeta < 0:
            raise ValueError(f"damping ratio zeta must be >= 0, got {self.zeta}")
        if self.q0 < 0:
            raise ValueError(f"stochastic scale q0 must be >= 0, got {self.q0}")
        if any(v < 0 for v in self.k):
            raise ValueError(f"stiffnesses must be >= 0, got {self.k}")
        if not (self.k_total > 0):
            raise ValueError("at least one stiffness must be strictly positive")

    @property
    def k_total(self) -> float:
        """Combined stiffness k' of the equivalent single spring."""
        return float(sum(self.k))


def build_drift_matrix(hp: Hyperparams) -> np.ndarray:
    """Drift matrix F of the state-space form, for state (position, velocity).

    F = [[0, 1], [-k'/m, -2 sqrt(k'/m) zeta]]
    """
    wn2 = hp.k_total / hp.m
    return np.array([[0.0, 1.0], [-wn2, -2.0 * np.sqrt(wn2) * hp.zeta]])


def matrix_exponential(mat) -> np.ndarray:
    """Matrix exponential of a square real matrix.

    Delegates to scipy's scaling-and-squaring Pade implementation, which is
    accurate to machine precision for the well-scaled 2x2 and 4x4 matrices
    arising here.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return expm(mat)


def matrix_fraction_decomposition(f, q: float, dt: float):
    """Transition matrix and process-noise covariance of the linear SDE.

    Builds the block matrix Phi = [[F, L q L^T], [0, -F^T]], exponentiates
    Phi*dt once, and reads off A (upper-left block) and
    Sigma = (upper-right) @ inv(lower-right).  Sigma is symmetrised before
    returning to suppress floating-point asymmetry.

    This jointly computed pair is exact; in particular it avoids the
    numerically unstable difference of near-equal terms that a direct
    covariance formula would require.
    """
    f = np.asarray(f, dtype=float)
    if q < 0:
        raise ValueError(f"diffusion spectral density must be >= 0, got {q}")
    if not (dt > 0):
        raise ValueError(f"interval dt must be > 0, got {dt}")
    n = f.shape[0]
    phi = np.zeros((2 * n, 2 * n))
    phi[:n, :n] = f
    phi[n - 1, 2 * n - 1] = q  # L q L^T with L = (0, ..., 0, 1)^T
    phi[n:, n:] = -f.T
    m = matrix_exponential(phi * dt)
    a = m[:n, :n]
    upper_right = m[:n, n:]
    lower_right = m[n:, n:]
    det = np.linalg.det(lower_right)
    if not np.isfinite(det) or abs(det) < 1e-300:
        raise NumericalFailure(
            "lower-right block of the matrix fraction exponential is singular"
        )
    sigma = np.linalg.solve(lower_right.T, upper_right.T).T
    sigma = 0.5 * (sigma + sigma.T)
    return a, sigma


def psd_cholesky(s) -> np.ndarray:
    """Lower-triangular H with H H^T = s for a symmetric PSD matrix.

    Falls back to an outer-product factorisation that zeroes non-positive
    pivots (and their columns) when the matrix is numerically singular, so a
    rank-deficient factor is still produced.
    """
    s = np.asarray(s, dtype=float)
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        n = s.shape[0]
        tol = np.finfo(float).eps * max(1.0, float(np.abs(np.diag(s)).max()))
        low = np.zeros_like(s)
        for i in range(n):
            d = s[i, i] - low[i, :i] @ low[i, :i]
            if d <= tol:
                continue  # zero pivot: leave row/column i at zero
            low[i, i] = np.sqrt(d)
            for j in range(i + 1, n):
                low[j, i] = (s[j, i] - low[j, :i] @ low[i, :i]) / low[i, i]
        return low


@dataclass(frozen=True)
class TransitionKernel:
    """Precomputed one-step Gaussian transition map for a single element.

    a           2x2 state transition matrix expm(F dt)
    sigma_unit  process-noise covariance for unit diffusion (q = 1)
    h           lower-triangular Cholesky factor of sigma_unit

    Immutable after construction; safe to share across threads.
    """

    a: np.ndarray
    sigma_unit: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        for arr in (self.a, self.sigma_unit, self.h):
            arr.setflags(write=False)


def build_kernel(hp: Hyperparams) -> TransitionKernel:
    """Precompute A, unit-diffusion Sigma and its Cholesky factor for hp."""
    f = build_drift_matrix(hp)
    a, sigma = matrix_fraction_decomposition(f, 1.0, hp.dt)
    h = psd_cholesky(sigma)
    return TransitionKernel(a=a, sigma_unit=sigma, h=h)


def sample_transition(kernel: TransitionKernel, x, noise_variance: float, rng) -> np.ndarray:
    """Draw the next (position, velocity) state given the current one.

    Returns a @ x + sqrt(noise_variance) * h @ d with d ~ N(0, I_2).  With
    zero noise variance the Gaussian draw is skipped entirely and the
    deterministic map is applied.
    """
    if noise_variance < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_variance}")
    x = np.asarray(x, dtype=float)
    mean = kernel.a @ x
    if noise_variance == 0.0:
        return mean
    d = rng.standard_normal(2)
    return mean + np.sqrt(noise_variance) * (kernel.h @ d)


def transition_logpdf(kernel: TransitionKernel, x_from, x_to, noise_variance: float) -> float:
    """Log-density of the one-step transition from x_from to x_to.

    The transition is Gaussian with mean a @ x_from and covariance
    noise_variance * sigma_unit.  Exposed so the optimiser can serve as a
    proposal inside sequential Monte Carlo schemes.
    """
    if noise_variance <= 0:
        raise DegenerateCovariance(
            f"noise variance must be > 0 for a density, got {noise_variance}"
        )
    cov = noise_variance * kernel.sigma_unit
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    scale = float(np.abs(cov).max())
    if det <= (1e-12 * scale) ** 2 or not np.isfinite(det):
        raise DegenerateCovariance("transition covariance is singular beyond tolerance")
    r = np.asarray(x_to, dtype=float) - kernel.a @ np.asarray(x_from, dtype=float)
    maha = (cov[1, 1] * r[0] ** 2 - 2.0 * cov[0, 1] * r[0] * r[1] + cov[0, 0] * r[1] ** 2) / det
    return float(-np.log(2.0 * np.pi) - 0.5 * np.log(det) - 0.5 * maha)
