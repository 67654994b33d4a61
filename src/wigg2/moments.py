"""Symmetrically ordered photon-number moments and g2(0).

For any state, the symmetric-order moments are plain integrals against
the Wigner function:
    nw  = int 1/2 (x^2 + p^2)   W dx dp
    nw2 = int 1/4 (x^2 + p^2)^2 W dx dp
and
    g2(0) = (nw2 - 2 nw + 1/2) / (nw - 1/2)^2.

A Gaussian enters only through its mean mu and its excess covariance
K = V - I/2 (zero at vacuum).  With t = |mu|^2 + tr K,
    nw  = t/2 + 1/2                       (mean photon number t/2)
    nw2 = t^2/4 + tr K^2/2 + mu^T K mu + t + 1/2
    g2  = 1 + 2 (tr K^2 + 2 mu^T K mu) / t^2,
all rotation invariant, so no diagonalization is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GridTooSmallError, NearVacuumError, check_int
from .states import GaussianState, wigner_eval

DEFAULT_EPSILON = 1e-9


@dataclass(frozen=True)
class WeylMoments:
    """The pair (<n_W>, <n_W^2>).  nw >= 1/2 with equality at vacuum."""

    nw: float
    nw2: float


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint-rule grid: half_width is in units of the largest sigma of
    the integrand (recommended >= 6), nodes per axis (recommended >= 64).
    Too-small grids are caught by the normalization check at use time,
    not at construction."""

    half_width: float = 8.0
    nodes: int = 801

    def __post_init__(self):
        if not 0.0 < self.half_width < math.inf:
            raise DomainError(f"QuadratureGrid: need 0 < half_width < inf, "
                              f"got {self.half_width!r}")
        check_int(self.nodes, "QuadratureGrid: nodes", 2)


@dataclass(frozen=True)
class G2Value:
    value: float
    mean_photon: float


def _k_form(x, p, vxx, vpp, vxp, per_t: bool):
    """(t, tr k^2, m^T k m) of the module docstring, elementwise over
    floats or arrays, for k = K/s and m = mu/sqrt(s), s = t if per_t and
    t > 0, else 1.  K's diagonal is v - 1/2, free of cancellation for
    weakly excited states; scaling by t keeps every square below the
    inputs.  A t that is not finite raises DomainError; a later overflow
    is left to the caller."""
    with np.errstate(over="ignore", invalid="ignore"):
        kxx, kpp, kxp = vxx - 0.5, vpp - 0.5, vxp
        t = x * x + p * p + kxx + kpp
        if not np.isfinite(t).all():
            raise DomainError("|mean|^2 + tr K overflows")
        if per_t:
            s = np.where(t > 0.0, t, 1.0)
            root = np.sqrt(s)
            kxx, kpp, kxp, x, p = kxx / s, kpp / s, kxp / s, x / root, p / root
        k2 = kxx * kxx + kpp * kpp + 2.0 * kxp * kxp
        q = kxx * x * x + kpp * p * p + 2.0 * kxp * x * p
    return t, k2, q


def weyl_moments_analytic(state: GaussianState) -> WeylMoments:
    """Closed-form symmetric moments of a Gaussian state (K-form of the
    module docstring); DomainError if one is not finite."""
    cov, mean = state.cov, state.mean
    t, k2, q = _k_form(mean.x, mean.p, cov.vxx, cov.vpp, cov.vxp, per_t=False)
    nw2 = 0.25 * t * t + 0.5 * k2 + q + t + 0.5
    if not math.isfinite(nw2):
        raise DomainError(f"<n_W^2> overflows: {state.to_dict()}")
    return WeylMoments(0.5 * t + 0.5, nw2)


def weyl_moments_numeric(
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: QuadratureGrid = QuadratureGrid(),
    sigma: float = 1.0,
    center: tuple[float, float] = (0.0, 0.0),
    norm_tol: float = 1e-6,
) -> WeylMoments:
    """Midpoint quadrature of the moment integrals for any (vectorized)
    Wigner evaluator.

    The grid spans center +- half_width * sigma per axis.  The evaluator
    must integrate to 1 on the grid within norm_tol, otherwise a
    GridTooSmallError reports the deficit.
    """
    if not (0.0 < sigma < math.inf and np.isfinite(center).all()):
        raise DomainError(f"weyl_moments_numeric: need a finite sigma > 0 and "
                          f"center, got {sigma!r}, {center!r}")
    L = grid.half_width * sigma
    n = grid.nodes
    h = 2.0 * L / n
    axis = -L + h * (np.arange(n) + 0.5)
    X, P = np.meshgrid(center[0] + axis, center[1] + axis, indexing="ij")
    W = np.asarray(evaluator(X, P), dtype=float)
    cell = h * h
    mass = float(W.sum() * cell)
    if not abs(mass - 1.0) <= norm_tol:
        raise GridTooSmallError(
            f"evaluator integrates to {mass:.9g} on the grid "
            f"(deficit {1.0 - mass:.3g}); enlarge half_width/nodes",
            deficit=1.0 - mass,
        )
    r2 = X * X + P * P
    nw = float((0.5 * r2 * W).sum() * cell)
    nw2 = float((0.25 * r2 * r2 * W).sum() * cell)
    return WeylMoments(nw, nw2)


def weyl_moments_numeric_state(
    state: GaussianState, grid: QuadratureGrid = QuadratureGrid()
) -> WeylMoments:
    """Numeric-quadrature moments of a Gaussian state; independent route
    from weyl_moments_analytic (used as its oracle)."""
    cov = state.cov
    # the largest principal variance
    sigma = math.sqrt(0.5 * (cov.vxx + cov.vpp)
                      + math.hypot(0.5 * (cov.vxx - cov.vpp), cov.vxp))
    center = (state.mean.x, state.mean.p)
    # widen so the grid also covers the displaced peak
    reach = math.hypot(state.mean.x, state.mean.p)
    eff_sigma = sigma + reach / grid.half_width
    return weyl_moments_numeric(
        lambda x, p: wigner_eval(state, x, p), grid, sigma=eff_sigma, center=center
    )


def _check_epsilon(epsilon) -> None:
    # a NaN epsilon would switch the near-vacuum guard n < epsilon off
    if not 0.0 <= epsilon < math.inf:
        raise DomainError(f"epsilon must be in [0, inf), got {epsilon}")


def _guard_near_vacuum(n, epsilon) -> None:
    """The near-vacuum guard: a mean photon number n below epsilon, or
    <= 0 whatever epsilon, raises NearVacuumError."""
    if n < epsilon or n <= 0.0:
        raise NearVacuumError(f"mean photon number {n:.3g} below guard "
                              f"{epsilon:.3g}; g2(0) is 0/0 at vacuum")


def g2_from_moments(m: WeylMoments, epsilon: float = DEFAULT_EPSILON) -> G2Value:
    """g2(0) from symmetric moments.

    Near vacuum both numerator and denominator vanish: a mean photon
    number below epsilon, or <= 0 whatever epsilon, raises
    NearVacuumError; a non-finite ratio raises DomainError, and so does
    an epsilon outside [0, inf), NaN included.
    """
    _check_epsilon(epsilon)
    n = m.nw - 0.5
    _guard_near_vacuum(n, epsilon)
    value = (m.nw2 - 2.0 * m.nw + 0.5) / n / n
    if not math.isfinite(value):
        raise DomainError(f"g2 from moments is not finite: {m}")
    return G2Value(value, n)


def g2_rows(x, p, vxx, vpp, vxp, epsilon: float = DEFAULT_EPSILON):
    """(g2(0), n = t/2, guarded) of states given as in _k_form, guarded
    where n < epsilon or t <= 0 (g2 then meaningless); DomainError if a t
    or an unguarded g2 is not finite, or epsilon is not in [0, inf)."""
    _check_epsilon(epsilon)
    t, k2, q = _k_form(x, p, vxx, vpp, vxp, per_t=True)
    n = 0.5 * t
    guarded = (n < epsilon) | (t <= 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        g2 = 1.0 + 2.0 * (k2 + 2.0 * q)
    if not np.all(np.isfinite(g2) | guarded):
        raise DomainError("g2 overflows")
    return g2, n, guarded


def g2_gaussian(state: GaussianState, epsilon: float = DEFAULT_EPSILON) -> G2Value:
    """Analytic g2(0) = 1 + 2 (tr K^2 + 2 mu^T K mu) / t^2 of a Gaussian
    state, K = V - I/2 and t/2 = (|mu|^2 + tr K)/2 its mean photon number:
    g2_rows of one state.  A state the near-vacuum guard catches raises
    NearVacuumError."""
    cov, mean = state.cov, state.mean
    g2, n, _ = g2_rows(mean.x, mean.p, cov.vxx, cov.vpp, cov.vxp, epsilon)
    _guard_near_vacuum(n, epsilon)
    return G2Value(float(g2), float(n))


def fig1_table(n_grid: Sequence[float]):
    """Rows (n, g2_coherent, g2_thermal, g2_squeezed) for a grid of mean
    photon numbers: the three reference curves 1, 2 and 3 + 1/n."""
    rows = []
    for n in n_grid:
        n = float(n)
        if not 0.0 < n < math.inf:
            raise DomainError(f"fig1_table: need 0 < n < inf, got n = {n}")
        rows.append((n, 1.0, 2.0, 3.0 + 1.0 / n))
    return rows
