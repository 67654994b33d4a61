"""Photon-number statistics of Gaussian states from the Fock-basis
Hermite form.

rho_mn = T G_mn, with G the renormalised two-index Hermite polynomials
of the Husimi generating function (Quesada et al., PRA 100, 022341
(2019)): B = (I - sigma_Q^-1) X with X the swap, gamma = sigma_Q^-1 zeta
and T = exp(-zeta^dagger sigma_Q^-1 zeta / 2) / sqrt(D).  With K = V - I/2
and a = (x + i p)/sqrt(2), zeta = (a, conj a), sigma_Q = [[1 + tau, c],
[conj c, 1 + tau]], tau = tr K/2, c = (kxx - kpp)/2 + i kxp and D = det
sigma_Q = 1 + tr K + det K, so in closed form (exact for the vacuum)
B_11 = conj(c)/D, gamma_1 = ((1 + tau) conj a - conj(c) a)/D and
T = exp(-((1 + tau)|a|^2 - Re(c conj(a)^2))/D) / sqrt(D).
B is Hermitian-symmetric (B_11 = conj B_00, gamma_1 = conj gamma_0), so
the generating function factorises and the diagonal is one binomial sum
over the pure row G_{0,j}:
    G_nn = sum_{k=0..n} C(n, k) b^k |G_{0,n-k}|^2,
    b = B_01 = (det V - 1/4) / det(V + I/2)
      = (det K + tr K/2) / (1 + tr K + det K),  K = V - I/2.
b >= 0 is the uncertainty relation and b = 0 for a pure state, decided
within round-off of det V - 1/4.  The row comes from the scalar
recursion G_{0,j+1} = (gamma_1 G_{0,j} + B_11 sqrt(j) G_{0,j-1}) /
sqrt(j+1) in linear scale (so an overflow, from <n> ~ 700, still shows
as a non-finite p(n)).  The sum is a binomial transform of u_j =
|G_{0,j}|^2: n_max Pascal steps r[j] <- r[j+1] + b r[j] leave, after
step t, r[j] = sum_k C(t, k) b^k u_{j+t-k}, and G_tt = r[0].  Every
term is non-negative and C(t, k) <= C(j+t, k), so each intermediate is
at most G_mm with m = j + t <= n_max: nothing overflows unless p(n)
itself does.  p(n) = T G_nn costs O(n_max^2) work and O(n_max) memory,
and O(n_max) work when b = 0, where G_nn = u_n.  This is the
Fock-basis route for the Wigner-moment identities (the midpoint
quadrature in `moments` is the independent one), for the photon-number
statistics of `g2_from_pn` and the `pn` command, and for the click
estimator's expectation; the click simulator takes its no-click
probabilities in closed form instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError, check_int
from .moments import DEFAULT_EPSILON, _guard_near_vacuum
from .states import GaussianState, _check_physical


def fock_wigner(n: int, x, p):
    """Wigner function of the n-photon Fock state, by stable Laguerre
    recurrence.  Accepts scalars or arrays for (x, p)."""
    check_int(n, "fock_wigner: n", 0)
    t = 2.0 * (np.asarray(x, dtype=float) ** 2 + np.asarray(p, dtype=float) ** 2)
    lm1 = np.ones_like(t)
    if n == 0:
        ln = lm1
    else:
        ln = 1.0 - t
        for k in range(1, n):
            lm1, ln = ln, ((2.0 * k + 1.0 - t) * ln - k * lm1) / (k + 1.0)
    out = ((-1.0) ** n / math.pi) * np.exp(-t / 2.0) * ln
    if np.ndim(out) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """p(n) for n = 0..n_max plus the unaccounted tail mass.

    Round-off outside [0, 1] is clamped; no renormalization is
    applied, tail_mass keeps the accounting honest."""

    probs: np.ndarray
    n_max: int
    tail_mass: float

    def __post_init__(self):
        check_int(self.n_max, "PhotonNumberDistribution: n_max", 0)
        probs = np.asarray(self.probs, dtype=float).copy()
        if probs.shape != (self.n_max + 1,):
            raise DomainError(f"PhotonNumberDistribution: probs must have "
                              f"shape ({self.n_max + 1},) for n_max="
                              f"{self.n_max}, got {probs.shape}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> float:
        n = np.arange(self.n_max + 1)
        return float(np.dot(self.probs, n))


def _husimi_form(cov):
    """(1 + tau, c, D, b) of the module docstring from K = V - I/2, with
    b = (det K + tr K/2) / D unclamped: >= 0 up to round-off for a
    physical state, 0 for a pure one."""
    kxx, kpp, kxp = cov.vxx - 0.5, cov.vpp - 0.5, cov.vxp
    det_k = kxx * kpp - kxp * kxp
    d = 1.0 + kxx + kpp + det_k
    return (1.0 + 0.5 * (kxx + kpp), complex(0.5 * (kxx - kpp), kxp), d,
            (det_k + 0.5 * (kxx + kpp)) / d)


def _hermite_row(g1: complex, b11: complex, n_max: int) -> np.ndarray:
    """G_{0,j} for j = 0..n_max, in linear scale."""
    lower, g = 0.0j, 1.0 + 0.0j
    row = [g]
    for n in range(n_max):
        lower, g = g, (g1 * g + b11 * math.sqrt(n) * lower) / math.sqrt(n + 1)
        row.append(g)
    return np.array(row)


def _hermite_diagonal(b: float, row: np.ndarray) -> np.ndarray:
    """G_nn = sum_k C(n, k) b^k |G_{0,n-k}|^2 for n = 0..len(row) - 1, by
    the binomial transform: after t Pascal steps r[j] <- r[j+1] + b r[j],
    r[j] = sum_k C(t, k) b^k |G_{0,j+t-k}|^2, so G_tt = r[0]."""
    r = row.real ** 2 + row.imag ** 2
    if b == 0.0:
        return r
    diag = np.empty_like(r)
    diag[0] = r[0]
    for n in range(1, len(diag)):
        r = r[1:] + b * r[:-1]
        diag[n] = r[0]
    return diag


def photon_number_distribution(
    state: GaussianState, n_max: int, tol: float = 1e-9
) -> PhotonNumberDistribution:
    """Photon-number probabilities of a Gaussian state up to n_max.

    Raises TruncationError (with a suggested n_max) if the tail mass
    beyond n_max exceeds tol, and DomainError for an n_max that is not
    an integer >= 0, a tol that is not a number >= 0, a covariance below
    the uncertainty bound det V >= 1/4, or non-finite probabilities or
    tail mass.
    """
    check_int(n_max, "photon_number_distribution: n_max", 0)
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol >= 0.0:
        raise DomainError(f"photon_number_distribution: tol must be a number "
                          f">= 0, got {tol!r}")
    pure = _check_physical(state.cov, "photon_number_distribution")
    one_tau, cq, d, b = _husimi_form(state.cov)
    b = 0.0 if pure else max(b, 0.0)
    # T, gamma_1 and B_11 in closed form (module docstring)
    a = complex(state.mean.x, state.mean.p) / math.sqrt(2.0)
    ac = a.conjugate()
    pref = (math.exp(-(one_tau * (a * ac).real - (cq * ac * ac).real) / d)
            / math.sqrt(d))
    # an overflow shows up as non-finite probabilities, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        row = _hermite_row((one_tau * ac - cq.conjugate() * a) / d,
                           cq.conjugate() / d, n_max)
        probs = pref * _hermite_diagonal(b, row)
    if not np.isfinite(probs).all():
        # |G_{0,j}|^2 peaks near e^<n>: overflow from <n> ~ 700, whatever n_max
        raise DomainError(
            f"photon_number_distribution: non-finite probabilities at "
            f"n_max={n_max} ({int(np.count_nonzero(~np.isfinite(probs)))} "
            f"of {n_max + 1}); the Fock-basis sum overflowed"
        )
    # round-off can leave a p(n) a few ulps outside [0, 1]
    np.clip(probs, 0.0, 1.0, out=probs)
    tail = 1.0 - float(probs.sum())
    if tail < 0.0 and tail > -1e-9:
        tail = 0.0
    if tail > tol:
        raise TruncationError(
            f"tail mass {tail:.3g} beyond n_max={n_max} exceeds tol={tol:.3g}; "
            f"try n_max ~ {2 * max(n_max, 8)}",
            tail_mass=tail,
            suggested_n_max=2 * max(n_max, 8),
        )
    return PhotonNumberDistribution(probs, n_max, tail)


def g2_from_pn(dist: PhotonNumberDistribution) -> float:
    """g2(0) = <n(n-1)> / <n>^2 from a photon-number distribution; a mean
    photon number below moments.DEFAULT_EPSILON raises NearVacuumError,
    as g2_gaussian does."""
    mean = dist.mean()
    _guard_near_vacuum(mean, DEFAULT_EPSILON)
    n = np.arange(dist.n_max + 1, dtype=float)
    fac = float(np.dot(dist.probs, n * (n - 1.0)))
    return fac / mean ** 2
