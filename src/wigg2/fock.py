"""Photon-number statistics of Gaussian states via phase-space overlap.

The number-basis Wigner functions are
    W_n(x, p) = ((-1)^n / pi) exp(-(x^2 + p^2)) L_n(2(x^2 + p^2)),
and traciality gives p(n) = 2 pi * int W_rho W_n dx dp.

The overlap integral is evaluated by tensor Gauss-Hermite quadrature in
the whitened coordinates of the *merged* Gaussian (state Gaussian times
the exp(-(x^2+p^2)) factor of W_n): there the remaining integrand is the
polynomial L_n, so the rule is exact once the node count exceeds the
polynomial degree.  This module is the independent Fock-basis oracle for
the Wigner-moment identities and the sampling distribution for the
counting simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError
from .states import GaussianState


def fock_wigner(n: int, x, p):
    """Wigner function of the n-photon Fock state, by stable Laguerre
    recurrence.  Accepts scalars or arrays for (x, p)."""
    if n < 0:
        raise DomainError(f"fock_wigner: n must be >= 0, got {n}")
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

    Tiny negative quadrature round-off is clamped to 0; no renormalization
    is applied, tail_mass keeps the accounting honest."""

    probs: np.ndarray
    n_max: int
    tail_mass: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def mean(self) -> float:
        n = np.arange(self.n_max + 1)
        return float(np.dot(self.probs, n))

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)


def photon_number_distribution(
    state: GaussianState, n_max: int, tol: float = 1e-9
) -> PhotonNumberDistribution:
    """Photon-number probabilities of a Gaussian state up to n_max.

    Raises TruncationError (with a suggested n_max) if the tail mass
    beyond n_max exceeds tol, and DomainError if the quadrature
    overflows to non-finite probabilities or tail mass.
    """
    if n_max < 0:
        raise DomainError(f"photon_number_distribution: n_max must be >= 0, got {n_max}")
    V = state.cov.matrix()
    mu = state.mean_vector()
    Vinv = np.linalg.inv(V)
    M = np.linalg.inv(Vinv + 2.0 * np.eye(2))
    m = M @ (Vinv @ mu)
    c = 0.5 * (mu @ Vinv @ mu - m @ np.linalg.inv(M) @ m)
    pref = 2.0 * math.sqrt(np.linalg.det(M) / np.linalg.det(V)) * math.exp(-c)

    # Gauss-Hermite nodes in the merged Gaussian's whitened coordinates;
    # L_n has per-axis degree 2n, so n_max + 1 nodes per axis are exact.
    K = max(n_max + 1, 8)
    t, w = np.polynomial.hermite.hermgauss(K)
    lam, U = np.linalg.eigh(M)
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    xi = (
        m[:, None, None]
        + U[:, 0, None, None] * math.sqrt(2.0 * lam[0]) * T1
        + U[:, 1, None, None] * math.sqrt(2.0 * lam[1]) * T2
    )
    wt = (w[:, None] * w[None, :]) / math.pi
    r2 = 2.0 * (xi[0] ** 2 + xi[1] ** 2)

    probs = np.empty(n_max + 1)
    lm1 = np.ones_like(r2)
    probs[0] = pref * float((wt * lm1).sum())
    # an overflow shows up as non-finite probabilities, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        if n_max >= 1:
            ln = 1.0 - r2
            probs[1] = -pref * float((wt * ln).sum())
            sign = 1.0
            for k in range(1, n_max):
                lm1, ln = ln, ((2.0 * k + 1.0 - r2) * ln - k * lm1) / (k + 1.0)
                probs[k + 1] = sign * pref * float((wt * ln).sum())
                sign = -sign

    probs[probs < 0.0] = 0.0
    tail = 1.0 - float(probs.sum())
    if not (np.isfinite(probs).all() and math.isfinite(tail)):
        # the quadrature overflows at large n_max or photon number; a
        # larger n_max (what TruncationError suggests) makes it worse
        raise DomainError(
            f"photon_number_distribution: non-finite probabilities at "
            f"n_max={n_max} ({int(np.count_nonzero(~np.isfinite(probs)))} "
            f"of {n_max + 1}); the Fock quadrature overflowed"
        )
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
    """g2(0) = <n(n-1)> / <n>^2 from a photon-number distribution."""
    n = np.arange(dist.n_max + 1, dtype=float)
    mean = float(np.dot(dist.probs, n))
    if mean <= 0.0:
        raise DomainError("g2_from_pn: zero mean photon number")
    fac = float(np.dot(dist.probs, n * (n - 1.0)))
    return fac / mean ** 2
