"""Photon-number statistics of Gaussian states via the Fock recursion.

rho_mn = T G_mn, with G the renormalised two-index Hermite polynomials
of the Husimi generating function (Quesada et al., PRA 100, 022341
(2019)).  With W = [[1, i], [1, -i]]/sqrt(2), X the swap, zeta = W mu and
sigma_Q = W V W^dagger + I/2: B = (I - sigma_Q^-1) X, gamma = sigma_Q^-1
zeta, T = exp(-zeta^dagger sigma_Q^-1 zeta / 2) / sqrt(det sigma_Q), and
    G_{m+1,n} = (gamma_0 G_{m,n} + B_00 sqrt(m) G_{m-1,n}
                 + B_01 sqrt(n) G_{m,n-1}) / sqrt(m+1),
row 0 likewise with gamma_1 and B_11.  p(n) = T Re G_nn then costs
O(n_max^2) time and O(n_max) memory.  This is the Fock-basis route for
the Wigner-moment identities (the midpoint quadrature in `moments` is
the independent one) and the counting simulator's sampling distribution.
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

    Round-off outside [0, 1] is clamped; no renormalization is
    applied, tail_mass keeps the accounting honest."""

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


_W = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / math.sqrt(2.0)


def _hermite_diagonal(b, gamma, n_max: int) -> np.ndarray:
    """Re G_nn for n = 0..n_max.  Row m + 1 of G is needed only from
    column m + 1 on; it overwrites that tail of the older kept row."""
    g0, g1, b00, b01, b11 = (complex(v) for v in (
        gamma[0], gamma[1], b[0, 0], b[0, 1], b[1, 1]))
    lower, g = 0.0j, 1.0 + 0.0j
    row = [g]
    for n in range(n_max):
        lower, g = g, (g1 * g + b11 * math.sqrt(n) * lower) / math.sqrt(n + 1)
        row.append(g)
    root = np.sqrt(np.arange(n_max + 1.0))
    b01_root = b01 * root
    cur, prev = np.array(row), np.zeros(n_max + 1, dtype=complex)
    diag = np.ones(n_max + 1)
    for m in range(n_max):
        k = m + 1
        tail = prev[k:]
        tail *= b00 * root[m]
        tail += g0 * cur[k:] + b01_root[k:] * cur[m:-1]
        tail /= root[k]
        prev, cur = cur, prev
        diag[k] = cur[k].real
    return diag


def photon_number_distribution(
    state: GaussianState, n_max: int, tol: float = 1e-9
) -> PhotonNumberDistribution:
    """Photon-number probabilities of a Gaussian state up to n_max.

    Raises TruncationError (with a suggested n_max) if the tail mass
    beyond n_max exceeds tol, and DomainError if the recursion
    overflows to non-finite probabilities or tail mass.
    """
    if n_max < 0:
        raise DomainError(f"photon_number_distribution: n_max must be >= 0, got {n_max}")
    zeta = _W @ state.mean_vector()
    sigma_q = _W @ state.cov.matrix() @ _W.conj().T + 0.5 * np.eye(2)
    inv = np.linalg.inv(sigma_q)
    pref = (math.exp(-0.5 * float((zeta.conj() @ inv @ zeta).real))
            / math.sqrt(float(np.linalg.det(sigma_q).real)))
    # an overflow shows up as non-finite probabilities, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        probs = pref * _hermite_diagonal((np.eye(2) - inv)[:, ::-1],
                                         inv @ zeta, n_max)
    if not np.isfinite(probs).all():
        # G_nn peaks near e^<n>: overflow from <n> ~ 700, whatever n_max
        raise DomainError(
            f"photon_number_distribution: non-finite probabilities at "
            f"n_max={n_max} ({int(np.count_nonzero(~np.isfinite(probs)))} "
            f"of {n_max + 1}); the Fock recursion overflowed"
        )
    # round-off: the vacuum's p(0) comes out as 1 + 2^-52
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
    """g2(0) = <n(n-1)> / <n>^2 from a photon-number distribution."""
    n = np.arange(dist.n_max + 1, dtype=float)
    mean = float(np.dot(dist.probs, n))
    if mean <= 0.0:
        raise DomainError("g2_from_pn: zero mean photon number")
    fac = float(np.dot(dist.probs, n * (n - 1.0)))
    return fac / mean ** 2
