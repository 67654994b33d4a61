"""Monte-Carlo Hanbury Brown-Twiss arm: beam splitter plus two threshold
(click/no-click) detectors.

Each detection window is independent, and a threshold detector pair only
registers which detectors fired (>= 1 photon detected or a dark event).
A window's click pattern therefore follows from three no-click
probabilities (q1, q2 and qb for detector 1, detector 2 and both), and
the four pattern counts of N windows are one multinomial.  `simulate_hbt`
is one path: the state gives (q1, q2, qb) in closed form, and one
`kernels.click_counts` draw (three binomials on the counter RNG, stream
index 0, each O(1) in expectation) gives the counts, at a cost that grows
neither with N nor with the photon number.

The closed form needs no photon-number sum.  Every photon reaches a
given detector and fires it on its own, with probability tau, so the
detector stays silent with probability E[(1 - tau)^n]: the vacuum
probability of the state after loss tau (the photon-count generating
function of a Gaussian state; Dodonov, Man'ko & Man'ko, PRA 49, 2993
(1994)).  With mean mu and K = V - I/2,

    q(tau) = exp(-(tau/2) mu^T (I + tau K)^-1 mu) / sqrt(det(I + tau K)),
    det(I + tau K) = 1 + tau tr K + tau^2 det K,

and, with eta the detector efficiency, s the split and d the dark-event
probability, q1 = (1-d) q(eta s), q2 = (1-d) q(eta (1-s)) and
qb = (1-d)^2 q(eta).  `expected_click_g2` averages the same
probabilities over a photon-number distribution with
`kernels.click_probs`, which the tests hold to the closed form at 1e-13.
One draw needs no sharding, so `CountingConfig.workers` has no effect,
and no p(n) is built, so neither has `CountingConfig.n_max`.

The click estimator g2 ~ nc * N / (n1 * n2) carries an O(<n>) bias at
larger photon numbers (threshold detectors saturate); it is the standard
coincidence-normalization estimator for the low-flux regime.  Its error
and the parametric bootstrap both treat the pattern counts as the
multinomial they are, not as independent singles and coincidences.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import kernels
from .errors import (DomainError, InsufficientStatisticsError, check_int,
                     check_seed)
# not called here: perfbench/selftest.py and the tests look up
# counting.photon_number_distribution
from .fock import PhotonNumberDistribution, photon_number_distribution
from .states import GaussianState, _check_physical, _gaussian_overlap


@dataclass(frozen=True)
class CountingConfig:
    """HBT run settings.  `n_max` and `workers` are checked but have no
    effect (the click probabilities are in closed form, and one draw needs
    no workers); both stay only because the benchmark harness passes
    them."""

    n_windows: int
    eta_det: float = 1.0
    dark_prob: float = 0.0
    split: float = 0.5
    seed: int = 0
    n_max: int = 64
    workers: int = 1

    def __post_init__(self):
        check_int(self.n_windows, "CountingConfig: n_windows", 1, 2**32)
        check_int(self.n_max, "CountingConfig: n_max", 0)
        check_int(self.workers, "CountingConfig: workers", 1)
        check_seed(self.seed, "CountingConfig")
        if not 0.0 <= self.eta_det <= 1.0:
            raise DomainError("CountingConfig: eta_det must be in [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise DomainError("CountingConfig: dark_prob must be in [0, 1)")
        if not 0.0 < self.split < 1.0:
            raise DomainError("CountingConfig: split must be in (0, 1)")


# CountingRecord's count fields, each with the name its refusal gives
_RECORD_COUNTS = tuple((name, f"CountingRecord: {name}")
                       for name in ("n1", "n2", "nc", "n_windows"))


@dataclass(frozen=True)
class CountingRecord:
    n1: int
    n2: int
    nc: int
    n_windows: int
    config: CountingConfig

    def __post_init__(self):
        for name, what in _RECORD_COUNTS:
            check_int(getattr(self, name), what, 0)
        # the counts of some four-pattern split of n_windows windows
        if not (0 <= self.nc <= min(self.n1, self.n2)
                and self.n1 + self.n2 - self.nc <= self.n_windows):
            raise DomainError(
                "CountingRecord: need 0 <= nc <= min(n1, n2) and "
                f"n1 + n2 - nc <= n_windows, got n1={self.n1}, n2={self.n2}, "
                f"nc={self.nc}, n_windows={self.n_windows}")


def _no_click(state: GaussianState, tau: float) -> float:
    """q(tau) = E[(1 - tau)^n] of the module docstring, for 0 <= tau <= 1:
    the Gaussian overlap of `states` with S = I + tau K and d = mu."""
    cov, mean = state.cov, state.mean
    kxx, kpp, kxp = tau * (cov.vxx - 0.5), tau * (cov.vpp - 0.5), tau * cov.vxp
    # det S >= 1 when det V >= 1/4; round-off may leave it below
    d = max(1.0 + kxx + kpp + (kxx * kpp - kxp * kxp), 1.0)
    return _gaussian_overlap(1.0 + kxx, kxp, d, mean.x, mean.p, tau)


def _click_probs(state: GaussianState, config: CountingConfig):
    """(q1, q2, qb) of the module docstring, as `kernels.click_probs`
    gives them from p(n).  A covariance below the uncertainty bound
    det V >= 1/4 raises DomainError."""
    _check_physical(state.cov, "simulate_hbt")
    eta, split, dark = config.eta_det, config.split, config.dark_prob
    q1 = _no_click(state, eta * split)
    q2 = _no_click(state, eta * (1.0 - split))
    # qb <= q1, q2 keeps every pattern count >= 0 should round-off put the
    # three out of order; the dark factors preserve it
    qb = min(_no_click(state, eta), q1, q2)
    return (1.0 - dark) * q1, (1.0 - dark) * q2, (1.0 - dark) ** 2 * qb


def simulate_hbt(state: GaussianState, config: CountingConfig) -> CountingRecord:
    """Simulate config.n_windows windows on `state` by the module
    docstring's path, fully determined by config.seed."""
    counts = kernels.click_counts(config.n_windows,
                                  *_click_probs(state, config), config.seed, 0)
    return CountingRecord(*counts, config.n_windows, config)


def expected_click_g2(dist: PhotonNumberDistribution, config: CountingConfig):
    """Exact expectation of the click estimator: pc / (p1 * p2) from the
    photon-number distribution and the detector model, by the Fock sum
    of `kernels.click_probs`.

    This quantifies the threshold-detector bias: the estimator converges
    to the true g2 only when eta * g2 * <n> << 1 (singles are suppressed
    by multi-photon windows), which for strongly bunched near-vacuum
    light requires small eta, not just small <n>.
    """
    q1, q2, qb = kernels.click_probs(dist.probs, config.eta_det,
                                     config.split, config.dark_prob)
    if max(q1, q2) == 1.0:
        raise DomainError("expected_click_g2: a detector never clicks")
    return (1.0 - q1 - q2 + qb) / ((1.0 - q1) * (1.0 - q2))


def _require_singles(rec: CountingRecord):
    if rec.n1 == 0 or rec.n2 == 0:
        raise InsufficientStatisticsError(
            f"no singles on at least one detector (n1={rec.n1}, n2={rec.n2})")


def g2_estimate_clicks(rec: CountingRecord):
    """(value, std_error) from a counting record: g2 ~ nc * N / (n1 * n2),
    error by the multinomial delta method on the pattern counts
    c1 = n1 - nc, c2 = n2 - nc and cb = nc:

        var(log g2) = cb (1/cb - 1/n1 - 1/n2)^2 + c1/n1^2 + c2/n2^2 - 1/N.

    With no coincidences the error is that of one count (cb = 1), so it
    stays positive."""
    _require_singles(rec)
    n1, n2, nc, N = rec.n1, rec.n2, rec.nc, rec.n_windows
    value = nc * N / (n1 * n2)
    cb = max(nc, 1)
    var = (cb * (1.0 / cb - 1.0 / n1 - 1.0 / n2) ** 2
           + (n1 - nc) / n1 ** 2 + (n2 - nc) / n2 ** 2 - 1.0 / N)
    # a variance up to round-off; 0 when every window clicks on both
    err = cb * N / (n1 * n2) * math.sqrt(max(var, 0.0))
    return value, err


def bootstrap_g2_clicks(rec: CountingRecord, n_boot: int = 200, seed: int = 0):
    """Parametric bootstrap of the click estimator: member b re-draws the
    four-pattern multinomial at the observed rates with
    `kernels.click_counts` at stream index b, from the draws
    `kernels.CLICK_MEMBER_DRAWS` on, which no simulate_hbt run uses, so
    a bootstrap under the data's own seed does not re-use its uniforms.
    Returns the g2 draws (members with zero singles on a detector are
    skipped); a record with none raises InsufficientStatisticsError, as
    g2_estimate_clicks does."""
    check_seed(seed, "bootstrap_g2_clicks")
    check_int(n_boot, "bootstrap_g2_clicks: n_boot", 1)
    _require_singles(rec)
    N = rec.n_windows
    none = N - rec.n1 - rec.n2 + rec.nc
    # no-click rates: neither detector, detector 2 silent, detector 1 silent
    qb, q2, q1 = none / N, (N - rec.n2) / N, (N - rec.n1) / N
    draws = []
    for b in range(n_boot):
        b1, b2, bc = kernels.click_counts(N, q1, q2, qb, seed, b,
                                          kernels.CLICK_MEMBER_DRAWS)
        if b1 and b2:
            draws.append(bc * N / (b1 * b2))
    if not draws:
        raise InsufficientStatisticsError("all bootstrap resamples degenerate")
    return np.array(draws)

