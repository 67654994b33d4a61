"""Monte-Carlo Hanbury Brown-Twiss arm: beam splitter plus two threshold
(click/no-click) detectors.

Each detection window is independent, and a threshold detector pair only
registers which detectors fired (>= 1 photon detected or a dark event).
A window's click pattern therefore follows from three no-click
probabilities averaged over the state's photon-number distribution
(`kernels.click_probs`): q1 for detector 1, q2 for detector 2 and qb for
both, and the four pattern counts of N windows are one multinomial.
The simulator draws that multinomial once per run with the counter RNG
(`kernels.click_counts`: three inverse-CDF binomials), so its cost does
not grow with N, and `expected_click_g2` forms its expectation from the
same `click_probs` call, so both use one model.  `CountingConfig.workers`
is accepted and validated but has no effect: one draw needs no sharding,
and the counts are the same for any value.

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
from .errors import DomainError, InsufficientStatisticsError
from .fock import PhotonNumberDistribution, photon_number_distribution
from .states import GaussianState


@dataclass(frozen=True)
class CountingConfig:
    n_windows: int
    eta_det: float = 1.0
    dark_prob: float = 0.0
    split: float = 0.5
    seed: int = 0
    n_max: int = 64
    workers: int = 1

    def __post_init__(self):
        ints = (self.n_windows, self.n_max, self.workers)
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
               for v in ints):
            raise DomainError("CountingConfig: n_windows, n_max and workers "
                              f"must be integers, got {ints!r}")
        if not 1 <= self.n_windows <= 2**32:
            raise DomainError("CountingConfig: n_windows must be in "
                              f"[1, 2**32], got {self.n_windows}")
        if self.n_max < 0:
            raise DomainError(f"CountingConfig: n_max must be >= 0, got {self.n_max}")
        if not 0.0 <= self.eta_det <= 1.0:
            raise DomainError("CountingConfig: eta_det must be in [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise DomainError("CountingConfig: dark_prob must be in [0, 1)")
        if not 0.0 < self.split < 1.0:
            raise DomainError("CountingConfig: split must be in (0, 1)")
        if self.workers < 1:
            raise DomainError("CountingConfig: workers must be >= 1")
        kernels.check_seed(self.seed, "CountingConfig")


@dataclass(frozen=True)
class CountingRecord:
    n1: int
    n2: int
    nc: int
    n_windows: int
    config: CountingConfig

    def __post_init__(self):
        # the counts of some four-pattern split of n_windows windows
        if not (0 <= self.nc <= min(self.n1, self.n2)
                and self.n1 + self.n2 - self.nc <= self.n_windows):
            raise DomainError(
                "CountingRecord: need 0 <= nc <= min(n1, n2) and "
                f"n1 + n2 - nc <= n_windows, got n1={self.n1}, n2={self.n2}, "
                f"nc={self.nc}, n_windows={self.n_windows}")


def simulate_hbt(state: GaussianState, config: CountingConfig) -> CountingRecord:
    """Simulate config.n_windows detection windows on `state`; fully
    determined by config.seed (config.workers has no effect)."""
    dist = photon_number_distribution(state, config.n_max, tol=1e-9)
    return simulate_hbt_from_distribution(dist, config)


def simulate_hbt_from_distribution(
    dist: PhotonNumberDistribution, config: CountingConfig
) -> CountingRecord:
    n1, n2, nc = kernels.hbt_counts(dist.cdf(), config.eta_det, config.split,
                                    config.dark_prob, config.seed, 0,
                                    config.n_windows)
    return CountingRecord(n1, n2, nc, config.n_windows, config)


def expected_click_g2(dist: PhotonNumberDistribution, config: CountingConfig):
    """Exact expectation of the click estimator: pc / (p1 * p2) from the
    photon-number distribution and the detector model.

    This quantifies the threshold-detector bias: the estimator converges
    to the true g2 only when eta * g2 * <n> << 1 (singles are suppressed
    by multi-photon windows), which for strongly bunched near-vacuum
    light requires small eta, not just small <n>.
    """
    q1, q2, qb = kernels.click_probs(dist.cdf(), config.eta_det,
                                     config.split, config.dark_prob)
    if max(q1, q2) == 1.0:
        raise DomainError("expected_click_g2: a detector never clicks")
    return (1.0 - q1 - q2 + qb) / ((1.0 - q1) * (1.0 - q2))


def g2_estimate_clicks(rec: CountingRecord):
    """(value, std_error) from a counting record: g2 ~ nc * N / (n1 * n2),
    error by the multinomial delta method on the pattern counts
    c1 = n1 - nc, c2 = n2 - nc and cb = nc:

        var(log g2) = cb (1/cb - 1/n1 - 1/n2)^2 + c1/n1^2 + c2/n2^2 - 1/N.

    With no coincidences the error is that of one count (cb = 1), so it
    stays positive."""
    n1, n2, nc, N = rec.n1, rec.n2, rec.nc, rec.n_windows
    if n1 == 0 or n2 == 0:
        raise InsufficientStatisticsError(
            f"no singles on at least one detector (n1={n1}, n2={n2})"
        )
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
    `kernels.click_counts` at stream index b.  Returns the g2 draws
    (members with zero singles on a detector are skipped)."""
    kernels.check_seed(seed, "bootstrap_g2_clicks")
    if not isinstance(n_boot, (int, np.integer)) or n_boot < 1:
        raise DomainError(f"bootstrap_g2_clicks: n_boot must be an integer "
                          f">= 1, got {n_boot!r}")
    N = rec.n_windows
    none = N - rec.n1 - rec.n2 + rec.nc
    # no-click rates: neither detector, detector 2 silent, detector 1 silent
    qb, q2, q1 = none / N, (N - rec.n2) / N, (N - rec.n1) / N
    draws = []
    for b in range(n_boot):
        b1, b2, bc = kernels.click_counts(N, q1, q2, qb, seed, b)
        if b1 and b2:
            draws.append(bc * N / (b1 * b2))
    if not draws:
        raise InsufficientStatisticsError("all bootstrap resamples degenerate")
    return np.array(draws)


def sample_photon_numbers(
    state: GaussianState, n_samples: int, seed: int = 0, n_max: int = 64
) -> np.ndarray:
    """Draw photon numbers from the state's distribution (no detector
    model).  Sample j inverts the CDF at the counter RNG's draw 0 at
    stream index j, u(seed, j, 0)."""
    kernels.check_seed(seed, "sample_photon_numbers")
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 0:
        raise DomainError(f"sample_photon_numbers: n_samples must be an "
                          f"integer >= 0, got {n_samples!r}")
    dist = photon_number_distribution(state, n_max, tol=1e-9)
    cdf = dist.cdf()
    u = kernels.uniforms_np(seed, np.arange(n_samples), 0)
    return np.minimum(np.searchsorted(cdf, u, side="right"), n_max).astype(np.int64)


def g2_estimate_numbers(samples, n_boot: int = 200, seed: int = 0):
    """(value, std_error) of g2 = <n(n-1)>/<n>^2 from photon-number
    samples; std_error via seeded nonparametric bootstrap (multinomial
    resampling of the empirical distribution)."""
    kernels.check_seed(seed, "g2_estimate_numbers")
    if not isinstance(n_boot, (int, np.integer)) or n_boot < 2:
        raise DomainError(f"g2_estimate_numbers: n_boot must be an integer "
                          f">= 2, got {n_boot!r}")
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size == 0 or samples.sum() <= 0:
        raise DomainError("g2_estimate_numbers: no photons in the sample")
    counts = np.bincount(samples)
    rng = np.random.default_rng(seed)
    boot = rng.multinomial(samples.size, counts / samples.size, size=n_boot)
    # row 0 is the sample, the others the members; the integer moments
    # are below 2^53, so exact in any summation order
    n = np.arange(len(counts), dtype=np.float64)
    powers = np.stack([np.ones_like(n), n, n * (n - 1.0)], axis=1)
    tot, s1, s2 = (np.vstack([counts, boot]) @ powers).T
    mean, fac = s1 / tot, s2 / tot
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = fac / mean ** 2  # nan for a member without photons
    value, vals = float(ratios[0]), ratios[1:]
    vals = vals[np.isfinite(vals)]
    if vals.size < 2:
        raise InsufficientStatisticsError("bootstrap degenerate (all-zero resamples)")
    return value, float(vals.std(ddof=1))
