"""Monte-Carlo Hanbury Brown-Twiss arm: beam splitter plus two threshold
(click/no-click) detectors.

Each detection window is independent: a photon number n is drawn from
the state's distribution, and each detector clicks if it detects >= 1
photon or fires a dark event.  Given n, a threshold detector pair only
needs three no-click probabilities (`kernels.no_click_probs`):
(1-eta)^n for neither detector, (1-eta split)^n for detector 1 and
(1-eta(1-split))^n for detector 2.  The simulator draws each window's
click pattern from them, and `expected_click_g2` averages them over the
distribution, so both use one model.  Randomness is counter-based per
window, so aggregate counts are bit-identical for any worker count.

The click estimator g2 ~ nc * N / (n1 * n2) carries an O(<n>) bias at
larger photon numbers (threshold detectors saturate); it is the standard
coincidence-normalization estimator for the low-flux regime.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
        if self.n_windows < 1:
            raise DomainError("CountingConfig: n_windows must be >= 1")
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


def simulate_hbt(state: GaussianState, config: CountingConfig) -> CountingRecord:
    """Simulate config.n_windows detection windows on `state`.

    Fully determined by config.seed; the worker count only shards the
    window range.
    """
    dist = photon_number_distribution(state, config.n_max, tol=1e-9)
    return simulate_hbt_from_distribution(dist, config)


def simulate_hbt_from_distribution(
    dist: PhotonNumberDistribution, config: CountingConfig
) -> CountingRecord:
    cdf = dist.cdf()
    n = config.n_windows
    w = min(config.workers, n)
    bounds = [(n * i) // w for i in range(w + 1)]
    args = [
        (cdf, config.eta_det, config.split, config.dark_prob, config.seed,
         bounds[i], bounds[i + 1])
        for i in range(w)
    ]
    if w == 1:
        parts = [kernels.hbt_counts(*args[0])]
    else:
        with ThreadPoolExecutor(max_workers=w) as pool:
            parts = list(pool.map(lambda a: kernels.hbt_counts(*a), args))
    n1 = sum(p[0] for p in parts)
    n2 = sum(p[1] for p in parts)
    nc = sum(p[2] for p in parts)
    return CountingRecord(n1, n2, nc, n, config)


def expected_click_g2(dist: PhotonNumberDistribution, config: CountingConfig):
    """Exact expectation of the click estimator: pc / (p1 * p2) from the
    photon-number distribution and the detector model.

    This quantifies the threshold-detector bias: the estimator converges
    to the true g2 only when eta * g2 * <n> << 1 (singles are suppressed
    by multi-photon windows), which for strongly bunched near-vacuum
    light requires small eta, not just small <n>.
    """
    qb_n, q1_n, q2_n = kernels.no_click_probs(dist.n_max, config.eta_det,
                                              config.split)
    d = config.dark_prob
    q1 = (1.0 - d) * float(np.dot(dist.probs, q1_n))
    q2 = (1.0 - d) * float(np.dot(dist.probs, q2_n))
    qb = (1.0 - d) ** 2 * float(np.dot(dist.probs, qb_n))
    p1, p2 = 1.0 - q1, 1.0 - q2
    pc = 1.0 - q1 - q2 + qb
    return pc / (p1 * p2)


def g2_estimate_clicks(rec: CountingRecord):
    """(value, std_error) from a counting record:
    g2 ~ nc * N / (n1 * n2), error by binomial count propagation."""
    if rec.n1 == 0 or rec.n2 == 0:
        raise InsufficientStatisticsError(
            f"no singles on at least one detector (n1={rec.n1}, n2={rec.n2})"
        )
    N = rec.n_windows
    value = rec.nc * N / (rec.n1 * rec.n2)
    # Poisson on nc plus singles contributions; one-count floor when nc = 0
    err = (N / (rec.n1 * rec.n2)) * math.sqrt(
        max(rec.nc, 1.0) + rec.nc ** 2 / rec.n1 + rec.nc ** 2 / rec.n2
    )
    return value, err


def bootstrap_g2_clicks(rec: CountingRecord, n_boot: int = 200, seed: int = 0):
    """Parametric bootstrap of the click estimator: re-draw (n1, n2, nc)
    binomially at the observed rates.  Returns the g2 draws (invalid
    resamples with zero singles are skipped)."""
    kernels.check_seed(seed, "bootstrap_g2_clicks")
    rng = np.random.default_rng(seed)
    N = rec.n_windows
    draws = []
    for _ in range(n_boot):
        b1 = rng.binomial(N, rec.n1 / N)
        b2 = rng.binomial(N, rec.n2 / N)
        bc = rng.binomial(N, rec.nc / N)
        if b1 > 0 and b2 > 0:
            draws.append(bc * N / (b1 * b2))
    if not draws:
        raise InsufficientStatisticsError("all bootstrap resamples degenerate")
    return np.asarray(draws)


def sample_photon_numbers(
    state: GaussianState, n_samples: int, seed: int = 0, n_max: int = 64
) -> np.ndarray:
    """Draw photon numbers from the state's distribution (no detector model)."""
    kernels.check_seed(seed, "sample_photon_numbers")
    dist = photon_number_distribution(state, n_max, tol=1e-9)
    cdf = dist.cdf()
    u = np.random.default_rng(seed).random(n_samples)
    return np.minimum(np.searchsorted(cdf, u, side="right"), n_max).astype(np.int64)


def g2_estimate_numbers(samples, n_boot: int = 200, seed: int = 0):
    """(value, std_error) of g2 = <n(n-1)>/<n>^2 from photon-number
    samples; std_error via seeded nonparametric bootstrap (multinomial
    resampling of the empirical distribution)."""
    kernels.check_seed(seed, "g2_estimate_numbers")
    samples = np.asarray(samples, dtype=np.int64)
    if samples.size == 0 or samples.sum() <= 0:
        raise DomainError("g2_estimate_numbers: no photons in the sample")

    def ratio(counts):
        n = np.arange(len(counts), dtype=float)
        tot = counts.sum()
        mean = np.dot(counts, n) / tot
        fac = np.dot(counts, n * (n - 1.0)) / tot
        return fac / mean ** 2 if mean > 0 else np.nan

    counts = np.bincount(samples)
    value = float(ratio(counts))
    rng = np.random.default_rng(seed)
    boot = rng.multinomial(samples.size, counts / samples.size, size=n_boot)
    vals = np.array([ratio(b) for b in boot])
    vals = vals[np.isfinite(vals)]
    if vals.size < 2:
        raise InsufficientStatisticsError("bootstrap degenerate (all-zero resamples)")
    return value, float(vals.std(ddof=1))
