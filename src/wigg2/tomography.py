"""Simulated homodyne arm: quadrature sampling, Gaussian covariance
reconstruction, and g2(0) inference with bootstrap intervals.

Reconstruction is covariance estimation in moment space: the per-angle
sample variances are fit by
    V(theta) = vxx cos^2(theta) + vpp sin^2(theta) + vxp sin(2 theta),
which is the rotated-Gaussian fit expressed on sufficient statistics,
and the means by m(theta) = mx cos(theta) + mp sin(theta).  Each fit is
one linear map, the pseudo-inverse of its design from one SVD, applied
to the point estimate and to every bootstrap member alike.  The HWP
sweep model is fit the same way.
Detector efficiency is modeled as pre-detection attenuation.

The bootstrap resamples in moment space too.  A reconstruction reads
only each angle's sample mean m and unbiased variance v, whose joint law
over n samples is normal to O(n^-1/2) with covariance
    Sigma = [[v, mu3], [mu3, mu4 - v^2 (n - 3)/(n - 1)]] / n
from the sample's central moments mu3, mu4 (Cramer, Mathematical Methods
of Statistics, 1946, ch. 27), the large-n limit of resampling the n
values.  A member draws each angle's (m, v) from that law: O(1) work.

Normals are polar-method pairs of `kernels.normal_pairs`.  Angle k of
`simulate_homodyne` takes the x's, then the y's, of the pairs at stream
indices k h .. k h + h - 1, h = ceil(per_angle/2), under `seed` and
kernels.SAMPLE_DRAWS; member b of angle k of `estimate_covariance` the
pair at stream index b K + k, K angles, under `boot_seed` and
kernels.MEMBER_DRAWS, so a member does not depend on n_boot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import kernels
from .counting import CountingConfig, g2_estimate_clicks, simulate_hbt
from .errors import (DomainError, IdentifiabilityError, NearVacuumError,
                     UnstableInferenceError, check_int, check_seed,
                     float_array)
from .moments import DEFAULT_EPSILON, g2_gaussian, g2_rows
from .states import (VACUUM_VARIANCE, CovarianceMatrix, GaussianState,
                     PhasePoint, _positive_definite, attenuate, hwp_mix,
                     marginal, reduce_mode, two_mode_squeezed_vacuum)

DEFAULT_ANGLES = tuple(np.linspace(0.0, math.pi, 12, endpoint=False))
BOOTSTRAP_SIZE = 200


def _angle_array(angles, caller):
    """A float copy of angles, which must be 1-D and finite with at least
    one angle, else a DomainError naming the caller."""
    angles = np.array(float_array(angles, f"{caller}: angles"))
    if angles.ndim != 1 or angles.size < 1:
        raise DomainError(f"{caller}: angles must be 1-D with at least one "
                          f"angle, got shape {angles.shape}")
    if not np.isfinite(angles).all():
        raise DomainError(f"{caller}: non-finite angle in {angles.tolist()}")
    return angles


def _require_lo_range(angles, caller):
    """A local-oscillator angle outside [0, pi) raises DomainError naming
    the caller."""
    if not ((angles >= 0.0) & (angles < math.pi)).all():
        raise DomainError(f"{caller}: angles must lie in [0, pi)")


@dataclass(frozen=True)
class HomodyneDataset:
    """Quadrature samples grouped by local-oscillator angle."""

    angles: np.ndarray          # radians, in [0, pi)
    samples: tuple              # tuple of float arrays, one per angle

    def __post_init__(self):
        angles = _angle_array(self.angles, "HomodyneDataset")
        _require_lo_range(angles, "HomodyneDataset")
        samples = tuple(float_array(s, f"HomodyneDataset: sample array {k}")
                        for k, s in enumerate(self.samples))
        if len(samples) != angles.size:
            raise DomainError(f"HomodyneDataset: {len(samples)} sample arrays "
                              f"for {angles.size} angles")
        for k, s in enumerate(samples):
            if s.ndim != 1 or s.size < 2 or not np.isfinite(s).all():
                raise DomainError(f"HomodyneDataset: sample array {k} must be "
                                  "1-D with >= 2 samples, all finite")
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class ReconstructionResult:
    state: GaussianState                 # physicality-projected estimate
    raw_cov: tuple                       # (vxx, vpp, vxp) before projection
    member_cov: np.ndarray               # (n_boot, 3) raw (vxx, vpp, vxp)
    member_mean: np.ndarray              # (n_boot, 2) raw (x, p)
    valid: np.ndarray                    # (n_boot,) True where a state

    @property
    def bootstrap_states(self) -> tuple:
        """A GaussianState per member, None where not valid."""
        rows = zip(self.member_cov.tolist(), self.member_mean.tolist())
        return tuple(GaussianState(PhasePoint(*m), CovarianceMatrix(*c))
                     if ok else None for (c, m), ok in zip(rows, self.valid))


@dataclass(frozen=True)
class G2Interval:
    value: float
    ci_low: float
    ci_high: float
    n_guarded: int = 0


@dataclass(frozen=True)
class SweepFit:
    a: float
    b: float
    c: float
    residual: float


def simulate_homodyne(
    state: GaussianState,
    angles: Sequence[float] = DEFAULT_ANGLES,
    per_angle: int = 10_000,
    eta_hd: float = 1.0,
    seed: int = 0,
) -> HomodyneDataset:
    """Draw per_angle quadrature samples at each angle from the marginals
    of the (attenuated) state.  Deterministic in seed."""
    check_int(per_angle, "simulate_homodyne: per_angle", 2)
    check_seed(seed, "simulate_homodyne")
    angles = _angle_array(angles, "simulate_homodyne")
    _require_lo_range(angles, "simulate_homodyne")
    lossy = attenuate(state, eta_hd)
    h = (per_angle + 1) // 2
    # a row of h pairs per angle, about kernels.CHUNK pairs a call: short
    # rows share their retries, and long ones keep no temporaries beyond it
    group = max(1, kernels.CHUNK // h)
    samples = []
    for k0 in range(0, len(angles), group):
        k1 = min(k0 + group, len(angles))
        z = kernels.normal_pairs(seed, np.arange(k0 * h, k1 * h).reshape(
            -1, h), kernels.SAMPLE_DRAWS)
        for theta, zk in zip(angles[k0:k1].tolist(), z):
            m, v = marginal(lossy, theta)
            x = zk.reshape(-1)[:per_angle]
            x *= math.sqrt(v)
            x += m
            samples.append(x)
    return HomodyneDataset(angles, tuple(samples))


def _pinv(A, rank, message):
    """The pseudo-inverse of the design A over its `rank` largest
    singular values, from one SVD; fewer than `rank` singular values
    above 1e-10 raise IdentifiabilityError(message).  An exact zero
    column of A gets an exact zero row."""
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if not s[rank - 1] > 1e-10:
        raise IdentifiabilityError(message)
    return vt[:rank].T @ (u[:, :rank] / s[:rank]).T


def _angle_maps(angles):
    """The maps, (3, K) and (2, K), from the K per-angle variances to
    (vxx, vpp, vxp) and from the means to (mx, mp): the least-squares
    solutions of the angle model.  An orthogonal pair of angles
    constrains vxp to 0; its design's vxp column is 0, and so is the
    vxp row of its map."""
    c, s = np.cos(angles), np.sin(angles)
    distinct = np.unique(np.round(angles, 12))
    if distinct.size >= 3:
        rank, s2 = 3, np.sin(2.0 * angles)
    elif (distinct.size == 2
            and abs(distinct[1] - distinct[0] - math.pi / 2) < 1e-9):
        rank, s2 = 2, np.zeros_like(angles)
    else:
        raise IdentifiabilityError(
            "need >= 3 distinct angles, or exactly 2 orthogonal ones")
    cov = _pinv(np.column_stack([c * c, s * s, s2]), rank,
                "angle set cannot determine (vxx, vpp, vxp); "
                "use >= 3 distinct angles in general position")
    mean = _pinv(np.column_stack([c, s]), 2,
                 "angle set cannot determine the mean vector")
    return cov, mean


# eigh's eigenvalues are exact to a few ulps of the largest one: a
# principal variance within this relative distance of 0 counts as <= 0,
# and two within it of each other as equal
_EIG_TOL = 8 * np.finfo(float).eps


def project_physical(vxx: float, vpp: float, vxp: float) -> CovarianceMatrix:
    """Project an estimated covariance onto the physical set det V >= 1/4.

    The larger principal variance w1 stays and the smaller becomes
    max(w0, 1/(4 w1)), so a physical estimate is returned unchanged and
    the result is continuous in the estimate, across w0 = 0 too: an
    indefinite estimate and a positive-definite one with det < 1/4 are
    treated alike.  With no positive principal variance the result is
    the vacuum covariance; with w0 = w1 up to round-off any basis is an
    eigenbasis, and the axes hold det V exactly.  det V of three doubles
    is known to about eps (vxx vpp + vxp^2), so a rotated result where
    that exceeds 1e-9 of det V = 1/4 raises DomainError."""
    if not all(map(math.isfinite, (vxx, vpp, vxp))):
        raise DomainError("project_physical: vxx, vpp and vxp must be "
                          f"finite, got ({vxx}, {vpp}, {vxp})")
    w, v = np.linalg.eigh([[vxx, vxp], [vxp, vpp]])
    w0, w1 = w.tolist()
    if w1 <= _EIG_TOL * max(abs(w0), w1):
        return CovarianceMatrix(VACUUM_VARIANCE, VACUUM_VARIANCE, 0.0)
    if w0 >= 0.25 / w1:
        return CovarianceMatrix(float(vxx), float(vpp), float(vxp))
    if w1 - w0 <= _EIG_TOL * w1:
        return (CovarianceMatrix(0.25 / w1, w1, 0.0) if vxx <= vpp
                else CovarianceMatrix(w1, 0.25 / w1, 0.0))
    w[0] = 0.25 / w1
    (vxx, vxp), (_, vpp) = (v @ np.diag(w) @ v.T).tolist()
    if not np.finfo(float).eps * (abs(vxx * vpp) + vxp * vxp) <= 0.25e-9:
        raise DomainError(
            "project_physical: det V = 1/4 is lost to round-off with the "
            f"raised principal variance {0.25 / w1:.3g} off the axes")
    return CovarianceMatrix(vxx, vpp, vxp)


def _moment_law(x):
    """(m, v, l11, l21, l22): the mean m and unbiased variance v of the
    sample x, and the lower Cholesky factor of their covariance Sigma in
    the module docstring, from the standardised moments g3 = mu3/v^1.5
    and k4 = mu4/v^2 (no power of x is formed, so none overflows).
    Sigma is positive semidefinite in exact arithmetic
    (v Sigma22 >= m2 (m4 - m2^2) >= mu3^2, m2 and m4 the plug-in
    moments), so only the remainder Sigma22 - Sigma12^2/Sigma11 is
    clamped at 0.  The sums run over chunks of kernels.CHUNK values in a
    scratch buffer that stays in cache, and are einsum, not BLAS, so
    BLAS threads change nothing."""
    n, c = len(x), kernels.CHUNK
    m = x.mean()
    e, e2 = np.empty((2, min(n, c)))

    def centred():
        for a in range(0, n, c):
            yield np.subtract(x[a:a + c], m, out=e[:min(c, n - a)])

    v = math.fsum(np.einsum("i,i->", d, d) for d in centred()) / (n - 1)
    s3 = s4 = 0.0
    if v > 0.0:
        sd = math.sqrt(v)
        for d in centred():
            d /= sd
            d2 = np.multiply(d, d, out=e2[:len(d)])
            s3 += np.einsum("i,i->", d2, d)
            s4 += np.einsum("i,i->", d2, d2)
    g3, k4 = s3 / n, s4 / n
    rem = max(k4 - (n - 3) / (n - 1) - g3 * g3, 0.0)
    return m, v, math.sqrt(v / n), v * g3 / math.sqrt(n), v * math.sqrt(rem / n)


def estimate_covariance(
    data: HomodyneDataset,
    n_boot: int = BOOTSTRAP_SIZE,
    boot_seed: int = 0,
) -> ReconstructionResult:
    """Estimate mean and covariance from a homodyne dataset, with n_boot
    members of the moment-space bootstrap of the module docstring for
    interval inference: with (z1, z2) its normal pair at an angle, a
    member's mean there is m + l11 z1 and its variance v + l21 z1 + l22 z2.
    The members' fits are read-only arrays; one whose covariance is not
    positive definite is not valid."""
    check_int(n_boot, "estimate_covariance: n_boot", 2)
    check_seed(boot_seed, "estimate_covariance")
    cov_map, mean_map = _angle_maps(data.angles)
    m, v, l11, l21, l22 = np.array([_moment_law(s) for s in data.samples]).T
    K = len(m)
    z1, z2 = kernels.normal_pairs(boot_seed, np.arange(n_boot * K),
                                  kernels.MEMBER_DRAWS).reshape(2, n_boot, K)

    def fit(pinv, rows):
        # row 0 the point estimate's moments, row 1 + b member b's: as
        # columns of a C-ordered block each is summed over the angles in
        # order, so a member depends on its own normals alone, bit for bit
        return np.einsum("ik,kb->ib", pinv, np.ascontiguousarray(rows.T)).T

    cov = fit(cov_map, np.vstack((v, v + l21 * z1 + l22 * z2)))
    mean = fit(mean_map, np.vstack((m, m + l11 * z1)))
    raw, (mx, mp) = cov[0].tolist(), mean[0].tolist()
    state = GaussianState(PhasePoint(mx, mp), project_physical(*raw))
    cov, mean = np.ascontiguousarray(cov[1:]), np.ascontiguousarray(mean[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        valid = _positive_definite(*cov.T) & np.isfinite(mean).all(1)
    for a in (cov, mean, valid):
        a.setflags(write=False)
    return ReconstructionResult(state, tuple(raw), cov, mean, valid)


def estimate_covariance_from_moments(angles, means, variances) -> GaussianState:
    """Noiseless-moment entry point (exact roundtrip check): no bootstrap.
    means and variances hold one value per angle."""
    caller = "estimate_covariance_from_moments"
    angles = _angle_array(angles, caller)
    means = float_array(means, f"{caller}: means")
    variances = float_array(variances, f"{caller}: variances")
    for name, y in (("means", means), ("variances", variances)):
        if y.shape != angles.shape or not np.isfinite(y).all():
            raise DomainError(f"{caller}: {name} must hold one finite entry "
                              f"per angle, shape {angles.shape}, got {y}")
    cov_map, mean_map = _angle_maps(angles)
    vxx, vpp, vxp = np.einsum("ik,k->i", cov_map, variances).tolist()
    mx, mp = np.einsum("ik,k->i", mean_map, means).tolist()
    return GaussianState(PhasePoint(mx, mp), project_physical(vxx, vpp, vxp))


def g2_from_reconstruction(
    rec: ReconstructionResult, epsilon: float = DEFAULT_EPSILON
) -> G2Interval:
    """Point estimate and percentile bootstrap CI (2.5/97.5) of g2(0).

    Both the point estimate and the bootstrap members are evaluated on
    the raw fitted moments (not the physicality-projected state): the
    det >= 1/4 projection only ever inflates the estimated mean photon
    number and would bias g2 low, so it stands in only for a raw point
    estimate that is no state.  The valid members go through one g2_rows
    call; those it guards, and those not valid, are counted, not dropped
    silently, and a guarded majority raises UnstableInferenceError.
    """
    g2, _, near = g2_rows(*rec.member_mean[rec.valid].T,
                          *rec.member_cov[rec.valid].T, epsilon)
    n_members = len(rec.valid)
    guarded = n_members - int((~near).sum())
    if guarded > n_members // 2:
        raise UnstableInferenceError(
            f"{guarded}/{n_members} bootstrap members hit the near-vacuum "
            "guard; the reconstruction is too close to vacuum for g2 inference"
        )
    raw = (CovarianceMatrix(*rec.raw_cov)
           if _positive_definite(*rec.raw_cov) else rec.state.cov)
    point = g2_gaussian(GaussianState(rec.state.mean, raw), epsilon).value
    lo, hi = np.percentile(g2[~near], [2.5, 97.5])
    return G2Interval(point, float(lo), float(hi), guarded)


# ---------------------------------------------------------------------------
# HWP sweep


@dataclass(frozen=True)
class SweepRow:
    theta_deg: float
    g2_analytic: float
    g2_direct: float
    g2_direct_err: float
    g2_homodyne: float
    g2_ci_low: float
    g2_ci_high: float
    vx: float
    vp: float


def _row_seed(seed: int, stride: int, i: int) -> int:
    """Seed of sweep row i derived from a base seed, reduced into the
    valid range [0, 2^63) so that large base seeds do not overflow."""
    return (int(seed) + stride * i) % 2**63


def hwp_sweep(
    r: float,
    thetas_deg: Sequence[float],
    counting: CountingConfig,
    angles: Sequence[float] = DEFAULT_ANGLES,
    per_angle: int = 10_000,
    eta_hd: float = 1.0,
    seed: int = 0,
    epsilon: float = DEFAULT_EPSILON,
) -> list[SweepRow]:
    """Run the analytic / direct-counting / homodyne comparison across
    half-wave-plate angles for a twin beam of squeezing r.

    Homodyne rows where inference is unstable (a near-vacuum bootstrap
    majority or point estimate) report NaN for the homodyne columns.
    """
    check_seed(seed, "hwp_sweep")
    tb = two_mode_squeezed_vacuum(r)
    rows = []
    for i, th in enumerate(thetas_deg):
        state = reduce_mode(hwp_mix(tb, th), 1)
        analytic = g2_gaussian(state, epsilon).value
        rec = simulate_hbt(state, replace(
            counting, seed=_row_seed(counting.seed, 1_000_003, i)))
        g2d, g2d_err = g2_estimate_clicks(rec)
        data = simulate_homodyne(state, angles, per_angle, eta_hd,
                                 seed=_row_seed(seed, 2_000_029, i))
        recon = estimate_covariance(data, boot_seed=_row_seed(seed, 3_000_073, i))
        try:
            hom = g2_from_reconstruction(recon, epsilon)
            g2h, lo, hi = hom.value, hom.ci_low, hom.ci_high
        except (UnstableInferenceError, NearVacuumError):
            g2h = lo = hi = float("nan")
        rows.append(SweepRow(
            float(th), analytic, g2d, g2d_err, g2h, lo, hi,
            recon.state.cov.vxx, recon.state.cov.vpp,
        ))
    return rows


# ---------------------------------------------------------------------------
# angle-model fit f(theta) = a sin^2((b + theta) pi / 45) + c
#
# With w = 2 pi / 45, f(theta) = (a/2 + c) - (a/2) cos(w (b + theta)), which
# is linear in (C, P, Q) = (a/2 + c, -(a/2) cos(w b), (a/2) sin(w b)) on the
# design [1, cos(w theta), sin(w theta)]: one least-squares solve gives the
# global optimum, and (a, b, c) follow from (C, P, Q) in closed form.


def fit_sweep_model(points: Sequence[tuple]) -> SweepFit:
    """Least-squares fit of the HWP-angle model to (theta_deg, g2) points,
    by the linear reparametrisation above: a >= 0, b in [-22.5, 22.5)
    (b = 0 when a = 0).  Fewer than 3 distinct angles mod 45 degrees
    raise IdentifiabilityError."""
    pts = float_array(points, "fit_sweep_model: points")
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise DomainError("fit_sweep_model: need >= 3 (theta_deg, g2) points")
    if not np.isfinite(pts).all():
        raise DomainError("fit_sweep_model: points must be finite")
    w = 2.0 * math.pi / 45.0
    wt = w * pts[:, 0]
    A = np.column_stack([np.ones_like(wt), np.cos(wt), np.sin(wt)])
    pinv = _pinv(A, 3, "fit_sweep_model: need >= 3 distinct angles mod 45 "
                 "degrees")
    # centred data: a constant sweep gives P = Q = 0 exactly
    y_mean = float(pts[:, 1].mean())
    yc = pts[:, 1] - y_mean
    sol = np.einsum("ik,k->i", pinv, yc)
    C, P, Q = sol.tolist()
    half_a = math.hypot(P, Q)
    b = (math.atan2(Q, -P) / w + 22.5) % 45.0 - 22.5 if half_a else 0.0
    residual = float(np.linalg.norm(A @ sol - yc))
    return SweepFit(2.0 * half_a, b, y_mean + C - half_a, residual)
