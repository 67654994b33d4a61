"""Simulated homodyne arm: quadrature sampling, Gaussian covariance
reconstruction, and g2(0) inference with bootstrap intervals.

Reconstruction is covariance estimation in moment space: the per-angle
sample variances are fit by
    V(theta) = vxx cos^2(theta) + vpp sin^2(theta) + vxp sin(2 theta),
which is the rotated-Gaussian fit expressed on sufficient statistics.
The HWP sweep model is likewise fit by one linear least-squares solve.
Detector efficiency is modeled as pre-detection attenuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .counting import CountingConfig, g2_estimate_clicks, simulate_hbt
from .errors import (DomainError, IdentifiabilityError, NearVacuumError,
                     UnstableInferenceError, check_int, check_seed)
from .moments import DEFAULT_EPSILON, g2_gaussian
from .states import (VACUUM_VARIANCE, CovarianceMatrix, GaussianState,
                     PhasePoint, attenuate, hwp_mix, marginal, reduce_mode,
                     two_mode_squeezed_vacuum)

DEFAULT_ANGLES = tuple(np.linspace(0.0, math.pi, 12, endpoint=False))
BOOTSTRAP_SIZE = 200


@dataclass(frozen=True)
class HomodyneDataset:
    """Quadrature samples grouped by local-oscillator angle."""

    angles: np.ndarray          # radians, in [0, pi)
    samples: tuple              # tuple of float arrays, one per angle
    seed: int
    eta_hd: float

    def __post_init__(self):
        angles = np.asarray(self.angles, dtype=float)
        if angles.size < 1:
            raise DomainError("HomodyneDataset: need at least one angle")
        if not ((angles >= 0.0) & (angles < math.pi)).all():
            raise DomainError("HomodyneDataset: angles must lie in [0, pi)")
        samples = tuple(np.asarray(s, dtype=float) for s in self.samples)
        if len(samples) != angles.size:
            raise DomainError(f"HomodyneDataset: {len(samples)} sample arrays "
                              f"for {angles.size} angles")
        for k, s in enumerate(samples):
            if s.ndim != 1 or s.size < 2 or not np.isfinite(s).all():
                raise DomainError(f"HomodyneDataset: sample array {k} must be "
                                  "1-D with >= 2 samples, all finite")
        check_seed(self.seed, "HomodyneDataset")
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class ReconstructionResult:
    state: GaussianState                 # physicality-projected estimate
    raw_cov: tuple                       # (vxx, vpp, vxp) before projection
    angle_variances: np.ndarray
    residual: float
    bootstrap_states: tuple              # GaussianState or None per member


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
    lossy = attenuate(state, eta_hd)
    rng = np.random.default_rng(seed)
    samples = []
    for theta in angles:
        m, v = marginal(lossy, theta)
        samples.append(rng.normal(m, math.sqrt(v), per_angle))
    return HomodyneDataset(np.asarray(angles, dtype=float), tuple(samples),
                           seed, eta_hd)


def _covariance_design(angles):
    """Design matrix of the angle model for (vxx, vpp, vxp), after the
    identifiability checks.  An orthogonal pair of angles constrains vxp
    to 0 and gets only the (vxx, vpp) columns."""
    c = np.cos(angles)
    s = np.sin(angles)
    distinct = np.unique(np.round(angles, 12))
    if distinct.size >= 3:
        A = np.column_stack([c * c, s * s, np.sin(2.0 * angles)])
        if np.linalg.matrix_rank(A, tol=1e-10) < 3:
            raise IdentifiabilityError(
                "angle set cannot determine (vxx, vpp, vxp); "
                "use >= 3 distinct angles in general position"
            )
        return A
    if (distinct.size == 2
            and abs(distinct[1] - distinct[0] - math.pi / 2) < 1e-9):
        return np.column_stack([c * c, s * s])
    raise IdentifiabilityError(
        "need >= 3 distinct angles, or exactly 2 orthogonal ones"
    )


def _solve_covariance(angles, variances):
    """Least-squares solve of the angle model: (vxx, vpp, vxp, residual
    norm).  `variances` holds one value per angle, or one column per
    right-hand side, all solved at once; each result is then an array."""
    A = _covariance_design(angles)
    sol, *_ = np.linalg.lstsq(A, variances, rcond=None)
    resid = np.linalg.norm(A @ sol - variances, axis=0)
    vxp = sol[2] if len(sol) == 3 else np.zeros_like(sol[0])
    return sol[0], sol[1], vxp, resid


def _solve_mean(angles, means):
    """Least-squares (mx, mp), for one or several columns of means."""
    A = np.column_stack([np.cos(angles), np.sin(angles)])
    if np.linalg.matrix_rank(A, tol=1e-10) < 2:
        raise IdentifiabilityError("angle set cannot determine the mean vector")
    sol, *_ = np.linalg.lstsq(A, means, rcond=None)
    return sol[0], sol[1]


# eigh's eigenvalues are exact to a few ulps of the largest one; a
# principal variance within this relative distance of 0 counts as <= 0
_EIG_TOL = 8 * np.finfo(float).eps


def project_physical(vxx: float, vpp: float, vxp: float) -> CovarianceMatrix:
    """Project an estimated covariance onto the physical set det V >= 1/4.

    The larger principal variance w1 stays and the smaller becomes
    max(w0, 1/(4 w1)), so a physical estimate is returned unchanged and
    the result is continuous in the estimate, across w0 = 0 too: an
    indefinite estimate and a positive-definite one with det < 1/4 are
    treated alike.  With no positive principal variance the result is
    the vacuum covariance."""
    M = np.array([[vxx, vxp], [vxp, vpp]])
    w, v = np.linalg.eigh(M)
    if w[1] <= _EIG_TOL * float(np.max(np.abs(w))):
        return CovarianceMatrix(VACUUM_VARIANCE, VACUUM_VARIANCE, 0.0)
    if w[0] >= 0.25 / w[1]:
        return CovarianceMatrix(float(vxx), float(vpp), float(vxp))
    w[0] = 0.25 / w[1]
    M = v @ np.diag(w) @ v.T
    return CovarianceMatrix(float(M[0, 0]), float(M[1, 1]), float(M[0, 1]))


def _try_state(vxx, vpp, vxp, mx, mp) -> Optional[GaussianState]:
    # raw (unprojected) estimate: clipping det up to 1/4 would bias the
    # moment ratio downward, so g2 inference keeps the fitted moments as-is
    # (CovarianceMatrix only requires positive definiteness)
    try:
        return GaussianState(PhasePoint(mx, mp), CovarianceMatrix(vxx, vpp, vxp))
    except DomainError:
        return None


def estimate_covariance(
    data: HomodyneDataset,
    n_boot: int = BOOTSTRAP_SIZE,
    boot_seed: int = 0,
) -> ReconstructionResult:
    """Estimate mean and covariance from a homodyne dataset, with
    per-angle bootstrap resamples (size n_boot) for interval inference."""
    check_int(n_boot, "estimate_covariance: n_boot", 2)
    check_seed(boot_seed, "estimate_covariance")
    means = np.array([s.mean() for s in data.samples])
    variances = np.array([s.var(ddof=1) for s in data.samples])
    vxx, vpp, vxp, resid = map(float, _solve_covariance(data.angles, variances))
    mx, mp = map(float, _solve_mean(data.angles, means))
    state = GaussianState(PhasePoint(mx, mp), project_physical(vxx, vpp, vxp))

    # one row per angle, one column per member: one solve for all members
    boot_means, boot_vars = kernels.boot_moments_sets(
        data.samples, n_boot,
        [boot_seed + 7919 * k for k in range(len(data.samples))])
    bvxx, bvpp, bvxp, _ = _solve_covariance(data.angles, boot_vars)
    bmx, bmp = _solve_mean(data.angles, boot_means)
    boot_states = tuple(
        _try_state(*member)
        for member in zip(*(a.tolist() for a in (bvxx, bvpp, bvxp, bmx, bmp))))
    return ReconstructionResult(state, (vxx, vpp, vxp), variances, resid,
                                boot_states)


def estimate_covariance_from_moments(angles, means, variances) -> GaussianState:
    """Noiseless-moment entry point (exact roundtrip check): no bootstrap."""
    angles = np.asarray(angles, dtype=float)
    if not np.isfinite(angles).all():
        raise DomainError("estimate_covariance_from_moments: angles must be finite")
    vxx, vpp, vxp, _ = map(float, _solve_covariance(
        angles, np.asarray(variances, dtype=float)))
    mx, mp = map(float, _solve_mean(angles, np.asarray(means, dtype=float)))
    return GaussianState(PhasePoint(mx, mp), project_physical(vxx, vpp, vxp))


def g2_from_reconstruction(
    rec: ReconstructionResult, epsilon: float = DEFAULT_EPSILON
) -> G2Interval:
    """Point estimate and percentile bootstrap CI (2.5/97.5) of g2(0).

    Both the point estimate and the bootstrap members are evaluated on
    the raw fitted moments (not the physicality-projected state): the
    det >= 1/4 projection only ever inflates the estimated mean photon
    number and would bias g2 low.  Bootstrap members caught by the
    near-vacuum guard (or with non-positive-definite resampled
    covariances) are counted, not dropped silently; a guarded majority
    raises UnstableInferenceError.
    """
    values = []
    guarded = 0
    for bs in rec.bootstrap_states:
        if bs is None:
            guarded += 1
            continue
        try:
            values.append(g2_gaussian(bs, epsilon).value)
        except NearVacuumError:
            guarded += 1
    n_members = len(rec.bootstrap_states)
    if guarded > n_members // 2:
        raise UnstableInferenceError(
            f"{guarded}/{n_members} bootstrap members hit the near-vacuum "
            "guard; the reconstruction is too close to vacuum for g2 inference"
        )
    raw = _try_state(rec.raw_cov[0], rec.raw_cov[1], rec.raw_cov[2],
                     rec.state.mean.x, rec.state.mean.p)
    point = g2_gaussian(raw if raw is not None else rec.state, epsilon).value
    lo, hi = np.percentile(values, [2.5, 97.5])
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

    Homodyne rows where inference is unstable (near-vacuum bootstrap
    majority) report NaN for the homodyne columns.
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
        except UnstableInferenceError:
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
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
        raise DomainError("fit_sweep_model: need >= 3 (theta_deg, g2) points")
    if not np.isfinite(pts).all():
        raise DomainError("fit_sweep_model: points must be finite")
    w = 2.0 * math.pi / 45.0
    wt = w * pts[:, 0]
    A = np.column_stack([np.ones_like(wt), np.cos(wt), np.sin(wt)])
    if np.linalg.matrix_rank(A, tol=1e-10) < 3:
        raise IdentifiabilityError(
            "fit_sweep_model: need >= 3 distinct angles mod 45 degrees")
    # centred data: a constant sweep gives P = Q = 0 exactly
    y_mean = float(pts[:, 1].mean())
    yc = pts[:, 1] - y_mean
    sol, *_ = np.linalg.lstsq(A, yc, rcond=None)
    C, P, Q = (float(v) for v in sol)
    half_a = math.hypot(P, Q)
    b = (math.atan2(Q, -P) / w + 22.5) % 45.0 - 22.5 if half_a else 0.0
    residual = float(np.linalg.norm(A @ sol - yc))
    return SweepFit(2.0 * half_a, b, y_mean + C - half_a, residual)
