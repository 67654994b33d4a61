"""Single- and two-mode Gaussian states in phase space.

Conventions (fixed once for the whole package):
    a = (x + i p) / sqrt(2),  hbar = 1
    vacuum variances        vxx = vpp = 1/2
    thermal variances       nbar + 1/2
    squeezed variances      (s/2, 1/(2s)) with s the variance ratio e^{-r}
    Wigner normalization    integral of W over the plane = 1
    overlap                 Tr(rho rho') = 2*pi * integral of W W'

The Wigner function of a Gaussian state is
    W(xi) = (2 pi sqrt(det V))^{-1} exp[-1/2 (xi-mu)^T V^{-1} (xi-mu)].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_int

VACUUM_VARIANCE = 0.5

# Guard for covariance inversion near degeneracy.
_MIN_DET = 1e-300


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"{name}: non-finite value {v!r}")


def _positive_definite(vxx, vpp, vxp):
    """Where CovarianceMatrix accepts (vxx, vpp, vxp), elementwise: vxx,
    vpp and det V > 0, det V finite (so every entry is too).  On arrays,
    the caller silences numpy's overflow and invalid warnings."""
    det = vxx * vpp - vxp * vxp
    return (abs(det) < math.inf) & (vxx > 0.0) & (vpp > 0.0) & (det > 0.0)


def _check_physical(cov: CovarianceMatrix, caller: str) -> bool:
    """Whether cov is pure; a det V below 1/4 by more than round-off
    raises DomainError naming the caller.  det V of three doubles is
    known to about eps (vxx vpp + vxp^2), and a pure state's det V - 1/4
    is round-off within 3 eps of that scale."""
    excess, scale = cov.det - 0.25, cov.vxx * cov.vpp + cov.vxp * cov.vxp
    if excess < -1e-12 * scale:
        raise DomainError(f"{caller}: det V = {cov.det!r} < 1/4, the "
                          "covariance of no quantum state")
    return excess <= 8.0 * math.ulp(1.0) * scale


def _gaussian_overlap(sxx, sxp, det, x, p, tau=1.0):
    """exp(-(tau/2) d^T S^-1 d) / sqrt(det) for d = (x, p), tau >= 0 and
    S = [[sxx, sxp], [sxp, spp]] positive definite, det = det S.  With
    m = max(|x|, |p|) and (x', p') = d/m, d^T S^-1 d is the sum of squares
    m^2 (x'^2/sxx + (sxx p' - sxp x')^2 / (sxx det)): no step overflows
    before the last products by m, where the overlap underflows to 0."""
    m = float(max(abs(x), abs(p)))
    if m == 0.0:
        return 1.0 / math.sqrt(det)
    x, p = x / m, p / m
    t = sxx * p - sxp * x
    form = float(x * x / sxx + (t / sxx) * (t / det))
    # Python floats overflow to inf without the warning of a numpy scalar;
    # tau m comes first, so that a subnormal tau is not lost to underflow
    return math.exp(-(float(tau) * m * form * m) / 2.0) / math.sqrt(det)


@dataclass(frozen=True)
class PhasePoint:
    """Point (x, p) in the dimensionless single-mode phase plane."""

    x: float
    p: float

    def __post_init__(self):
        _require_finite("PhasePoint", self.x, self.p)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric 2x2 covariance matrix stored as (vxx, vpp, vxp).

    Must be positive definite.  Physical states additionally satisfy
    det V >= 1/4; every constructor in this module guarantees that, but
    the type itself only enforces positive definiteness so that raw
    tomographic estimates can be represented before projection.
    """

    vxx: float
    vpp: float
    vxp: float = 0.0

    def __post_init__(self):
        _require_finite("CovarianceMatrix", self.vxx, self.vpp, self.vxp)
        if not _positive_definite(self.vxx, self.vpp, self.vxp):
            raise DomainError(
                "covariance not positive definite, or its determinant "
                f"overflows: vxx={self.vxx}, vpp={self.vpp}, vxp={self.vxp}"
            )

    @property
    def det(self) -> float:
        return self.vxx * self.vpp - self.vxp * self.vxp

    def matrix(self) -> np.ndarray:
        return np.array([[self.vxx, self.vxp], [self.vxp, self.vpp]])


@dataclass(frozen=True)
class GaussianState:
    """Gaussian Wigner function in parametric form: mean + covariance."""

    mean: PhasePoint
    cov: CovarianceMatrix

    def mean_vector(self) -> np.ndarray:
        return np.array([self.mean.x, self.mean.p])

    def to_dict(self) -> dict:
        return {
            "mean": [self.mean.x, self.mean.p],
            "cov": [self.cov.vxx, self.cov.vxp, self.cov.vpp],
        }

    @staticmethod
    def from_dict(d: dict) -> "GaussianState":
        x0, p0 = d["mean"]
        vxx, vxp, vpp = d["cov"]
        return GaussianState(PhasePoint(float(x0), float(p0)),
                             CovarianceMatrix(float(vxx), float(vpp), float(vxp)))


# ---------------------------------------------------------------------------
# constructors


def vacuum() -> GaussianState:
    return GaussianState(PhasePoint(0.0, 0.0),
                         CovarianceMatrix(VACUUM_VARIANCE, VACUUM_VARIANCE))


def coherent(x0: float, p0: float) -> GaussianState:
    """Displaced vacuum: mean (x0, p0), vacuum covariance."""
    return GaussianState(PhasePoint(float(x0), float(p0)),
                         CovarianceMatrix(VACUUM_VARIANCE, VACUUM_VARIANCE))


def thermal(nbar: float) -> GaussianState:
    """Thermal state with mean photon number nbar; isotropic variance nbar + 1/2."""
    if not 0.0 <= nbar < math.inf:
        raise DomainError(f"thermal: nbar must be finite and >= 0, got {nbar}")
    v = nbar + VACUUM_VARIANCE
    return GaussianState(PhasePoint(0.0, 0.0), CovarianceMatrix(v, v))


def squeezed_vacuum(s: float, angle: float = 0.0) -> GaussianState:
    """Pure squeezed vacuum with principal variances (s/2, 1/(2s)).

    s = e^{-r} in terms of the usual squeezing parameter r; the squeezed
    axis is rotated by `angle` (radians).  det V = 1/4 exactly.
    """
    if not 0.0 < s < math.inf:
        raise DomainError(f"squeezed_vacuum: s must be finite and > 0, got {s}")
    _require_finite("squeezed_vacuum", angle)
    a = s / 2.0
    b = 1.0 / (2.0 * s)
    c, sn = math.cos(angle), math.sin(angle)
    vxx = a * c * c + b * sn * sn
    vpp = a * sn * sn + b * c * c
    vxp = (a - b) * c * sn
    return GaussianState(PhasePoint(0.0, 0.0), CovarianceMatrix(vxx, vpp, vxp))


def squeezed_vacuum_with_mean_photon(n: float, angle: float = 0.0) -> GaussianState:
    """Pure squeezed vacuum with a given mean photon number n > 0."""
    if not 0.0 < n < math.inf:
        raise DomainError(f"squeezed_vacuum_with_mean_photon: n = {n} not in (0, inf)")
    nw = n + VACUUM_VARIANCE
    # s = 2 nw - sqrt(4 nw^2 - 1) in the conjugate form, with
    # 4 nw^2 - 1 = 4 n (n + 1): no step cancels or overflows (< 2 ulp)
    s = 0.5 / (nw + math.sqrt(n) * math.sqrt(n + 1.0))
    if not (s > 0.0 and 0.5 / s < math.inf):
        raise DomainError(f"squeezed_vacuum_with_mean_photon: n = {n} is too "
                          "large, its anti-squeezed variance overflows")
    return squeezed_vacuum(s, angle)


# ---------------------------------------------------------------------------
# single-mode operations


def wigner_eval(state: GaussianState, x, p):
    """Evaluate the normalized Gaussian Wigner function.  Accepts scalars
    or numpy arrays for (x, p)."""
    V = state.cov
    det = V.det
    if det < _MIN_DET:
        raise DomainError("covariance too close to singular for evaluation")
    dx = np.asarray(x, dtype=float) - state.mean.x
    dp = np.asarray(p, dtype=float) - state.mean.p
    # inverse of [[vxx, vxp], [vxp, vpp]]
    q = (V.vpp * dx * dx - 2.0 * V.vxp * dx * dp + V.vxx * dp * dp) / det
    out = np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))
    if np.ndim(out) == 0:
        return float(out)
    return out


def rotated_variance(state: GaussianState, theta: float) -> float:
    """Variance of the rotated quadrature x_theta = x cos(theta) + p sin(theta)."""
    _require_finite("rotated_variance", theta)
    c, s = math.cos(theta), math.sin(theta)
    V = state.cov
    return V.vxx * c * c + V.vpp * s * s + V.vxp * math.sin(2.0 * theta)


def marginal(state: GaussianState, theta: float):
    """1-D Gaussian parameters (mean, variance) of the x_theta marginal."""
    _require_finite("marginal", theta)
    c, s = math.cos(theta), math.sin(theta)
    mean = state.mean.x * c + state.mean.p * s
    return mean, rotated_variance(state, theta)


def displace(state: GaussianState, dx: float, dp: float) -> GaussianState:
    """Shift the mean rigidly; covariance unchanged."""
    return GaussianState(PhasePoint(state.mean.x + dx, state.mean.p + dp),
                         state.cov)


def attenuate(state: GaussianState, eta: float) -> GaussianState:
    """Pure-loss channel with transmissivity eta: mean -> sqrt(eta) mean,
    V -> eta V + (1 - eta) I/2."""
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"attenuate: eta must be in [0, 1], got {eta}")
    r = math.sqrt(eta)
    V = state.cov
    mix = (1.0 - eta) * VACUUM_VARIANCE
    return GaussianState(
        PhasePoint(r * state.mean.x, r * state.mean.p),
        CovarianceMatrix(eta * V.vxx + mix, eta * V.vpp + mix, eta * V.vxp),
    )


def overlap(a: GaussianState, b: GaussianState) -> float:
    """Tr(rho_a rho_b) via the Gaussian closed form
    [det(Va + Vb)]^{-1/2} exp[-1/2 d^T (Va+Vb)^{-1} d], d = mu_a - mu_b."""
    sxx, spp = a.cov.vxx + b.cov.vxx, a.cov.vpp + b.cov.vpp
    sxp = a.cov.vxp + b.cov.vxp
    return _gaussian_overlap(sxx, sxp, sxx * spp - sxp * sxp,
                             a.mean.x - b.mean.x, a.mean.p - b.mean.p)


def purity(state: GaussianState) -> float:
    """Tr(rho^2) = 1/(2 sqrt(det V)) <= 1, exactly 1 for a pure
    covariance; one below det V = 1/4 raises DomainError."""
    if _check_physical(state.cov, "purity"):
        return 1.0
    return min(1.0 / (2.0 * math.sqrt(state.cov.det)), 1.0)


# ---------------------------------------------------------------------------
# two-mode states

@dataclass(frozen=True)
class TwoModeGaussianState:
    """Two-mode Gaussian state: 4-vector mean (x1, p1, x2, p2) and 4x4
    symmetric positive-definite covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(4).copy()
        cov = np.asarray(self.cov, dtype=float).reshape(4, 4).copy()
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise DomainError("TwoModeGaussianState: non-finite entries")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise DomainError("TwoModeGaussianState: covariance not symmetric")
        cov = 0.5 * (cov + cov.T)
        if np.linalg.eigvalsh(cov)[0] <= 0.0:
            raise DomainError("TwoModeGaussianState: covariance not positive definite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def two_mode_squeezed_vacuum(r: float) -> TwoModeGaussianState:
    """Twin beam with squeezing parameter r >= 0 (pump phase fixed to 0).

    Diagonal blocks cosh(2r)/2 * I, off-diagonal blocks
    sinh(2r)/2 * diag(1, -1); each reduced mode is thermal(sinh^2 r).
    """
    if not 0.0 <= r < math.inf:
        raise DomainError(f"two_mode_squeezed_vacuum: need 0 <= r < inf, got {r}")
    try:
        ch = math.cosh(2.0 * r) / 2.0
        sh = math.sinh(2.0 * r) / 2.0
    except OverflowError:
        raise DomainError(f"two_mode_squeezed_vacuum: cosh(2r) overflows "
                          f"at r = {r}") from None
    cov = np.array([
        [ch, 0.0, sh, 0.0],
        [0.0, ch, 0.0, -sh],
        [sh, 0.0, ch, 0.0],
        [0.0, -sh, 0.0, ch],
    ])
    return TwoModeGaussianState(np.zeros(4), cov)


def hwp_mix(state: TwoModeGaussianState, theta_hwp_deg: float) -> TwoModeGaussianState:
    """Half-wave-plate basis rotation: passive two-mode mixing by 2*theta.

    Modeled as the real orthogonal symplectic
        a1' = cos(2t) a1 - sin(2t) a2,   a2' = sin(2t) a1 + cos(2t) a2,
    acting identically on (x, p).  The sign is fixed so that applying it
    to the twin beam at theta = 22.5 deg yields squeezed vacua with
    variances (e^{-2r}/2, e^{2r}/2) on mode 1.
    """
    _require_finite("hwp_mix", theta_hwp_deg)
    t = math.radians(2.0 * theta_hwp_deg)
    c, s = math.cos(t), math.sin(t)
    S = np.array([
        [c, 0.0, -s, 0.0],
        [0.0, c, 0.0, -s],
        [s, 0.0, c, 0.0],
        [0.0, s, 0.0, c],
    ])
    return TwoModeGaussianState(S @ state.mean, S @ state.cov @ S.T)


def reduce_mode(state: TwoModeGaussianState, mode: int) -> GaussianState:
    """Partial trace onto one mode (1 or 2): principal 2x2 submatrix."""
    check_int(mode, "reduce_mode: mode", 1, 2)
    i = 0 if mode == 1 else 2
    sub = state.cov[i:i + 2, i:i + 2]
    return GaussianState(
        PhasePoint(state.mean[i], state.mean[i + 1]),
        CovarianceMatrix(sub[0, 0], sub[1, 1], sub[0, 1]),
    )
