"""Output checks of the benchmark: pure functions of a result and its
reference, so that the self-test can feed them corrupted results.

Every check returns a list of failure messages; an empty list passes.
References come from closed forms written out here, not from wigg2's
own formulas, so a wrong formula in the library cannot move the
reference along with the result.  Statistical checks allow K_SIGMA
standard errors: loose enough that a legitimate change of RNG stream
cannot trip them, tight enough that a 10% error in g2 does at the
workload sizes of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

K_SIGMA = 6.0
TAIL_TOL = 1e-9


# ---------------------------------------------------------------------------
# photon-number distributions


def check_distribution(probs, tail_mass, tol: float = TAIL_TOL) -> list[str]:
    """All probabilities finite, and a finite tail mass <= tol."""
    probs = np.asarray(probs, dtype=float)
    fails = []
    bad = int(np.count_nonzero(~np.isfinite(probs)))
    if bad:
        fails.append(f"distribution has {bad} non-finite probabilities")
    if not math.isfinite(tail_mass):
        fails.append(f"tail mass {tail_mass!r} is not finite")
    elif tail_mass > tol:
        fails.append(f"tail mass {tail_mass:.3g} exceeds {tol:.3g}")
    return fails


# ---------------------------------------------------------------------------
# tomo_loss: homodyne reconstruction of an attenuated squeezed vacuum


def g2_zero_mean(vxx: float, vpp: float, vxp: float) -> float:
    """g2(0) of a zero-mean Gaussian state from its covariance:
    with s = tr V - 1 and d = det V - tr V / 2 + 1/4,
    g2 = (3 s^2 - 4 d) / s^2."""
    s = vxx + vpp - 1.0
    d = vxx * vpp - vxp * vxp - 0.5 * (vxx + vpp) + 0.25
    return (3.0 * s * s - 4.0 * d) / (s * s)


def eta_from(g2: float, vx: float) -> float:
    """Transmissivity from a loss-immune squeezed-vacuum g2 and the
    attenuated squeezed variance vx = eta v + (1 - eta)/2."""
    nw = 1.0 / (g2 - 3.0) + 0.5
    v_pure = nw - math.sqrt(nw * nw - 0.25)
    return (vx - 0.5) / (v_pure - 0.5)


@dataclass(frozen=True)
class TomoReference:
    vxx: float
    vpp: float
    g2: float
    eta: float
    sigma_vxx: float
    sigma_vpp: float
    sigma_g2: float
    sigma_eta: float


def tomo_reference(s: float, eta: float, angles, per_angle: int) -> TomoReference:
    """Expected fit of `per_angle` samples at each of `angles` from
    squeezed_vacuum(s, 0) attenuated by eta, with standard errors.

    The per-angle sample variance of n Gaussian samples has variance
    2 V(theta)^2 / (n - 1); the least-squares fit maps that to the
    covariance of (vxx, vpp, vxp), and the delta method maps it on to
    g2 and to the inferred eta.
    """
    v = np.array([eta * s / 2.0 + (1.0 - eta) / 2.0,
                  eta / (2.0 * s) + (1.0 - eta) / 2.0,
                  0.0])
    th = np.asarray(angles, dtype=float)
    A = np.column_stack([np.cos(th) ** 2, np.sin(th) ** 2, np.sin(2.0 * th)])
    v_theta = A @ v
    P = np.linalg.pinv(A)
    C = P @ np.diag(2.0 * v_theta ** 2 / (per_angle - 1)) @ P.T

    def g2_of(w):
        return g2_zero_mean(*w)

    def eta_of(w):
        return eta_from(g2_of(w), w[0])

    def sigma(f):
        h = 1e-7
        grad = np.array([(f(v + h * e) - f(v - h * e)) / (2.0 * h)
                         for e in np.eye(3)])
        return float(math.sqrt(grad @ C @ grad))

    return TomoReference(float(v[0]), float(v[1]), float(g2_of(v)), float(eta_of(v)),
                         float(math.sqrt(C[0, 0])), float(math.sqrt(C[1, 1])),
                         sigma(g2_of), sigma(eta_of))


@dataclass(frozen=True)
class TomoResult:
    raw_cov: tuple          # fitted (vxx, vpp, vxp)
    g2: float
    g2_ci: tuple            # bootstrap percentile interval
    eta: float              # median of the resampled eta draws
    eta_ci: tuple
    n_draws: int            # bootstrap draws passed to the loss inference
    n_skipped: int


def check_tomo(res: TomoResult, ref: TomoReference, k: float = K_SIGMA) -> list[str]:
    fails = []
    for name, got, want, sig in (
            ("vxx", res.raw_cov[0], ref.vxx, ref.sigma_vxx),
            ("vpp", res.raw_cov[1], ref.vpp, ref.sigma_vpp),
            ("g2", res.g2, ref.g2, ref.sigma_g2),
            ("eta", res.eta, ref.eta, ref.sigma_eta)):
        if not abs(got - want) <= k * sig:
            fails.append(f"{name} = {got:.6g}, expected {want:.6g} "
                         f"within {k:g} x {sig:.3g}")
    if not res.g2_ci[0] < res.g2_ci[1]:
        fails.append(f"g2 interval {res.g2_ci} is empty")
    if not res.eta_ci[0] < res.eta_ci[1]:
        fails.append(f"eta interval {res.eta_ci} is empty")
    if res.n_skipped >= res.n_draws:
        fails.append(f"all {res.n_draws} loss draws skipped")
    return fails


# ---------------------------------------------------------------------------
# hbt_bright: click counting


def check_clicks(n1: int, n2: int, nc: int, n_windows: int,
                 g2: float, err: float, expected_g2: float,
                 k: float = K_SIGMA) -> list[str]:
    """Counts are consistent and the click g2 lies within k standard
    errors of the exact expectation of the click estimator."""
    fails = []
    if not (0 <= n1 <= n_windows and 0 <= n2 <= n_windows and 0 <= nc <= n_windows):
        fails.append(f"counts ({n1}, {n2}, {nc}) outside [0, {n_windows}]")
    if nc > min(n1, n2):
        fails.append(f"coincidences {nc} exceed singles min({n1}, {n2})")
    if not abs(g2 - expected_g2) <= k * err:
        fails.append(f"click g2 = {g2:.6g}, expected {expected_g2:.6g} "
                     f"within {k:g} x {err:.3g}")
    return fails


# ---------------------------------------------------------------------------
# sweep_cli: the CSV and manifest written by `wigg2 sweep`


def sweep_analytic(theta_deg: float, r: float) -> float:
    """g2 of one mode of a twin beam mixed on a half-wave plate at
    theta: 2 + sin^2(4 theta) (1 + 1/sinh^2 r)."""
    return 2.0 + math.sin(math.radians(4.0 * theta_deg)) ** 2 * (
        1.0 + 1.0 / math.sinh(r) ** 2)


def check_sweep(csv_bytes: bytes, manifest_bytes: bytes, out_key: str,
                thetas, r: float, rtol: float = 1e-10) -> list[str]:
    """The g2_analytic column matches the closed form at every angle,
    and the manifest's sha256 matches the CSV bytes."""
    fails = []
    lines = [ln for ln in csv_bytes.decode().splitlines() if not ln.startswith("#")]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    if len(rows) != len(thetas):
        fails.append(f"{len(rows)} rows, expected {len(thetas)}")
    col_t, col_g = header.index("theta_deg"), header.index("g2_analytic")
    for th, row in zip(thetas, rows):
        got, want = float(row[col_g]), sweep_analytic(th, r)
        if float(row[col_t]) != th or not abs(got - want) <= rtol * want:
            fails.append(f"row theta={row[col_t]}: g2_analytic {got!r}, "
                         f"expected {want!r} at theta={th}")
    manifest = json.loads(manifest_bytes)
    digest = hashlib.sha256(csv_bytes).hexdigest()
    if manifest.get("outputs", {}).get(out_key) != digest:
        fails.append("manifest sha256 does not match the CSV bytes")
    return fails
