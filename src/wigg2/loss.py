"""Loss inference from a loss-immune g2(0) and a loss-affected squeezed
quadrature variance.

For a pure squeezed vacuum, g2 = 3 + 1/<n> is unchanged by attenuation,
so the measured g2 pins down the unattenuated state:
    nw_pure = 1/(g2 - 3) + 1/2,
    nw_pure = [v + 1/(4v)] / 2  ->  v_pure = nw - sqrt(nw^2 - 1/4),
while the measured squeezed variance obeys the attenuation law
    vx_meas = eta * v_pure + (1 - eta)/2,
giving eta = (vx_meas - 1/2) / (v_pure - 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InconsistentInputsError,
                     InsufficientStatisticsError, NotSqueezedError,
                     float_array)

ETA_TOLERANCE = 0.02


@dataclass(frozen=True)
class LossInference:
    nw_pure: float
    vx_pure: float
    eta: float
    warnings: tuple = ()


def infer_nw_pure(g2: float) -> float:
    """Symmetric mean photon number of the unattenuated squeezed vacuum
    from its (loss-immune) g2; requires g2 > 3."""
    if not g2 > 3.0:
        raise NotSqueezedError(
            f"g2 = {g2} is not in the squeezed-vacuum branch (requires g2 > 3)"
        )
    return 1.0 / (g2 - 3.0) + 0.5


def infer_pure_variance(nw_pure: float) -> float:
    """Squeezed root v <= 1/2 of nw = (v + 1/(4v))/2, nw finite."""
    if not 0.5 <= nw_pure < math.inf:
        raise DomainError(f"infer_pure_variance: need 1/2 <= nw < inf, got {nw_pure}")
    # nw - sqrt(nw^2 - 1/4) in the conjugate form, with the root taken
    # as sqrt(nw - 1/2) sqrt(nw + 1/2): no step cancels or overflows
    return 0.25 / (nw_pure + math.sqrt(nw_pure - 0.5) * math.sqrt(nw_pure + 0.5))


def infer_loss(g2_measured: float, vx_measured: float) -> LossInference:
    """Combine a measured g2 (> 3) with a measured squeezed variance to
    infer the overall transmissivity eta."""
    nw = infer_nw_pure(g2_measured)
    if not vx_measured > 0.0:
        raise DomainError(f"infer_loss: vx_measured must be > 0, got {vx_measured}")
    if vx_measured >= 0.5:
        raise InconsistentInputsError(
            f"measured variance {vx_measured} is not squeezed (>= 1/2) "
            "while g2 indicates a squeezed vacuum"
        )
    v_pure = infer_pure_variance(nw)
    if v_pure >= 0.5:
        # g2 -> infinity limit: vacuum, loss indeterminate
        raise InconsistentInputsError(
            "inferred pure state is vacuum; loss is indeterminate"
        )
    eta = (vx_measured - 0.5) / (v_pure - 0.5)
    warnings = ()
    if eta < -ETA_TOLERANCE or eta > 1.0 + ETA_TOLERANCE:
        warnings = (
            f"inferred eta = {eta:.4f} outside [0, 1] beyond tolerance "
            f"{ETA_TOLERANCE}; inputs are mutually inconsistent",
        )
    return LossInference(nw, v_pure, eta, warnings)


def infer_loss_resampled(g2_draws, vx_draws, ci=(2.5, 97.5)):
    """Propagate uncertainty by pairing bootstrap draws of g2 and of the
    measured variance, two 1-D arrays of equal length.  Draws outside
    the formula's domain are skipped and counted.  Returns (eta_draws,
    (lo, hi), n_skipped) for the percentiles ci, 0 <= lo <= hi <= 100."""
    lo_q, hi_q = ci
    if not 0.0 <= lo_q <= hi_q <= 100.0:
        raise DomainError(f"infer_loss_resampled: ci={ci!r} not in [0, 100] in order")
    g2_draws = float_array(g2_draws, "infer_loss_resampled: g2_draws")
    vx_draws = float_array(vx_draws, "infer_loss_resampled: vx_draws")
    if g2_draws.ndim != 1 or g2_draws.shape != vx_draws.shape:
        raise DomainError(
            "infer_loss_resampled: g2_draws and vx_draws must be 1-D and of "
            f"equal length, got shapes {g2_draws.shape} and {vx_draws.shape}")
    # infer_loss on every pair at once: nw_pure is finite and >= 1/2
    # wherever g2 > 3, so infer_pure_variance refuses no pair here
    with np.errstate(divide="ignore", invalid="ignore"):
        nw = 1.0 / (g2_draws - 3.0) + 0.5
        v_pure = 0.25 / (nw + np.sqrt(nw - 0.5) * np.sqrt(nw + 0.5))
    ok = ((g2_draws > 3.0) & (vx_draws > 0.0) & (vx_draws < 0.5)
          & (v_pure < 0.5))
    etas = (vx_draws[ok] - 0.5) / (v_pure[ok] - 0.5)
    if etas.size < 2:
        raise InsufficientStatisticsError(
            f"only {etas.size} valid resamples out of {g2_draws.size}; "
            "cannot form a CI")
    lo, hi = np.percentile(etas, [lo_q, hi_q])
    return etas, (float(lo), float(hi)), g2_draws.size - etas.size
