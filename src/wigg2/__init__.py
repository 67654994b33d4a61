"""Second-order intensity correlations of Gaussian states from
Wigner-function moments, cross-validated by simulated photon counting
and homodyne tomography."""

__version__ = "0.1.0"

from .states import (CovarianceMatrix, GaussianState, PhasePoint,
                     TwoModeGaussianState, attenuate, coherent, displace,
                     hwp_mix, marginal, overlap, purity, reduce_mode,
                     rotated_variance, squeezed_vacuum,
                     squeezed_vacuum_with_mean_photon, thermal,
                     two_mode_squeezed_vacuum, vacuum, wigner_eval)
from .moments import (G2Value, QuadratureGrid, WeylMoments, fig1_table,
                      g2_from_moments, g2_gaussian, weyl_moments_analytic,
                      weyl_moments_numeric, weyl_moments_numeric_state)
from .fock import (PhotonNumberDistribution, fock_wigner, g2_from_pn,
                   photon_number_distribution)
from .counting import (CountingConfig, CountingRecord, g2_estimate_clicks,
                       simulate_hbt)
from .tomography import (G2Interval, HomodyneDataset, ReconstructionResult,
                         SweepFit, estimate_covariance,
                         estimate_covariance_from_moments, fit_sweep_model,
                         g2_from_reconstruction, hwp_sweep, simulate_homodyne)
from .loss import (LossInference, infer_loss, infer_loss_resampled,
                   infer_nw_pure, infer_pure_variance)
