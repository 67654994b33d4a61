"""One table of invalid arguments: every count, seed and range argument of
the public API, each with the values it must refuse.  Counts and seeds
are integers, never bool; NaN fails every range; and every refusal is a
DomainError (CLI exit 3).  The checks run before any arithmetic on the
value, so no row may emit a RuntimeWarning either (CI runs this file
with warnings as errors)."""

import math

import numpy as np
import pytest

from wigg2 import (CountingConfig, CountingRecord, CovarianceMatrix,
                   HomodyneDataset, PhasePoint, PhotonNumberDistribution,
                   QuadratureGrid, TwoModeGaussianState, attenuate, coherent,
                   displace, estimate_covariance,
                   estimate_covariance_from_moments, fig1_table,
                   fit_sweep_model, fock_wigner, g2_estimate_numbers,
                   g2_from_pn, hwp_mix, hwp_sweep, infer_loss,
                   infer_loss_resampled, infer_nw_pure, infer_pure_variance,
                   marginal, photon_number_distribution, reduce_mode,
                   rotated_variance, sample_photon_numbers, simulate_homodyne,
                   squeezed_vacuum, squeezed_vacuum_with_mean_photon, thermal,
                   two_mode_squeezed_vacuum, vacuum, weyl_moments_numeric,
                   weyl_moments_numeric_state, wigner_eval)
from wigg2.counting import bootstrap_g2_clicks
from wigg2.errors import DomainError

NAN, INF = math.nan, math.inf
# the values a count or seed must refuse, whatever its range
NOT_INT = (NAN, INF, True, 2.5)
ANGLES = [0.0, math.pi / 3, 2 * math.pi / 3]
CFG = CountingConfig(n_windows=1000)
REC = CountingRecord(100, 100, 5, 10_000, CFG)
TB = two_mode_squeezed_vacuum(0.4)
DATA = simulate_homodyne(thermal(1.0), ANGLES, 100, seed=1)


def _config(field):
    return lambda v: CountingConfig(**{"n_windows": 1000, field: v})


def _record(field):
    return lambda v: CountingRecord(**{"n1": 1, "n2": 1, "nc": 0,
                                       "n_windows": 10, "config": CFG,
                                       field: v})


def _dataset(field):
    args = {"angles": np.array(ANGLES), "samples": DATA.samples, "seed": 0,
            "eta_hd": 1.0}
    return lambda v: HomodyneDataset(**{**args, field: v})


def _sweep(field, wrap=lambda v: v):
    args = dict(r=0.4, thetas_deg=[0.0], counting=CFG, angles=ANGLES,
                per_angle=100, seed=0)
    return lambda v: hwp_sweep(**{**args, field: wrap(v)})


# (name, call taking the bad value, bad values)
TABLE = [
    # states
    ("PhasePoint.x", lambda v: PhasePoint(v, 0.0), (NAN, INF, -INF)),
    ("CovarianceMatrix.vxx", lambda v: CovarianceMatrix(v, 0.5),
     (NAN, INF, -1)),
    ("CovarianceMatrix.vxp", lambda v: CovarianceMatrix(0.5, 0.5, v),
     (NAN, INF)),
    ("TwoModeGaussianState.mean",
     lambda v: TwoModeGaussianState(np.array([v, 0, 0, 0]), np.eye(4)),
     (NAN, INF)),
    ("coherent.x0", lambda v: coherent(v, 0.0), (NAN, INF, -INF)),
    ("displace.dp", lambda v: displace(vacuum(), 0.0, v), (NAN, INF)),
    ("thermal.nbar", thermal, (NAN, INF, -INF, -1)),
    ("squeezed_vacuum.s", squeezed_vacuum, (NAN, INF, -INF, -1, 0.0)),
    ("squeezed_vacuum.angle", lambda v: squeezed_vacuum(0.5, v),
     (NAN, INF)),
    ("squeezed_vacuum_with_mean_photon.n", squeezed_vacuum_with_mean_photon,
     (NAN, INF, -INF, -1, 0.0, 1.7e308)),
    ("squeezed_vacuum_with_mean_photon.angle",
     lambda v: squeezed_vacuum_with_mean_photon(1.0, v), (NAN, INF)),
    ("two_mode_squeezed_vacuum.r", two_mode_squeezed_vacuum,
     (NAN, INF, -INF, -1, 400.0)),
    ("attenuate.eta", lambda v: attenuate(thermal(1.0), v),
     (NAN, INF, -INF, -1, 2.5)),
    ("rotated_variance.theta", lambda v: rotated_variance(thermal(1.0), v),
     (NAN, INF)),
    ("marginal.theta", lambda v: marginal(thermal(1.0), v), (NAN, -INF)),
    ("hwp_mix.theta", lambda v: hwp_mix(TB, v), (NAN, INF)),
    ("reduce_mode.mode", lambda v: reduce_mode(TB, v),
     (*NOT_INT, -1, 0, 3, 1.0)),
    # moments
    ("QuadratureGrid.half_width", lambda v: QuadratureGrid(half_width=v),
     (NAN, INF, -INF, -1, 0.0)),
    ("QuadratureGrid.nodes", lambda v: QuadratureGrid(nodes=v),
     (*NOT_INT, -1, 1, 64.0)),
    ("weyl_moments_numeric_state.grid",
     lambda v: weyl_moments_numeric_state(thermal(1.0),
                                          QuadratureGrid(half_width=v)),
     (NAN,)),
    ("weyl_moments_numeric.sigma",
     lambda v: weyl_moments_numeric(lambda x, p: wigner_eval(vacuum(), x, p),
                                    QuadratureGrid(nodes=64), sigma=v),
     (NAN, INF, -1, 0.0)),
    ("weyl_moments_numeric.center",
     lambda v: weyl_moments_numeric(lambda x, p: wigner_eval(vacuum(), x, p),
                                    QuadratureGrid(nodes=64), center=(0.0, v)),
     (NAN, INF)),
    ("weyl_moments_numeric.norm_tol",
     lambda v: weyl_moments_numeric(lambda x, p: wigner_eval(vacuum(), x, p),
                                    QuadratureGrid(nodes=64), norm_tol=v),
     (NAN, -1)),
    ("fig1_table.n", lambda v: fig1_table([1.0, v]),
     (NAN, INF, -INF, -1, 0.0)),
    # fock
    ("fock_wigner.n", lambda v: fock_wigner(v, 0.0, 0.0), (*NOT_INT, -1)),
    ("PhotonNumberDistribution.n_max",
     lambda v: PhotonNumberDistribution(np.ones(2) / 2, v, 0.0),
     (*NOT_INT, -1)),
    ("photon_number_distribution.n_max",
     lambda v: photon_number_distribution(vacuum(), v), (*NOT_INT, -1)),
    ("photon_number_distribution.tol",
     lambda v: photon_number_distribution(vacuum(), 10, tol=v),
     (NAN, -INF, -1, True)),
    ("g2_from_pn.thermal_nbar",
     lambda v: g2_from_pn(photon_number_distribution(thermal(v), 4)),
     (0.0, 1e-12)),
    # counting
    ("CountingConfig.n_windows", _config("n_windows"),
     (*NOT_INT, -1, 0, 2**32 + 1, 1e4)),
    ("CountingConfig.n_max", _config("n_max"), (*NOT_INT, -1)),
    ("CountingConfig.workers", _config("workers"), (*NOT_INT, -1, 0)),
    ("CountingConfig.seed", _config("seed"), (*NOT_INT, -1, 2**63)),
    ("CountingConfig.eta_det", _config("eta_det"), (NAN, INF, -1, 2.5)),
    ("CountingConfig.dark_prob", _config("dark_prob"), (NAN, INF, -1, 1.0)),
    ("CountingConfig.split", _config("split"), (NAN, INF, -1, 0.0, 1.0)),
    ("CountingRecord.n1", _record("n1"), (*NOT_INT, -1, 11)),
    ("CountingRecord.nc", _record("nc"), (*NOT_INT, -1, 2)),
    ("CountingRecord.n_windows", _record("n_windows"), (*NOT_INT, -1, 1)),
    ("bootstrap_g2_clicks.n_boot",
     lambda v: bootstrap_g2_clicks(REC, n_boot=v), (*NOT_INT, -1, 0)),
    ("bootstrap_g2_clicks.seed",
     lambda v: bootstrap_g2_clicks(REC, n_boot=2, seed=v),
     (*NOT_INT, -1, 2**63)),
    ("sample_photon_numbers.n_samples",
     lambda v: sample_photon_numbers(thermal(0.1), v), (*NOT_INT, -1)),
    ("sample_photon_numbers.seed",
     lambda v: sample_photon_numbers(thermal(0.1), 10, seed=v),
     (*NOT_INT, -1, 2**63)),
    ("sample_photon_numbers.n_max",
     lambda v: sample_photon_numbers(thermal(0.1), 10, n_max=v),
     (*NOT_INT, -1)),
    ("g2_estimate_numbers.samples",
     lambda v: g2_estimate_numbers(np.array([1, 2, v])),
     (NAN, INF, -1, 2.5, 0.5)),
    # tomography
    ("HomodyneDataset.angles",
     lambda v: _dataset("angles")(np.array([0.0, v, 1.0])),
     (NAN, INF, -INF, -1, math.pi, 2 * math.pi)),
    ("HomodyneDataset.seed", _dataset("seed"), (*NOT_INT, -1, 2**63)),
    ("simulate_homodyne.angles",
     lambda v: simulate_homodyne(vacuum(), [0.0, v, 1.0], 100),
     (NAN, INF, -INF, -1, 4.0)),
    ("simulate_homodyne.per_angle",
     lambda v: simulate_homodyne(vacuum(), ANGLES, v), (*NOT_INT, -1, 1)),
    ("simulate_homodyne.eta_hd",
     lambda v: simulate_homodyne(vacuum(), ANGLES, 100, eta_hd=v),
     (NAN, INF, -1, 2.5)),
    ("simulate_homodyne.seed",
     lambda v: simulate_homodyne(vacuum(), ANGLES, 100, seed=v),
     (*NOT_INT, -1, 2**63)),
    ("estimate_covariance.n_boot",
     lambda v: estimate_covariance(DATA, n_boot=v), (*NOT_INT, -1, 1)),
    ("estimate_covariance.boot_seed",
     lambda v: estimate_covariance(DATA, n_boot=2, boot_seed=v),
     (*NOT_INT, -1, 2**63)),
    ("estimate_covariance_from_moments.angles",
     lambda v: estimate_covariance_from_moments(
         [0.0, v, 1.0], [0.0] * 3, [0.5] * 3), (NAN, INF)),
    ("fit_sweep_model.points",
     lambda v: fit_sweep_model([(0.0, 2.0), (10.0, v), (20.0, 3.0)]),
     (NAN, INF)),
    ("hwp_sweep.r", _sweep("r"), (NAN, INF, -1)),
    ("hwp_sweep.thetas_deg", _sweep("thetas_deg", lambda v: [v]), (NAN, INF)),
    ("hwp_sweep.per_angle", _sweep("per_angle"), (*NOT_INT, -1, 1)),
    ("hwp_sweep.seed", _sweep("seed"), (*NOT_INT, -1, 2**63)),
    # loss
    ("infer_nw_pure.g2", infer_nw_pure, (NAN, -INF, -1, 2.5)),
    ("infer_pure_variance.nw", infer_pure_variance, (NAN, INF, -INF, -1)),
    ("infer_loss.g2", lambda v: infer_loss(v, 0.3), (NAN, -1)),
    ("infer_loss.vx", lambda v: infer_loss(4.0, v), (NAN, INF, -1, 0.0)),
    ("infer_loss_resampled.ci",
     lambda v: infer_loss_resampled([4.0] * 3, [0.3] * 3, ci=v),
     ((NAN, 97.5), (2.5, NAN), (-1, 97.5), (2.5, 101.0), (97.5, 2.5))),
]

ROWS = [pytest.param(call, value, id=f"{name}={value!r}")
        for name, call, values in TABLE for value in values]


@pytest.mark.parametrize("call, value", ROWS)
def test_invalid_argument_raises_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)


# numbers at the edge of the float range that are valid inputs


def test_pure_variance_of_huge_nw_does_not_underflow():
    assert infer_pure_variance(1e200) == 1.25e-201


def test_squeezed_vacuum_of_huge_n_constructs():
    st = squeezed_vacuum_with_mean_photon(1e200)
    assert st.cov.vxx == 1.25e-201
    assert st.cov.vpp == 2e200


def test_huge_n_names_n_not_s():
    with pytest.raises(DomainError, match="n = 1.7e"):
        squeezed_vacuum_with_mean_photon(1.7e308)


def test_vacuum_distribution_is_exact():
    assert photon_number_distribution(vacuum(), 6).probs.tolist() == \
        [1.0] + [0.0] * 6
