"""One table of invalid arguments: every count, seed and range argument of
the public API, each with the values it must refuse.  Counts and seeds
are integers, never bool; NaN fails every range; and every refusal is a
DomainError (CLI exit 3).  The checks run before any arithmetic on the
value, so no row may emit a RuntimeWarning either (CI runs this file
with warnings as errors)."""

import enum
import math

import numpy as np
import pytest

from wigg2 import kernels
from wigg2 import (CountingConfig, CountingRecord, CovarianceMatrix,
                   HomodyneDataset, PhasePoint, PhotonNumberDistribution,
                   QuadratureGrid, TwoModeGaussianState, attenuate, coherent,
                   displace, estimate_covariance,
                   estimate_covariance_from_moments, fig1_table,
                   fit_sweep_model, fock_wigner,
                   g2_from_moments, g2_from_pn, g2_from_reconstruction,
                   g2_gaussian, hwp_mix, hwp_sweep, infer_loss,
                   infer_loss_resampled, infer_nw_pure, infer_pure_variance,
                   marginal, photon_number_distribution, reduce_mode,
                   rotated_variance, simulate_homodyne,
                   squeezed_vacuum, squeezed_vacuum_with_mean_photon, thermal,
                   two_mode_squeezed_vacuum, vacuum, weyl_moments_analytic,
                   weyl_moments_numeric, weyl_moments_numeric_state,
                   wigner_eval)
from wigg2.counting import bootstrap_g2_clicks
from wigg2.errors import DomainError, check_int, check_seed
from wigg2.tomography import project_physical

NAN, INF = math.nan, math.inf
# the values a count or seed must refuse, whatever its range
NOT_INT = (NAN, INF, True, 2.5)
ANGLES = [0.0, math.pi / 3, 2 * math.pi / 3]
CFG = CountingConfig(n_windows=1000)
REC = CountingRecord(100, 100, 5, 10_000, CFG)
TB = two_mode_squeezed_vacuum(0.4)
DATA = simulate_homodyne(thermal(1.0), ANGLES, 100, seed=1)
# a mean photon number the default epsilon guards: a NaN epsilon would
# switch that guard off
FAINT = thermal(1e-12)
# epsilon values to refuse; inf also trips the near-vacuum guard, so the
# CLI test and test_epsilon_names_itself check it by its message
BAD_EPSILON = (NAN, -INF, -1)
# three valid angles in a 2-D shape, one per sample array of DATA
SHAPED_ANGLES = ([[0.0, 1.0, 2.0]], [[0.0], [1.0], [2.0]])
# lists numpy cannot make a float array of: a non-number, and a ragged list
# (numpy's own error for either is a bare ValueError)
NOT_ARRAYS = (["x", 1.0, 2.0], [[0.0], [1.0, 2.0]])


def _config(field):
    return lambda v: CountingConfig(**{"n_windows": 1000, field: v})


def _record(field):
    return lambda v: CountingRecord(**{"n1": 1, "n2": 1, "nc": 0,
                                       "n_windows": 10, "config": CFG,
                                       field: v})


def _dataset(field):
    args = {"angles": np.array(ANGLES), "samples": DATA.samples}
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
    ("g2_from_moments.epsilon",
     lambda v: g2_from_moments(weyl_moments_analytic(FAINT), epsilon=v),
     BAD_EPSILON),
    ("g2_gaussian.epsilon", lambda v: g2_gaussian(FAINT, epsilon=v),
     BAD_EPSILON),
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
    # mod 2^64, seed 2^64 is seed 0, and seed or index -1 is 2^64 - 1
    ("click_counts.seed",
     lambda v: kernels.click_counts(10, 0.5, 0.5, 0.25, v, 0),
     (*NOT_INT, -1, 2**63, 2**64)),
    ("click_counts.i",
     lambda v: kernels.click_counts(10, 0.5, 0.5, 0.25, 0, v),
     (*NOT_INT, -1, 2**64)),
    ("bootstrap_g2_clicks.n_boot",
     lambda v: bootstrap_g2_clicks(REC, n_boot=v), (*NOT_INT, -1, 0)),
    ("bootstrap_g2_clicks.seed",
     lambda v: bootstrap_g2_clicks(REC, n_boot=2, seed=v),
     (*NOT_INT, -1, 2**63)),
    # tomography
    ("HomodyneDataset.angles",
     lambda v: _dataset("angles")(np.array([0.0, v, 1.0])),
     (NAN, INF, -INF, -1, math.pi, 2 * math.pi)),
    ("HomodyneDataset.angles", _dataset("angles"), SHAPED_ANGLES),
    ("HomodyneDataset.angles", _dataset("angles"), NOT_ARRAYS),
    ("HomodyneDataset.samples",
     lambda v: _dataset("samples")((v,) + DATA.samples[1:]), NOT_ARRAYS),
    ("simulate_homodyne.angles",
     lambda v: simulate_homodyne(vacuum(), [0.0, v, 1.0], 100),
     (NAN, INF, -INF, -1, 4.0)),
    ("simulate_homodyne.angles",
     lambda v: simulate_homodyne(vacuum(), v, 100), SHAPED_ANGLES),
    ("simulate_homodyne.angles",
     lambda v: simulate_homodyne(vacuum(), v, 10), NOT_ARRAYS),
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
    ("estimate_covariance_from_moments.angles",
     lambda v: estimate_covariance_from_moments(v, [0.0] * 3, [0.5] * 3),
     NOT_ARRAYS),
    ("estimate_covariance_from_moments.means",
     lambda v: estimate_covariance_from_moments(ANGLES, v, [0.5] * 3),
     ([0.0] * 2, [0.0] * 4, [[0.0] * 3], 0.0, *NOT_ARRAYS)),
    ("estimate_covariance_from_moments.variances",
     lambda v: estimate_covariance_from_moments(ANGLES, [0.0] * 3, v),
     ([0.5] * 2, [0.5] * 4, [[0.5] * 3], 0.5, *NOT_ARRAYS)),
    ("project_physical.vxx", lambda v: project_physical(v, 1.0, 0.0),
     (NAN, INF, -INF)),
    ("project_physical.vpp", lambda v: project_physical(1.0, v, 0.0),
     (NAN, INF, -INF)),
    ("project_physical.vxp", lambda v: project_physical(1.0, 1.0, v),
     (NAN, INF, -INF)),
    ("fit_sweep_model.points",
     lambda v: fit_sweep_model([(0.0, 2.0), (10.0, v), (20.0, 3.0)]),
     (NAN, INF)),
    ("fit_sweep_model.points", fit_sweep_model,
     ([("a", 1.0), (10.0, 2.0), (20.0, 3.0)],
      [(0.0, 2.0), (10.0,), (20.0, 3.0)])),
    ("g2_from_reconstruction.epsilon",
     lambda v: g2_from_reconstruction(estimate_covariance(DATA), epsilon=v),
     BAD_EPSILON),
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
    ("infer_loss_resampled.g2_draws",
     lambda v: infer_loss_resampled(v, [0.3] * 3),
     ([4.0] * 5, [4.0] * 2, [[4.0] * 3], 4.0, *NOT_ARRAYS)),
    ("infer_loss_resampled.vx_draws",
     lambda v: infer_loss_resampled([4.0] * 3, v),
     ([0.3] * 5, [0.3] * 2, [[0.3] * 3], 0.3, *NOT_ARRAYS)),
    ("infer_loss_resampled.draws", lambda v: infer_loss_resampled(*v),
     (([[4.0, 4.0]], [[0.3, 0.3]]),)),
]

ROWS = [pytest.param(call, value, id=f"{name}={value!r}")
        for name, call, values in TABLE for value in values]


@pytest.mark.parametrize("call, value", ROWS)
def test_invalid_argument_raises_domain_error(call, value):
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("value", [NAN, INF, -1])
@pytest.mark.parametrize("call", [
    lambda v: g2_from_moments(weyl_moments_analytic(thermal(1.0)), v),
    lambda v: g2_gaussian(thermal(1.0), v)])
def test_epsilon_names_itself(call, value):
    with pytest.raises(DomainError, match="epsilon"):
        call(value)


@pytest.mark.parametrize("call, name", [
    (lambda: project_physical(NAN, 1.0, 0.0), "project_physical"),
    (lambda: estimate_covariance_from_moments(ANGLES, [0.0] * 2, [0.5] * 3),
     "means"),
    (lambda: estimate_covariance_from_moments(ANGLES, [0.0] * 3,
                                              [[0.5] * 3]), "variances"),
    (lambda: infer_loss_resampled([4.0] * 5, [0.3] * 3),
     "g2_draws and vx_draws"),
    (lambda: _dataset("angles")([[0.0, 1.0, 2.0]]), "HomodyneDataset"),
    (lambda: simulate_homodyne(vacuum(), [[0.0, 1.0, 2.0]], 100),
     "simulate_homodyne"),
    (lambda: simulate_homodyne(vacuum(), ["x", 1.0], 10), "simulate_homodyne"),
    (lambda: estimate_covariance_from_moments(["x", 1.0, 2.0], [0.0] * 3,
                                              [0.5] * 3),
     "estimate_covariance_from_moments: angles"),
    (lambda: estimate_covariance_from_moments(ANGLES, [[0.0], [1.0, 2.0]],
                                              [0.5] * 3), "means"),
    (lambda: estimate_covariance_from_moments(ANGLES, [0.0, NAN, 0.0],
                                              [0.5] * 3),
     "estimate_covariance_from_moments: means must hold one finite"),
    (lambda: estimate_covariance_from_moments(ANGLES, [0.0] * 3,
                                              [0.5, 0.5, INF]),
     "estimate_covariance_from_moments: variances must hold one finite"),
    (lambda: infer_loss_resampled(["a", "b"], [0.3] * 2),
     "infer_loss_resampled: g2_draws"),
    (lambda: fit_sweep_model([("a", 1.0), (10.0, 2.0), (20.0, 3.0)]),
     "fit_sweep_model: points"),
    (lambda: _dataset("samples")((["a", "b"],) + DATA.samples[1:]),
     "HomodyneDataset: sample array 0"),
], ids=["project_physical", "means", "variances", "draws", "dataset_angles",
        "homodyne_angles", "homodyne_angle_strings", "moment_angle_strings",
        "ragged_means", "nan_means", "inf_variances", "draw_strings",
        "sweep_point_strings", "sample_strings"])
def test_refusal_names_the_argument(call, name):
    with pytest.raises(DomainError, match=name):
        call()


def test_angle_range_checked_before_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("normal_pairs called")
    monkeypatch.setattr(kernels, "normal_pairs", refuse)
    with pytest.raises(DomainError, match="simulate_homodyne"):
        simulate_homodyne(vacuum(), [0.0, 4.0], 2_000_000)


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


# check_int and check_seed return at once for an exact int in range; every
# other value takes the full test.  A frozen copy of that test is the
# oracle: each value below must be accepted or refused exactly as it
# accepts or refuses it, with the same message.


def _check_int_oracle(value, what, lo, hi=None):
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lo or (hi is not None and value > hi)):
        top = {2**32: "2**32", 2**63 - 1: "2**63 - 1",
               2**64 - 1: "2**64 - 1"}.get(hi, hi)
        span = f">= {lo}" if hi is None else f"in [{lo}, {top}]"
        raise DomainError(f"{what} must be an integer {span}, got {value!r}")


def _outcome(check, *args):
    """None if check(*args) accepts, else the DomainError's message."""
    try:
        check(*args)
    except DomainError as exc:
        return str(exc)
    return None


class _Count(enum.IntEnum):
    # an int subclass, so it takes the full test
    ZERO = 0
    ONE = 1
    BIG = 2**32
    ABOVE = 2**32 + 1


# values that are not exact ints, whatever their range
NOT_EXACT = (True, False, np.True_, NAN, INF, 2.5, 1.0, "1", None)


@pytest.mark.parametrize("lo, hi", [(0, None), (1, None), (1, 2**32),
                                    (0, 2**63 - 1), (0, 2**64 - 1)])
def test_check_int_fast_path_matches_full_test(lo, hi):
    values = [lo - 1, lo, lo + 1, *NOT_EXACT, *_Count]
    if hi is not None:
        values += [hi - 1, hi, hi + 1]
    # np.int64 where the value fits, np.uint64 above
    values += [np.int64(v) if v < 2**63 else np.uint64(v)
               for v in values if type(v) is int and -2**63 <= v < 2**64]
    for v in values:
        assert (_outcome(check_int, v, "f: n", lo, hi)
                == _outcome(_check_int_oracle, v, "f: n", lo, hi)), repr(v)


def test_check_seed_fast_path_matches_full_test():
    values = [-1, 0, 1, 2**63 - 1, 2**63, *NOT_EXACT, *_Count,
              np.int64(-1), np.int64(0), np.int64(2**63 - 1),
              np.uint64(0), np.uint64(2**63)]
    for v in values:
        assert (_outcome(check_seed, v, "f")
                == _outcome(_check_int_oracle, v, "f: seed", 0, 2**63 - 1)
                ), repr(v)
