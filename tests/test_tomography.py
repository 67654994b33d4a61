import functools
import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wigg2.counting import (CountingConfig, bootstrap_g2_clicks,
                            g2_estimate_clicks, simulate_hbt)
from wigg2.errors import (DomainError, FitError, IdentifiabilityError,
                          NearVacuumError, UnstableInferenceError)
from wigg2.moments import g2_gaussian, g2_rows
from wigg2.states import (CovarianceMatrix, GaussianState, PhasePoint,
                          _positive_definite, attenuate, coherent, displace, hwp_mix, marginal,
                          reduce_mode, squeezed_vacuum,
                          squeezed_vacuum_with_mean_photon, thermal,
                          two_mode_squeezed_vacuum, vacuum)
from wigg2 import kernels, tomography
from wigg2.kernels import CHUNK, MEMBER_DRAWS, SAMPLE_DRAWS, normal_pairs
from wigg2.tomography import (DEFAULT_ANGLES, HomodyneDataset,
                              ReconstructionResult, SweepFit, _angle_maps,
                              estimate_covariance,
                              estimate_covariance_from_moments,
                              fit_sweep_model, g2_from_reconstruction,
                              hwp_sweep, project_physical, simulate_homodyne)

from conftest import random_physical_state

ANGLES12 = np.linspace(0.0, math.pi, 12, endpoint=False)


def moments_of(state, angles):
    ms, vs = [], []
    for t in angles:
        m, v = marginal(state, t)
        ms.append(m)
        vs.append(v)
    return ms, vs


class TestSimulateHomodyne:
    def test_vacuum_variances(self):
        data = simulate_homodyne(vacuum(), ANGLES12[:4], 100_000, 1.0, seed=1)
        for s in data.samples:
            se = 0.5 * math.sqrt(2 / (len(s) - 1))
            assert abs(s.var(ddof=1) - 0.5) < 5 * se

    def test_squeezed_axis(self):
        data = simulate_homodyne(squeezed_vacuum(0.5, 0.0), [0.0], 100_000,
                                 1.0, seed=2)
        s = data.samples[0]
        se = 0.25 * math.sqrt(2 / (len(s) - 1))
        assert abs(s.var(ddof=1) - 0.25) < 5 * se

    def test_full_loss_gives_vacuum(self):
        data = simulate_homodyne(thermal(3.0), ANGLES12[:3], 50_000, 0.0,
                                 seed=3)
        for s in data.samples:
            se = 0.5 * math.sqrt(2 / (len(s) - 1))
            assert abs(s.var(ddof=1) - 0.5) < 5 * se

    def test_validation(self):
        with pytest.raises(DomainError):
            simulate_homodyne(vacuum(), [0.0], per_angle=1)
        with pytest.raises(DomainError):
            HomodyneDataset(np.array([math.pi]), (np.zeros(10),))


class TestInputValidation:
    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64, 1.5])
    def test_simulate_homodyne_rejects_seed(self, seed):
        with pytest.raises(DomainError):
            simulate_homodyne(vacuum(), ANGLES12[:3], 100, seed=seed)

    @pytest.mark.parametrize("per_angle", [2.5, "10", True, 1])
    def test_simulate_homodyne_rejects_per_angle(self, per_angle):
        with pytest.raises(DomainError, match="per_angle"):
            simulate_homodyne(vacuum(), ANGLES12[:3], per_angle, seed=1)

    def test_caller_angles_stay_writable(self):
        # the dataset freezes a copy of the angles, never the caller's array
        angles = np.array(ANGLES12[:3])
        data = simulate_homodyne(vacuum(), angles, 10, seed=1)
        HomodyneDataset(angles, data.samples)
        assert angles.flags.writeable
        assert not data.angles.flags.writeable

    @pytest.mark.parametrize("theta", [math.inf, math.nan])
    def test_simulate_homodyne_rejects_non_finite_angle(self, theta):
        with pytest.raises(DomainError, match="non-finite"):
            simulate_homodyne(vacuum(), [0.0, theta, 1.0], 100, seed=1)

    @pytest.mark.parametrize("boot_seed", [-1, 2**63, 2**64])
    def test_estimate_covariance_rejects_boot_seed(self, boot_seed):
        data = simulate_homodyne(thermal(1.0), ANGLES12[:3], 100, seed=1)
        with pytest.raises(DomainError):
            estimate_covariance(data, boot_seed=boot_seed)

    def test_largest_seeds_accepted(self):
        data = simulate_homodyne(thermal(1.0), ANGLES12[:3], 100,
                                 seed=2**63 - 1)
        rec = estimate_covariance(data, n_boot=2, boot_seed=2**63 - 1)
        assert rec.member_cov.shape == (2, 3)

    @pytest.mark.parametrize("n_boot", [0, 1, -3, 2.0])
    def test_n_boot_invalid(self, n_boot):
        data = simulate_homodyne(squeezed_vacuum(0.5, 0.0), ANGLES12, 1000,
                                 seed=1)
        with pytest.raises(DomainError):
            estimate_covariance(data, n_boot=n_boot, boot_seed=2)

    def test_one_sample_per_angle(self):
        samples = tuple(np.array([0.1 * k]) for k in range(12))
        with pytest.raises(DomainError):
            HomodyneDataset(ANGLES12, samples)

    def test_sample_arrays_must_match_angles(self):
        data = simulate_homodyne(thermal(1.0), ANGLES12, 100, seed=1)
        with pytest.raises(DomainError):
            HomodyneDataset(ANGLES12, data.samples[:11])

    def test_non_finite_samples(self):
        data = simulate_homodyne(thermal(1.0), ANGLES12[:3], 100, seed=1)
        bad = (data.samples[0], np.append(data.samples[1], np.nan),
               data.samples[2])
        with pytest.raises(DomainError):
            HomodyneDataset(ANGLES12[:3], bad)


class TestEstimateCovariance:
    def test_noiseless_roundtrip(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            st = random_physical_state(rng)
            ms, vs = moments_of(st, ANGLES12)
            est = estimate_covariance_from_moments(ANGLES12, ms, vs)
            assert est.cov.vxx == pytest.approx(st.cov.vxx, abs=1e-12)
            assert est.cov.vpp == pytest.approx(st.cov.vpp, abs=1e-12)
            assert est.cov.vxp == pytest.approx(st.cov.vxp, abs=1e-12)
            assert est.mean.x == pytest.approx(st.mean.x, abs=1e-12)
            assert est.mean.p == pytest.approx(st.mean.p, abs=1e-12)

    def test_two_orthogonal_angles(self):
        st = squeezed_vacuum(0.5, 0.0)
        ms, vs = moments_of(st, [0.0, math.pi / 2])
        est = estimate_covariance_from_moments([0.0, math.pi / 2], ms, vs)
        assert est.cov.vxx == pytest.approx(0.25, abs=1e-12)
        assert est.cov.vxp == 0.0

    def test_two_orthogonal_angles_any_order(self):
        # orthogonality is a property of the two distinct angles, not of
        # angles[0] and angles[1], which may repeat one angle
        maps = _angle_maps(np.array([math.pi / 2, 0.0, 0.0]))
        repeated = _angle_maps(np.array([0.0, 0.0, math.pi / 2]))
        for a, b in zip(repeated, maps):
            np.testing.assert_allclose(a, b[:, [1, 2, 0]], rtol=0, atol=1e-15)
        angles = [0.0, 0.0, math.pi / 2]
        data = simulate_homodyne(squeezed_vacuum(0.5, 0.0), angles, 2_000,
                                 seed=3)
        rec = estimate_covariance(data, n_boot=8, boot_seed=4)
        assert rec.raw_cov[2] == 0.0
        assert rec.raw_cov[0] == pytest.approx(0.25, rel=0.1)
        assert (rec.member_cov[:, 2] == 0.0).all()

    def test_identifiability_errors(self):
        st = thermal(1.0)
        ms, vs = moments_of(st, [0.0])
        with pytest.raises(IdentifiabilityError):
            estimate_covariance_from_moments([0.0], ms, vs)
        ms, vs = moments_of(st, [0.2, 0.9])
        with pytest.raises(IdentifiabilityError):
            estimate_covariance_from_moments([0.2, 0.9], ms, vs)

    def test_statistical_recovery(self):
        st = squeezed_vacuum(0.5, 0.0)
        data = simulate_homodyne(st, ANGLES12, 100_000, 1.0, seed=5)
        rec = estimate_covariance(data, boot_seed=6)
        # 1% at 3 sigma for vxx = 0.25
        assert abs(rec.raw_cov[0] - 0.25) < 0.25 * 0.01
        assert abs(rec.raw_cov[1] - 1.0) < 1.0 * 0.01
        assert abs(rec.raw_cov[2]) < 0.01

    def test_error_shrinks_as_sqrt_n(self):
        st = squeezed_vacuum(0.5, 0.0)
        sizes = (1_000, 10_000, 100_000)
        errs = []
        for n in sizes:
            devs = []
            for rep in range(8):
                data = simulate_homodyne(st, ANGLES12, n, 1.0,
                                         seed=1000 * rep + n)
                rec = estimate_covariance(data, n_boot=2, boot_seed=1)
                devs.append(abs(rec.raw_cov[0] - 0.25))
            errs.append(np.mean(devs))
        slope = (math.log(errs[2]) - math.log(errs[0])) / \
            (math.log(sizes[2]) - math.log(sizes[0]))
        assert -0.6 < slope < -0.4

    def test_projection_restores_physicality(self):
        cov = project_physical(0.2, 0.3, 0.0)  # det < 1/4
        assert cov.det == pytest.approx(0.25, abs=1e-12)
        cov = project_physical(1.0, 1.0, 0.0)  # already physical
        assert cov.vxx == pytest.approx(1.0)

    def test_projection_of_indefinite_estimate(self):
        # eigenvalues (-10.5, 184.2): the negative one becomes 1/(4 * 184.2),
        # not a common rescaling of a clipped 1e-12 (det 0.248 before)
        w_max = np.linalg.eigvalsh([[81.306, 97.203], [97.203, 92.427]])[1]
        cov = project_physical(81.306, 92.427, 97.203)
        w = np.linalg.eigvalsh(cov.matrix())
        assert w[1] == pytest.approx(w_max, rel=1e-12)
        assert w[0] == pytest.approx(0.25 / w_max, rel=1e-9)
        assert cov.det == pytest.approx(0.25, rel=1e-10)
        assert project_physical(-1.0, -2.0, 0.5) == CovarianceMatrix(0.5, 0.5, 0.0)

    def test_projection_continuous_at_zero_principal_variance(self):
        # det 2e-13 (positive definite) and det -2e-13 (indefinite) lie on
        # either side of w0 = 0; both become principal variances 1/8 and 2
        below = project_physical(1.0, 1.0, 1.0 - 1e-13)
        above = project_physical(1.0, 1.0, 1.0 + 1e-13)
        assert np.allclose(below.matrix(), above.matrix(), rtol=0, atol=1e-6)
        for cov in (below, above, project_physical(0.2, 0.3, 0.0),
                    project_physical(0.4, 0.4, 0.3)):
            w = np.linalg.eigvalsh(cov.matrix())
            assert w[0] * w[1] >= 0.25 * (1 - 1e-12)
            slack = 8 * np.finfo(float).eps * (cov.vxx * cov.vpp + cov.vxp ** 2)
            assert cov.det >= 0.25 - slack
        assert np.linalg.eigvalsh(below.matrix()) == pytest.approx([0.125, 2.0])
        assert project_physical(1.0, 2.0, 0.3) == CovarianceMatrix(1.0, 2.0, 0.3)

    def test_projection_of_equal_principal_variances_keeps_axes(self):
        # principal variances equal within round-off, far below vacuum:
        # eigh's eigenbasis is arbitrary there, and a rotated one left
        # vxx vpp - vxp^2 below round-off ("not positive definite")
        neighbour = project_physical(3.144375419407732e-33,
                                     3.144375419407733e-33,
                                     -1.7105694144590052e-49)
        cov = project_physical(3.1443754194077314e-33, 3.144375419407733e-33,
                               -4.276423536147513e-49)
        assert cov == neighbour
        assert cov.vxp == 0.0 and cov.det == pytest.approx(0.25, rel=1e-15)
        assert cov.vpp == pytest.approx(3.144375419407733e-33, rel=1e-15)

    @pytest.mark.parametrize("vxx, vpp, vxp", [
        (1e-33, 2e-33, 3e-34), (1e-12, 2e-12, 3e-13), (1e-300, 2e-300, 3e-301)])
    def test_projection_refuses_unrepresentable_det(self, vxx, vpp, vxp):
        # the raised principal variance 1/(4 w1) in a rotated frame makes
        # vxx vpp + vxp^2 so large that det V = 1/4 is lost to round-off
        # (the first returned det 1.8e47, the second raised from
        # CovarianceMatrix, the third overflows vxx vpp)
        with pytest.raises(DomainError, match="project_physical"):
            project_physical(vxx, vpp, vxp)

    def test_projection_det_held_or_refused(self):
        # every entry triple on a 1e-3 grid in [-0.012, 0.012]: a
        # projection returns det V = 1/4 to about 1e-9 relative, both as
        # computed and exactly in its three doubles, or raises
        refused = 0
        for vxx, vpp, vxp in itertools.product(range(-12, 13), repeat=3):
            entries = (vxx / 1000, vpp / 1000, vxp / 1000)
            try:
                cov = project_physical(*entries)
            except DomainError:
                refused += 1
                continue
            if (cov.vxx, cov.vpp, cov.vxp) == entries:
                continue  # physical, returned unchanged
            exact = (Fraction(cov.vxx) * Fraction(cov.vpp)
                     - Fraction(cov.vxp) ** 2)
            assert cov.det == pytest.approx(0.25, rel=2e-9), entries
            assert float(exact) == pytest.approx(0.25, rel=2e-9), entries
        assert 0 < refused < 200

    @settings(max_examples=300, deadline=None)
    @given(entries=st.tuples(*[st.integers(-100_000, 100_000)] * 3))
    def test_projection_is_physical(self, entries):
        # entries on a 1e-3 grid in [-100, 100]; det of the stored matrix
        # is known only to a few ulps of |vxx vpp| + vxp^2, which an
        # elongated rotated result makes larger than 1e-12 / 4
        vxx, vpp, vxp = (k / 1000 for k in entries)
        cov = project_physical(vxx, vpp, vxp)
        slack = 8 * np.finfo(float).eps * (cov.vxx * cov.vpp + cov.vxp ** 2)
        assert cov.vxx > 0 and cov.vpp > 0 and cov.det > 0
        assert cov.det >= 0.25 * (1 - 1e-12) - slack
        w_in = np.linalg.eigvalsh([[vxx, vxp], [vxp, vpp]])
        if w_in[0] < 0.0 and w_in[1] > 1e-9:
            # indefinite (on this grid, w > 1e-9 is not round-off): the
            # positive principal variance w stays, the other becomes 1/(4w)
            w_out = np.linalg.eigvalsh(cov.matrix())
            assert w_out[1] == pytest.approx(max(w_in[1], 0.25 / w_in[1]),
                                             rel=1e-9)


class TestMomentSpaceBootstrap:
    def test_member_law(self):
        # skewed samples make the (mean, variance) covariance mu3/n
        # nonzero; at n = 20 the factor (n - 3)/(n - 1) moves Sigma22 of
        # uniform samples by about 13%, and their low kurtosis keeps every
        # member's variance positive
        rng = np.random.default_rng(61)
        self._check_member_law(
            (rng.exponential(1.0, 400), rng.uniform(-1.0, 2.0, 20)), 62)

    @pytest.mark.parametrize("draw", [
        lambda rng, n: rng.normal(0.3, 2.0, n),
        lambda rng, n: rng.standard_t(5, n),
        lambda rng, n: rng.lognormal(0.0, 0.5, n),
        lambda rng, n: (rng.random(n) < 0.3).astype(float),
    ], ids=["normal", "student_t5", "lognormal", "two_point"])
    def test_member_law_by_distribution(self, draw):
        # heavy tails (large mu4) and lattice values (a two-point law,
        # the edge of Sigma's positivity) at 400 and 2000 samples
        rng = np.random.default_rng(63)
        self._check_member_law((draw(rng, 400), draw(rng, 2000)), 64)

    @staticmethod
    def _check_member_law(samples, boot_seed):
        # with two orthogonal angles each member's (mx, mp, vxx, vpp) is
        # its (mean, variance) pair at angle 0 and at pi/2
        data = HomodyneDataset(np.array([0.0, math.pi / 2]), samples)
        B = 20_000
        rec = estimate_covariance(data, n_boot=B, boot_seed=boot_seed)
        members = np.column_stack((rec.member_mean, rec.member_cov[:, :2]))
        for k, x in enumerate(samples):
            n, m, v = len(x), x.mean(), x.var(ddof=1)
            mu3 = np.mean((x - m) ** 3)
            mu4 = np.mean((x - m) ** 4)
            sigma = np.array([[v, mu3],
                              [mu3, mu4 - v * v * (n - 3) / (n - 1)]]) / n
            draws = members[:, [k, k + 2]]
            se_mean = np.sqrt(np.diag(sigma) / B)
            assert np.all(np.abs(draws.mean(axis=0) - [m, v]) < 5 * se_mean)
            # a sample covariance entry of B normal pairs has variance
            # (S_ij^2 + S_ii S_jj) / B
            cov = np.cov(draws.T)
            se_cov = np.sqrt((sigma ** 2 + np.outer(np.diag(sigma),
                                                    np.diag(sigma))) / B)
            assert np.all(np.abs(cov - sigma) < 5 * se_cov)

    def test_interval_width_matches_nonparametric_bootstrap(self):
        # the moment-space law is the large-n limit of resampling the n
        # values of each angle
        data = simulate_homodyne(squeezed_vacuum(0.5, 0.0), ANGLES12, 2000,
                                 seed=3)
        g = g2_from_reconstruction(estimate_covariance(data, n_boot=400,
                                                       boot_seed=4))
        rng = np.random.default_rng(5)
        shape = (len(ANGLES12), 400)
        means, variances = np.empty(shape), np.empty(shape)
        for k, x in enumerate(data.samples):
            for b in range(shape[1]):
                y = x[rng.integers(0, len(x), len(x))]
                means[k, b], variances[k, b] = y.mean(), y.var(ddof=1)
        cov_map, mean_map = _angle_maps(ANGLES12)
        vxx, vpp, vxp = cov_map @ variances
        mx, mp = mean_map @ means
        values = [g2_gaussian(GaussianState(PhasePoint(*mean),
                                            CovarianceMatrix(*cov))).value
                  for *cov, mean in zip(vxx, vpp, vxp, zip(mx, mp))]
        lo, hi = np.percentile(values, [2.5, 97.5])
        assert (g.ci_high - g.ci_low) / (hi - lo) == pytest.approx(1.0,
                                                                  abs=0.15)

    @pytest.mark.parametrize("value", [0.0, 0.3])
    def test_constant_samples_give_guarded_members(self, value):
        # v = 0 at every angle (up to the round-off of a mean of 0.3s): no
        # member is NaN, and every one is guarded, as not valid or near
        # vacuum
        samples = tuple(np.full(50, value) for _ in ANGLES12)
        data = HomodyneDataset(ANGLES12, samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = estimate_covariance(data, n_boot=20, boot_seed=1)
            assert np.isfinite(rec.member_cov).all()
            with pytest.raises(UnstableInferenceError, match="20/20"):
                g2_from_reconstruction(rec)
        if value == 0.0:
            assert not rec.valid.any()

    def test_one_constant_angle_gives_finite_members(self):
        full = simulate_homodyne(thermal(1.0), ANGLES12, 500, seed=7)
        samples = (np.zeros(500),) + full.samples[1:]
        data = HomodyneDataset(ANGLES12, samples)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = estimate_covariance(data, n_boot=50, boot_seed=8)
        assert np.isfinite(rec.member_cov).all()
        assert np.isfinite(rec.member_mean).all()

    def test_golden_values(self):
        # pin both counter-RNG streams: the samples of simulate_homodyne
        # (angle 1 starts at stream index ceil(1001/2) = 501) and the
        # bootstrap members
        data = simulate_homodyne(squeezed_vacuum(0.5, 0.3), ANGLES12[:3],
                                 1001, 0.8, seed=31)
        assert data.samples[0][:4].tolist() == pytest.approx(
            [0.8528658542063801, 0.12045244911567356, 0.5084958547053907,
             -0.09528534797841165], rel=1e-12)
        assert data.samples[1][0] == pytest.approx(-0.38792104111370906,
                                                   rel=1e-12)
        rec = estimate_covariance(data, n_boot=5, boot_seed=32)
        golden = [
            (0.34240810276797906, 0.8624892137577135, -0.16735335749355126,
             -0.027674503558961068, 0.04119920203273359),
            (0.3340553999238825, 0.706764316125424, -0.11794668411479253,
             -0.021129808941049995, 0.07318320344189704),
            (0.3240476296161922, 0.6287300310157677, -0.055511456142776965,
             -0.009872301974335045, -0.06317360006513452),
        ]
        members = np.hstack((rec.member_cov, rec.member_mean)).tolist()
        for got, want in zip(members, golden):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 2**63 - 7920])
    def test_normal_pairs(self, seed):
        # standard normals, the pair uncorrelated, and angle k + 1's
        # members (stream indices b K + k + 1) uncorrelated with angle k's
        N, K = 100_000, 2
        z1, z2 = normal_pairs(seed, np.arange(N * K), MEMBER_DRAWS)
        (a1, b1), (a2, _) = z1.reshape(N, K).T, z2.reshape(N, K).T
        for z in (a1, a2):
            assert abs(z.mean()) < 5 / math.sqrt(N)
            assert abs(z.var() - 1.0) < 5 * math.sqrt(2 / N)
        for a, b in ((a1, a2), (a1, b1)):
            assert abs(np.corrcoef(a, b)[0, 1]) < 5 / math.sqrt(N)

    def test_independent_of_blas_threads(self):
        # the moments are einsum sums, not BLAS products
        script = (
            "import hashlib\n"
            "from wigg2.states import thermal\n"
            "from wigg2.tomography import estimate_covariance, "
            "simulate_homodyne\n"
            "rec = estimate_covariance(simulate_homodyne(thermal(1.0), "
            "per_angle=100_000, seed=8), boot_seed=21)\n"
            "print(hashlib.sha256(repr(rec).encode()).hexdigest())\n")
        src = str(Path(tomography.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            path = filter(None, [src, os.environ.get("PYTHONPATH")])
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(path))
            out = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=300,
                                 check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1


# Independent references for the two counter-RNG streams, one stream
# index at a time in Python floats (the uniforms from the Python-int
# path of `kernels`, itself checked against an oracle in test_kernels),
# and for the (mean, variance) law of a sample, built from Sigma of the
# module docstring with its moments summed exactly (math.fsum).
def _pair_oracle(seed, i, draw):
    """(z1, z2, tries): the polar-method pair of stream index i from draw
    number `draw` on, and how many (x, y) it tried."""
    for j in itertools.count():
        x, y = (2.0 * kernels._uniform(seed, i, draw + 2 * j + r) - 1.0
                for r in (0, 1))
        s = x * x + y * y
        if 0.0 < s < 1.0:
            f = math.sqrt(-2.0 * math.log(s) / s)
            return x * f, y * f, j + 1


def _law_oracle(x):
    """(m, v, l11, l21, l22): the sample's mean and unbiased variance and
    the Cholesky factor of Sigma, its remainder clamped at 0."""
    x = x.tolist()
    n = len(x)
    m = math.fsum(x) / n
    d = [xi - m for xi in x]
    v = math.fsum(di * di for di in d) / (n - 1)
    mu3 = math.fsum(di ** 3 for di in d) / n
    mu4 = math.fsum(di ** 4 for di in d) / n
    l11 = math.sqrt(v / n)
    l21 = mu3 / n / l11
    s22 = (mu4 - v * v * (n - 3) / (n - 1)) / n
    return m, v, l11, l21, math.sqrt(max(s22 - l21 * l21, 0.0))


@functools.lru_cache(maxsize=None)
def _oracle_data(n):
    """A skewed and a flat sample of n values, at angles 0 and pi/2, and
    their oracle laws."""
    rng = np.random.default_rng(n)
    samples = (rng.exponential(1.0, n) + 0.5, rng.uniform(-1.0, 2.0, n))
    data = HomodyneDataset(np.array([0.0, math.pi / 2]), samples)
    return data, [_law_oracle(x) for x in samples]


class TestStreamOracles:
    @pytest.mark.parametrize("n", [2, 3, 4, 17, 1000, 100_000])
    @pytest.mark.parametrize("boot_seed", [0, 7, 2**63 - 1])
    @pytest.mark.parametrize("n_boot", [2, 200])
    def test_members_match_oracle(self, n_boot, boot_seed, n):
        # member b of angle k draws its pair at stream index b K + k under
        # boot_seed, K = 2 angles; n = 2 and 3 make the factor
        # (n - 3)/(n - 1) of Sigma22 negative and 0; with two orthogonal
        # angles a member's (mx, vxx) and (mp, vpp) are its (mean,
        # variance) at angle 0 and at pi/2, and a member with a variance
        # <= 0 is not valid
        data, laws = _oracle_data(n)
        rec = estimate_covariance(data, n_boot=n_boot, boot_seed=boot_seed)
        assert rec.member_cov.shape == (n_boot, 3)
        assert rec.member_mean.shape == (n_boot, 2)
        tries = set()
        for b in range(n_boot):
            want = []
            for k, (m, v, l11, l21, l22) in enumerate(laws):
                z1, z2, t = _pair_oracle(boot_seed, 2 * b + k, MEMBER_DRAWS)
                want.append((m + l11 * z1, v + l21 * z1 + l22 * z2))
                tries.add(t)
            (mx, vxx), (mp, vpp) = want
            assert rec.valid[b] == (min(vxx, vpp) > 0.0)
            got = (*rec.member_mean[b], *rec.member_cov[b])
            assert got == pytest.approx((mx, mp, vxx, vpp, 0.0), rel=1e-9,
                                        abs=1e-12)
        if n_boot == 200:
            # the 400 pairs checked include retried ones
            assert {1, 2, 3} <= tries

    @pytest.mark.parametrize("per_angle", [2, 3, 4, 17, 1001, 1002])
    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
    def test_samples_match_oracle(self, seed, per_angle):
        # angle k: the x's, then the y's, of the pairs at stream indices
        # k h .. k h + h - 1, h = ceil(per_angle/2), cut to per_angle (an
        # odd count drops the last y)
        state = displace(squeezed_vacuum(0.4, 0.3), 0.7, -0.4)
        data = simulate_homodyne(state, ANGLES12[:3], per_angle, 0.8,
                                 seed=seed)
        h = (per_angle + 1) // 2
        tries = set()
        for k, theta in enumerate(ANGLES12[:3]):
            m, v = marginal(attenuate(state, 0.8), theta)
            xs, ys, t = zip(*(_pair_oracle(seed, k * h + i, SAMPLE_DRAWS)
                              for i in range(h)))
            tries.update(t)
            want = [m + math.sqrt(v) * z for z in (xs + ys)[:per_angle]]
            assert data.samples[k].tolist() == pytest.approx(
                want, rel=1e-12, abs=1e-12)
        if per_angle > 1000:
            assert {1, 2, 3} <= tries

    @pytest.mark.parametrize("draw", [0, SAMPLE_DRAWS, MEMBER_DRAWS])
    @pytest.mark.parametrize("seed", [0, 2**63 - 1])
    def test_pairs_match_oracle(self, seed, draw):
        # 3000 stream indices from 2^40 on, drawn by the first pass and by
        # the recursion on the indices it rejected, up to pairs that took
        # 4 tries
        idx = np.arange(2**40, 2**40 + 3000)
        z = normal_pairs(seed, idx, draw)
        want = [_pair_oracle(seed, i, draw) for i in idx.tolist()]
        assert z.T.ravel().tolist() == pytest.approx(
            [c for w in want for c in w[:2]], rel=1e-12, abs=1e-15)
        assert {1, 2, 3, 4} <= {w[2] for w in want}

    @pytest.mark.parametrize("state, eta", [
        (vacuum(), 1.0), (thermal(2.0), 0.7),
        (displace(squeezed_vacuum(0.8, 0.4), 1.5, -0.5), 0.9),
        (coherent(-2.0, 1.0), 0.5)],
        ids=["vacuum", "thermal", "displaced_squeezed", "coherent"])
    def test_sample_moments_match_marginal(self, state, eta):
        n = 20_000
        data = simulate_homodyne(state, ANGLES12, n, eta, seed=17)
        for theta, x in zip(ANGLES12, data.samples):
            m, v = marginal(attenuate(state, eta), theta)
            assert abs(x.mean() - m) < 5 * math.sqrt(v / n)
            assert abs(x.var(ddof=1) - v) < 5 * v * math.sqrt(2 / n)


class TestNormalPairStreams:
    # N pairs each: a correlation of independent normals is about
    # N(0, 1/N)
    N = 200_000
    SEEDS = [0, 7, 2**63 - 7920]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adjacent_members_uncorrelated(self, seed):
        # an angle's samples sit at adjacent stream indices
        for z in normal_pairs(seed, np.arange(self.N + 1)):
            assert abs(np.corrcoef(z[:-1], z[1:])[0, 1]) < \
                5 / math.sqrt(self.N)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_normal_law(self, seed):
        # chi^2 of Phi(z) over 20 equiprobable bins, and the mass beyond
        # |z| = 4 (s >= 2^-104 caps |z| at sqrt(-2 ln s), near 12.0)
        for z in normal_pairs(seed, np.arange(self.N)):
            phi = 0.5 + 0.5 * np.array([math.erf(t) for t in
                                        (z / math.sqrt(2.0)).tolist()])
            counts = np.bincount(np.minimum((phi * 20).astype(int), 19),
                                 minlength=20)
            expected = self.N / 20
            # 50.80: the 0.9999 quantile of chi^2 with 19 dof
            assert np.sum((counts - expected) ** 2 / expected) < 50.80
            tail = self.N * math.erfc(4.0 / math.sqrt(2.0))
            assert abs(np.count_nonzero(np.abs(z) > 4.0) - tail) < \
                5 * math.sqrt(tail)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_angle_streams_uncorrelated(self, seed):
        # member b of angle k of a 12-angle reconstruction draws at
        # stream index 12 b + k
        n = 50_000
        z = normal_pairs(seed, np.arange(12 * n), MEMBER_DRAWS)
        z = z.reshape(2, n, 12).swapaxes(1, 2).reshape(24, n)
        corr = np.corrcoef(z)[np.triu_indices(24, 1)]
        assert np.all(np.abs(corr) < 5 / math.sqrt(n))


class TestStreamLayout:
    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 1])
    def test_chunk_boundaries(self, n):
        # a pair depends only on (seed, i, draw): a call, the same indices
        # split in two or permuted, and a longer call agree exactly
        seed = 11
        idx = np.arange(5, 5 + n)
        z = normal_pairs(seed, idx, SAMPLE_DRAWS)
        longer = normal_pairs(seed, np.arange(5, 5 + 2 * CHUNK + 3),
                               SAMPLE_DRAWS)
        assert np.array_equal(z, longer[:, :n])
        for cut in (1, CHUNK - 1, n - 1):
            parts = [normal_pairs(seed, part, SAMPLE_DRAWS)
                     for part in (idx[:cut], idx[cut:])]
            assert np.array_equal(np.concatenate(parts, axis=1), z)
        perm = np.random.default_rng(n).permutation(n)
        assert np.array_equal(normal_pairs(seed, idx[perm], SAMPLE_DRAWS),
                              z[:, perm])

    @pytest.mark.parametrize("h", [3, CHUNK - 1, CHUNK + 1])
    def test_rows(self, h):
        # a (rows, h) call gives each row's pairs as a 1-D call would, its
        # x's then its y's, whichever rows their retries came from
        idx = np.arange(7, 7 + 3 * h).reshape(3, h)
        z = normal_pairs(13, idx, MEMBER_DRAWS)
        assert z.shape == (3, 2, h)
        for row, zr in zip(idx, z):
            assert np.array_equal(zr, normal_pairs(13, row, MEMBER_DRAWS))

    def test_members_do_not_depend_on_n_boot(self):
        # member b draws at stream indices b K .. b K + K - 1 whatever
        # n_boot, and each of its fitted values is a dot of a fixed map
        # with its own moments: the values agree bit for bit
        data = simulate_homodyne(thermal(1.0), ANGLES12, 500, seed=5)
        few = estimate_covariance(data, n_boot=2, boot_seed=6)
        many = estimate_covariance(data, n_boot=200, boot_seed=6)
        assert few.state == many.state and few.raw_cov == many.raw_cov
        assert np.array_equal(few.member_cov, many.member_cov[:2])
        assert np.array_equal(few.member_mean, many.member_mean[:2])


def _state_or_none(vxx, vpp, vxp, mx, mp):
    # a member as PhasePoint and CovarianceMatrix judge it, one at a time:
    # the oracle of the member arrays
    try:
        return GaussianState(PhasePoint(mx, mp),
                             CovarianceMatrix(vxx, vpp, vxp))
    except DomainError:
        return None


def _member_rec(state, seed):
    data = simulate_homodyne(state, ANGLES12[:5], 300, seed=seed)
    return estimate_covariance(data, n_boot=200, boot_seed=seed)


# a reconstruction whose members are all valid, some near vacuum; and one
# with 3 members that are no state and 93 near vacuum, 104 left for the CI
MEMBER_CASES = [(squeezed_vacuum(0.5, 0.3), 0), (thermal(0.05), 2)]


class TestMemberArrays:
    # entries at the edges of CovarianceMatrix's checks: zero of both
    # signs, the smallest subnormal, squares that underflow or overflow,
    # and the non-finite values
    EDGE = [0.0, -0.0, -0.1, 5e-324, 0.5, 1e-160, 1e160, 1.7e308, math.inf,
            -math.inf, math.nan]

    def test_positive_definite_matches_oracle(self):
        # the one predicate of CovarianceMatrix (on floats) and of the
        # member arrays (under estimate_covariance's errstate)
        cov = np.array(list(itertools.product(self.EDGE, repeat=3)))
        want = [_state_or_none(*c, 0.0, 0.0) is not None
                for c in cov.tolist()]
        assert 0 < sum(want) < len(want)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [bool(_positive_definite(*c))
                    for c in cov.tolist()] == want
            with np.errstate(over="ignore", invalid="ignore"):
                assert _positive_definite(*cov.T).tolist() == want

    @pytest.mark.parametrize("state, seed", MEMBER_CASES)
    def test_states_match_state_oracle(self, state, seed):
        # bootstrap_states[b] is None exactly where valid[b] is False
        rec = _member_rec(state, seed)
        oracle = tuple(_state_or_none(*c, *m) for c, m in zip(
            rec.member_cov.tolist(), rec.member_mean.tolist()))
        assert rec.valid.tolist() == [o is not None for o in oracle]
        assert rec.bootstrap_states == oracle
        for a in (rec.member_cov, rec.member_mean, rec.valid):
            assert not a.flags.writeable

    @pytest.mark.parametrize("state, seed", MEMBER_CASES)
    def test_member_g2_matches_g2_gaussian(self, state, seed):
        rec = _member_rec(state, seed)
        g2, n, near = g2_rows(*rec.member_mean[rec.valid].T,
                              *rec.member_cov[rec.valid].T)
        states = [bs for bs in rec.bootstrap_states if bs is not None]
        assert near.any() and not near.all()
        for value, guarded, bs in zip(g2, near, states):
            if guarded:
                with pytest.raises(NearVacuumError):
                    g2_gaussian(bs)
            else:
                assert value == g2_gaussian(bs).value

    @pytest.mark.parametrize("state, seed", MEMBER_CASES)
    def test_interval_matches_member_loop(self, state, seed):
        rec = _member_rec(state, seed)
        values = []
        for bs in rec.bootstrap_states:
            if bs is not None:
                try:
                    values.append(g2_gaussian(bs).value)
                except NearVacuumError:
                    pass
        g = g2_from_reconstruction(rec)
        assert g.n_guarded == 200 - len(values)
        assert [g.ci_low, g.ci_high] == np.percentile(values,
                                                      [2.5, 97.5]).tolist()
        point = GaussianState(rec.state.mean, CovarianceMatrix(*rec.raw_cov))
        assert g.value == g2_gaussian(point).value

    def _rec(self, raw_cov, mean):
        # three valid members of g2 2, and a point estimate set by hand
        members = np.array([[1.0, 1.0, 0.0]] * 3)
        return ReconstructionResult(
            GaussianState(PhasePoint(*mean), project_physical(*raw_cov)),
            raw_cov, members, np.zeros((3, 2)), np.ones(3, dtype=bool))

    def test_point_estimate_that_is_no_state_is_projected(self):
        rec = self._rec((0.3, -0.1, 0.0), (1.0, 0.0))
        assert g2_from_reconstruction(rec).value == \
            g2_gaussian(rec.state).value

    def test_near_vacuum_point_estimate_raises(self):
        # a raw point estimate below the guard is not projected
        rec = self._rec((0.5, 0.5 - 1e-12, 0.0), (0.0, 0.0))
        with pytest.raises(NearVacuumError):
            g2_from_reconstruction(rec)


class TestArmsShareNoDraws:
    # `homodyne --reconstruct` bootstraps under the data's own seed, and
    # row 0 of hwp_sweep gives its HBT counts, samples and bootstrap the
    # same seed; bootstrap_g2_clicks may resample a record under its own
    # seed too

    def test_keys_disjoint_under_one_seed(self, monkeypatch):
        # a uniform is the finaliser of i phi + key, so arms with no key
        # in common share no uniform at the stream indices a run uses
        seed = 12
        used = []
        key = kernels._key

        def recording_key(s, draw):
            used[-1].add(key(s, draw))
            return key(s, draw)

        monkeypatch.setattr(kernels, "_key", recording_key)
        state = squeezed_vacuum(0.4, 0.2)
        used.append(set())
        rec = simulate_hbt(state, CountingConfig(n_windows=10_000, seed=seed))
        used.append(set())
        bootstrap_g2_clicks(rec, n_boot=50, seed=seed)
        used.append(set())
        data = simulate_homodyne(state, ANGLES12, 1001, seed=seed)
        used.append(set())
        estimate_covariance(data, n_boot=200, boot_seed=seed)
        assert all(used)
        for a, b in itertools.combinations(used, 2):
            assert not a & b

    def test_members_independent_of_samples(self):
        # with two orthogonal angles member b's mean at angle 0 is
        # m + l11 z1: its z1 must not follow the data's own normals
        seed, B = 3, 2000
        data = simulate_homodyne(vacuum(), [0.0, math.pi / 2], 2 * B,
                                 seed=seed)
        rec = estimate_covariance(data, n_boot=B, boot_seed=seed)
        x = data.samples[0]
        m, l11 = x.mean(), math.sqrt(x.var(ddof=1) / len(x))
        z_members = (rec.member_mean[:, 0] - m) / l11
        z_samples = x[:B] / math.sqrt(0.5)
        assert abs(np.corrcoef(z_members, z_samples)[0, 1]) < 5 / math.sqrt(B)


class TestMomentLaw:
    @pytest.mark.parametrize("x", [
        [0, 1], [0, 0, 3], [1, 2, 3, 4], [-2, 0, 0, 0, 5], [1] * 7 + [10],
        [0, 1] * 50, [3] * 7])
    def test_cholesky_of_exact_sigma(self, x):
        # Sigma of the module docstring in exact rationals
        n = len(x)
        m = Fraction(sum(x), n)
        d = [xi - m for xi in x]
        v = sum(di ** 2 for di in d) / (n - 1)
        mu3 = sum(di ** 3 for di in d) / n
        mu4 = sum(di ** 4 for di in d) / n
        sigma = (v / n, mu3 / n, (mu4 - v * v * Fraction(n - 3, n - 1)) / n)
        gm, gv, l11, l21, l22 = tomography._moment_law(np.array(x, float))
        assert (gm, gv) == pytest.approx((float(m), float(v)), rel=1e-14)
        assert (l11 * l11, l11 * l21, l21 * l21 + l22 * l22) == \
            pytest.approx(tuple(map(float, sigma)), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("a", [-2.0, 0.5, 1e3])
    @pytest.mark.parametrize("c", [0.0, 1e3])
    def test_affine_equivariance(self, a, c):
        # x -> a x + c: m -> a m + c, v -> a^2 v, mu3 -> a^3 mu3, so
        # l11 -> |a| l11, l21 -> a |a| l21 and l22 -> a^2 l22
        x = np.random.default_rng(9).exponential(1.0, 500)
        m, v, l11, l21, l22 = tomography._moment_law(x)
        assert tomography._moment_law(a * x + c) == pytest.approx(
            (a * m + c, a * a * v, abs(a) * l11, a * abs(a) * l21,
             a * a * l22), rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_no_power_of_x_overflows(self, scale):
        # mu4 of these samples is out of double range; the standardised
        # moments are not
        x = np.random.default_rng(10).exponential(1.0, 500)
        m, v, l11, l21, l22 = tomography._moment_law(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tomography._moment_law(scale * x)
        assert got == pytest.approx(
            (scale * m, scale ** 2 * v, scale * l11, scale ** 2 * l21,
             scale ** 2 * l22), rel=1e-12)


class TestG2FromReconstruction:
    def test_thermal_pipeline_value(self):
        # g2 = 2 is the boundary of the centered-Gaussian range (any
        # estimated anisotropy pushes it up), so check closeness rather
        # than CI containment
        st = thermal(0.5)
        data = simulate_homodyne(st, ANGLES12, 100_000, 1.0, seed=7)
        rec = estimate_covariance(data, boot_seed=8)
        g = g2_from_reconstruction(rec)
        assert abs(g.value - 2.0) < 1e-3
        assert g.ci_high - 2.0 < 1e-3

    def test_squeezed_pipeline_ci(self):
        st = squeezed_vacuum_with_mean_photon(0.25)
        data = simulate_homodyne(st, ANGLES12, 100_000, 1.0, seed=9)
        rec = estimate_covariance(data, boot_seed=10)
        g = g2_from_reconstruction(rec)
        assert g.ci_low <= 7.0 <= g.ci_high

    def test_near_vacuum_pathology(self):
        # <n> = 0.001 with eta_hd = 0.9: unstable error or very wide CI
        st = squeezed_vacuum_with_mean_photon(0.001)
        data = simulate_homodyne(st, ANGLES12, 20_000, 0.9, seed=11)
        rec = estimate_covariance(data, boot_seed=12)
        try:
            g = g2_from_reconstruction(rec)
            assert (g.ci_high - g.ci_low) > 0.5 * abs(g.value)
        except UnstableInferenceError:
            pass


class TestHwpSweep:
    def test_sweep_columns(self):
        r = 0.3
        cfg = CountingConfig(n_windows=300_000, seed=21)
        rows = hwp_sweep(r, [0.0, 22.5], cfg, per_angle=20_000, seed=22)
        assert rows[0].g2_analytic == pytest.approx(2.0, rel=1e-12)
        assert rows[1].g2_analytic == pytest.approx(
            3 + 1 / math.sinh(r) ** 2, rel=1e-12)
        # reconstructed variances at 22.5 deg
        assert rows[1].vx == pytest.approx(math.exp(-2 * r) / 2, rel=0.05)
        assert rows[1].vp == pytest.approx(math.exp(2 * r) / 2, rel=0.05)
        # direct counting statistically compatible at theta = 0 (thermal)
        assert abs(rows[0].g2_direct - 2.0) < 4 * rows[0].g2_direct_err


    def test_row_seeds_wrap_into_range(self):
        # row 1 derives counting seed big + 1_000_003, beyond 2^63; it
        # must wrap to (big + 1_000_003) mod 2^63 instead of failing
        big = 2**63 - 1000
        cfg = CountingConfig(n_windows=20_000, seed=big)
        rows = hwp_sweep(0.4, [0.0, 22.5], cfg, per_angle=500, seed=big)
        state = reduce_mode(hwp_mix(two_mode_squeezed_vacuum(0.4), 22.5), 1)
        rec = simulate_hbt(state, CountingConfig(
            n_windows=20_000, seed=(big + 1_000_003) % 2**63))
        assert (rows[1].g2_direct, rows[1].g2_direct_err) == \
            g2_estimate_clicks(rec)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            hwp_sweep(0.4, [0.0], CountingConfig(n_windows=100), seed=-1)

    def test_near_vacuum_point_estimate_gives_nan_columns(self):
        # <n> = 4e-4 from 100 samples an angle: the raw point estimate
        # has n < 0, while most members pass the guard
        rows = hwp_sweep(0.02, [0.0], CountingConfig(n_windows=100_000),
                         per_angle=100, seed=9)
        row = rows[0]
        assert math.isnan(row.g2_homodyne)
        assert math.isnan(row.g2_ci_low) and math.isnan(row.g2_ci_high)
        assert math.isfinite(row.g2_analytic) and row.vx > 0.0


class TestFitSweepModel:
    def test_exact_analytic_sweep(self):
        r = 0.3
        pts = [(t, 2 + math.sin(math.radians(4 * t)) ** 2 *
                (1 + 1 / math.sinh(r) ** 2))
               for t in np.linspace(0.0, 45.0, 10)]
        fit = fit_sweep_model(pts)
        assert fit.a == pytest.approx(1 + 1 / math.sinh(r) ** 2, rel=1e-9)
        assert fit.b == pytest.approx(0.0, abs=1e-7)
        assert fit.c == pytest.approx(2.0, abs=1e-9)
        assert fit.residual <= 1e-9

    def test_shifted_sweep_recovers_offset(self):
        pts = [(t, 5.0 * math.sin(math.radians(4 * (t + 3.0))) ** 2 + 2.0)
               for t in np.linspace(0.0, 45.0, 12)]
        fit = fit_sweep_model(pts)
        assert fit.a == pytest.approx(5.0, rel=1e-6)
        assert fit.b == pytest.approx(3.0, abs=1e-6)
        assert fit.c == pytest.approx(2.0, abs=1e-6)

    def test_constant_data_degenerate(self):
        fit = fit_sweep_model([(0.0, 2.0), (10.0, 2.0), (20.0, 2.0),
                               (30.0, 2.0)])
        assert fit.a == 0.0
        assert fit.b == 0.0
        assert fit.c == pytest.approx(2.0)

    def test_noisy_counting_sweep(self):
        r = 0.3
        rng = np.random.default_rng(51)
        pts = [(t, 2 + math.sin(math.radians(4 * t)) ** 2 *
                (1 + 1 / math.sinh(r) ** 2) + rng.normal(0, 0.2))
               for t in np.linspace(0.0, 45.0, 16)]
        fit = fit_sweep_model(pts)
        assert abs(fit.c - 2.0) < 3 * 0.2

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_sweep_model([(0.0, 2.0), (22.5, 3.0)])

    def test_noisy_reproducer_reaches_least_squares(self):
        # the Gauss-Newton fit stopped here at the least-squares residual
        # but raised FitError: its gradient test sat below round-off
        fit = fit_sweep_model([(0, 4.2), (5, 2.3), (10, 1.2), (15, 1.1),
                               (20, 5.1), (22.5, 5.6)])
        assert fit.a == pytest.approx(8.376064, abs=1e-6)
        assert fit.b == pytest.approx(-10.070199, abs=1e-6)
        assert fit.c == pytest.approx(0.957234, abs=1e-6)
        assert fit.residual == pytest.approx(1.213223, abs=1e-6)

    def test_angles_equal_mod_45_not_identifiable(self):
        with pytest.raises(IdentifiabilityError):
            fit_sweep_model([(0.0, 2.0), (45.0, 3.0), (90.0, 4.0)])

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.5, 10.0), b=st.floats(-22.5, 22.5),
           c=st.floats(-5.0, 5.0),
           thetas=st.lists(st.sampled_from(np.arange(0.0, 45.0, 2.5).tolist()),
                           min_size=4, max_size=18, unique=True),
           noise=st.lists(st.floats(-0.3, 0.3), min_size=18, max_size=18))
    def test_matches_gauss_newton_oracle(self, a, b, c, thetas, noise):
        pts = [(t, a * math.sin((b + t) * math.pi / 45.0) ** 2 + c + e)
               for t, e in zip(thetas, noise)]
        try:
            ref = _gauss_newton_fit(pts)
        except FitError:
            assume(False)
        fit = fit_sweep_model(pts)
        # the oracle stops at a gradient of 1e-10, so its parameters are
        # only that accurate in absolute terms (c = 0 is drawn often)
        assert fit.a == pytest.approx(ref.a, rel=1e-8, abs=1e-9)
        assert fit.c == pytest.approx(ref.c, rel=1e-8, abs=1e-9)
        # b is an angle mod 45: compare the wrapped difference
        assert abs((fit.b - ref.b + 22.5) % 45.0 - 22.5) <= 1e-7
        # the closed form is the global optimum
        assert fit.residual <= ref.residual * (1 + 1e-8) + 1e-12


def _gauss_newton_fit(points, max_iter=100, grad_tol=1e-10):
    """Frozen copy of the former iterative fit (Gauss-Newton with step
    halving), kept as an independent oracle for fit_sweep_model; raises
    FitError where it does not converge."""
    pts = np.asarray(points, dtype=float)
    theta, y = pts[:, 0], pts[:, 1]

    def model(p):
        return p[0] * np.sin((p[1] + theta) * math.pi / 45.0) ** 2 + p[2]

    def jacobian(p):
        phi = (p[1] + theta) * math.pi / 45.0
        return np.column_stack([np.sin(phi) ** 2,
                                p[0] * np.sin(2.0 * phi) * math.pi / 45.0,
                                np.ones_like(theta)])

    params = np.array([float(y.max() - y.min()), 0.0, float(y.min())])
    res = model(params) - y
    cost = float(res @ res)
    converged = False
    for _ in range(max_iter):
        J = jacobian(params)
        if float(np.max(np.abs(J.T @ res))) <= grad_tol:
            converged = True
            break
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        scale = 1.0
        for _ in range(30):
            trial = params + scale * step
            tres = model(trial) - y
            tcost = float(tres @ tres)
            if tcost <= cost:
                params, res, cost = trial, tres, tcost
                break
            scale *= 0.5
        else:
            break
    else:
        converged = float(np.max(np.abs(jacobian(params).T @ res))) <= grad_tol
    if not converged:
        raise FitError("Gauss-Newton did not converge", residual=math.sqrt(cost))
    a, b, c = params
    if a < 0.0:
        a, b, c = -a, b + 22.5, c + a
    return SweepFit(a, (b + 22.5) % 45.0 - 22.5, c, math.sqrt(cost))
