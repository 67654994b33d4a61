import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wigg2.counting import (CountingConfig, g2_estimate_clicks,
                            simulate_hbt)
from wigg2.errors import (DomainError, FitError, IdentifiabilityError,
                          UnstableInferenceError)
from wigg2.moments import g2_gaussian
from wigg2.states import (CovarianceMatrix, GaussianState, PhasePoint,
                          hwp_mix, marginal, reduce_mode, squeezed_vacuum,
                          squeezed_vacuum_with_mean_photon, thermal,
                          two_mode_squeezed_vacuum, vacuum)
from wigg2 import kernels
from wigg2.tomography import (DEFAULT_ANGLES, HomodyneDataset, SweepFit,
                              _covariance_design, _solve_covariance,
                              _solve_mean,
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
            HomodyneDataset(np.array([math.pi]), (np.zeros(10),), 0, 1.0)


class TestInputValidation:
    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64, 1.5])
    def test_simulate_homodyne_rejects_seed(self, seed):
        with pytest.raises(DomainError):
            simulate_homodyne(vacuum(), ANGLES12[:3], 100, seed=seed)

    @pytest.mark.parametrize("per_angle", [2.5, "10", True, 1])
    def test_simulate_homodyne_rejects_per_angle(self, per_angle):
        with pytest.raises(DomainError, match="per_angle"):
            simulate_homodyne(vacuum(), ANGLES12[:3], per_angle, seed=1)

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
        assert len(rec.bootstrap_states) == 2

    @pytest.mark.parametrize("n_boot", [0, 1, -3, 2.0])
    def test_n_boot_invalid(self, n_boot):
        data = simulate_homodyne(squeezed_vacuum(0.5, 0.0), ANGLES12, 1000,
                                 seed=1)
        with pytest.raises(DomainError):
            estimate_covariance(data, n_boot=n_boot, boot_seed=2)

    def test_one_sample_per_angle(self):
        samples = tuple(np.array([0.1 * k]) for k in range(12))
        with pytest.raises(DomainError):
            HomodyneDataset(ANGLES12, samples, 0, 1.0)

    def test_sample_arrays_must_match_angles(self):
        data = simulate_homodyne(thermal(1.0), ANGLES12, 100, seed=1)
        with pytest.raises(DomainError):
            HomodyneDataset(ANGLES12, data.samples[:11], 0, 1.0)

    def test_non_finite_samples(self):
        data = simulate_homodyne(thermal(1.0), ANGLES12[:3], 100, seed=1)
        bad = (data.samples[0], np.append(data.samples[1], np.nan),
               data.samples[2])
        with pytest.raises(DomainError):
            HomodyneDataset(ANGLES12[:3], bad, 0, 1.0)


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
        design = _covariance_design(np.array([math.pi / 2, 0.0, 0.0]))
        repeated = _covariance_design(np.array([0.0, 0.0, math.pi / 2]))
        np.testing.assert_array_equal(repeated, design[[1, 2, 0]])
        angles = [0.0, 0.0, math.pi / 2]
        data = simulate_homodyne(squeezed_vacuum(0.5, 0.0), angles, 2_000,
                                 seed=3)
        rec = estimate_covariance(data, n_boot=8, boot_seed=4)
        assert rec.raw_cov[2] == 0.0
        assert rec.raw_cov[0] == pytest.approx(0.25, rel=0.1)
        assert all(bs.cov.vxp == 0.0 for bs in rec.bootstrap_states)

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

    def test_batched_bootstrap_solve(self):
        # one least-squares solve over all members = a solve per member
        data = simulate_homodyne(squeezed_vacuum(0.5, 0.3), ANGLES12, 5_000,
                                 0.8, seed=12)
        rec = estimate_covariance(data, n_boot=40, boot_seed=13)
        moments = [kernels.boot_moments(s, 40, 13 + 7919 * k)
                   for k, s in enumerate(data.samples)]
        cov_scale = max(rec.raw_cov[:2])
        for b, bs in enumerate(rec.bootstrap_states):
            vxx, vpp, vxp, _ = _solve_covariance(
                data.angles, np.array([v[b] for _, v in moments]))
            mx, mp = _solve_mean(data.angles, np.array([m[b] for m, _ in moments]))
            np.testing.assert_allclose(
                [bs.cov.vxx, bs.cov.vpp, bs.cov.vxp], [vxx, vpp, vxp],
                rtol=1e-12, atol=1e-12 * cov_scale)
            np.testing.assert_allclose([bs.mean.x, bs.mean.p], [mx, mp],
                                       rtol=1e-12, atol=1e-12 * max(abs(mx), abs(mp)))


    def test_unequal_angle_lengths(self):
        # each angle bootstraps its own length, under its own seed
        full = simulate_homodyne(squeezed_vacuum(0.5, 0.3), ANGLES12[:4],
                                 3_000, 0.8, seed=21)
        samples = tuple(s[:n] for s, n in zip(full.samples,
                                              (3_000, 17, 1_001, 250)))
        data = HomodyneDataset(full.angles, samples, 21, 0.8)
        rec = estimate_covariance(data, n_boot=10, boot_seed=5)
        moments = [kernels.boot_moments(s, 10, 5 + 7919 * k)
                   for k, s in enumerate(samples)]
        vxx, vpp, vxp, _ = _solve_covariance(
            data.angles, np.array([v for _, v in moments]))
        mx, mp = _solve_mean(data.angles, np.array([m for m, _ in moments]))
        for b, bs in enumerate(rec.bootstrap_states):
            assert [bs.cov.vxx, bs.cov.vpp, bs.cov.vxp, bs.mean.x,
                    bs.mean.p] == [vxx[b], vpp[b], vxp[b], mx[b], mp[b]]

    def test_one_kernel_call_and_pool(self, monkeypatch):
        calls, pools = [], []
        sets = kernels.boot_moments_sets

        def counted(*args):
            calls.append(args)
            return sets(*args)

        class Pool(kernels.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(kernels, "boot_moments_sets", counted)
        monkeypatch.setattr(kernels, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(kernels.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        data = simulate_homodyne(thermal(1.0), ANGLES12, 500, seed=9)
        estimate_covariance(data, n_boot=20, boot_seed=11)
        assert len(calls) == 1 and pools == [2]


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
