import itertools
import math
import warnings

import numpy as np
import pytest

from wigg2.errors import (DomainError, InconsistentInputsError,
                          InsufficientStatisticsError, NotSqueezedError)
from wigg2.loss import (infer_loss, infer_loss_resampled, infer_nw_pure,
                        infer_pure_variance)
from wigg2.moments import g2_gaussian
from wigg2.states import attenuate, marginal, squeezed_vacuum
from wigg2.tomography import (estimate_covariance, g2_from_reconstruction,
                              simulate_homodyne)


class TestNwPure:
    def test_value(self):
        # g2 = 4 -> nw = 1/(4-3) + 1/2 = 1.5
        assert infer_nw_pure(4.0) == pytest.approx(1.5, rel=1e-12)

    def test_branch_guard(self):
        with pytest.raises(NotSqueezedError):
            infer_nw_pure(2.5)
        with pytest.raises(NotSqueezedError):
            infer_nw_pure(3.0)


class TestPureVariance:
    def test_value(self):
        assert infer_pure_variance(1.5) == pytest.approx(
            1.5 - math.sqrt(2.0), rel=1e-12)

    def test_vacuum_endpoint(self):
        assert infer_pure_variance(0.5) == pytest.approx(0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            infer_pure_variance(0.3)

    def test_squeezed_root(self):
        # always the branch below 1/2, and consistent with nw
        for nw in (0.6, 1.0, 4.0):
            v = infer_pure_variance(nw)
            assert v <= 0.5
            assert (v + 1.0 / (4.0 * v)) / 2.0 == pytest.approx(nw, rel=1e-12)


    @pytest.mark.parametrize("nw", [1e6, 1e8, 1e12])
    def test_large_nw(self, nw):
        # nw - sqrt(nw^2 - 1/4) cancels: 0.0 at nw = 1e8
        assert infer_pure_variance(nw) == pytest.approx(0.25 / (2.0 * nw),
                                                        rel=1e-12, abs=0.0)


class TestInferLoss:
    def test_closed_loop_over_grid(self):
        # analytic round trip: squeeze, attenuate, measure, recover eta
        for s in (0.2, 0.5, 0.8):
            state = squeezed_vacuum(s, 0.0)
            g2 = g2_gaussian(state).value  # loss-immune
            for eta in (0.1, 0.3, 0.7, 0.95):
                lossy = attenuate(state, eta)
                _, vx = marginal(lossy, 0.0)
                inf = infer_loss(g2, vx)
                assert inf.eta == pytest.approx(eta, abs=1e-9)
                assert inf.vx_pure == pytest.approx(s / 2.0, abs=1e-9)
                assert not inf.warnings

    def test_monotone_in_vx(self):
        etas = [infer_loss(4.0, vx).eta for vx in (0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_unsqueezed_variance_rejected(self):
        with pytest.raises(InconsistentInputsError):
            infer_loss(4.0, 0.6)
        with pytest.raises(DomainError):
            infer_loss(4.0, -0.1)

    def test_inconsistent_inputs_warn(self):
        # variance more squeezed than the pure state allows -> eta > 1
        state = squeezed_vacuum(0.5, 0.0)
        g2 = g2_gaussian(state).value
        inf = infer_loss(g2, 0.2)
        assert inf.eta > 1.02
        assert inf.warnings

    def test_g2_just_above_3(self):
        inf = infer_loss(3.0 + 1e-9, 0.3)
        assert inf.vx_pure == pytest.approx(0.125 / inf.nw_pure, rel=1e-12,
                                            abs=0.0)
        assert inf.eta == pytest.approx(0.4, rel=1e-9)

    def test_not_squeezed_g2(self):
        with pytest.raises(NotSqueezedError):
            infer_loss(2.0, 0.3)


class TestResampled:
    def test_basic_interval(self):
        rng = np.random.default_rng(61)
        g2 = 5.0 + rng.normal(0, 0.1, 400)
        vx = 0.35 + rng.normal(0, 0.002, 400)
        truth = infer_loss(5.0, 0.35).eta
        etas, (lo, hi), skipped = infer_loss_resampled(g2, vx)
        assert lo <= truth <= hi
        assert skipped == 0

    def test_skips_out_of_domain(self):
        g2 = [4.0, 2.0, 4.5, 3.0, 5.0]
        vx = [0.3, 0.3, 0.7, 0.3, 0.35]
        etas, _, skipped = infer_loss_resampled(g2, vx)
        assert skipped == 3
        assert len(etas) == 2

    def test_matches_infer_loss_on_edge_grid(self):
        # every pair of edge values: g2 at and next to 3 (3 + 5e-324 is
        # 3), so large that nw_pure rounds to 1/2, and not finite; vx at 0
        # and 1/2 and next to them, and not finite
        g2s = [2.0, 3.0, 3 + 5e-324, math.nextafter(3.0, 4.0), 4.0, 11.0,
               1e15, 1e17, math.inf, -math.inf, math.nan]
        vxs = [0.0, -0.1, 5e-324, 0.3, math.nextafter(0.5, 0.0), 0.5,
               math.inf, -math.inf, math.nan]
        pairs = list(itertools.product(g2s, vxs))
        want, refusals = [], set()
        for g2, vx in pairs:
            try:
                want.append(infer_loss(g2, vx).eta)
            except DomainError as exc:
                refusals.add((type(exc), "indeterminate" in str(exc)))
        # g2 <= 3, vx <= 0, vx >= 1/2, and a pure state at vacuum
        assert len(refusals) == 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            etas, _, skipped = infer_loss_resampled(*zip(*pairs))
        assert etas.tolist() == want
        assert skipped == len(pairs) - len(want)

    def test_all_invalid_raises(self):
        with pytest.raises(InsufficientStatisticsError):
            infer_loss_resampled([2.0, 2.5, 1.0], [0.3, 0.3, 0.3])


class TestEndToEnd:
    def test_simulated_loop(self):
        # squeeze, attenuate by eta = 0.7, homodyne-reconstruct, and the
        # resampled interval should cover the true transmissivity
        eta_true = 0.7
        state = squeezed_vacuum(0.4, 0.0)
        g2_true = g2_gaussian(state).value
        data = simulate_homodyne(state, per_angle=100_000, eta_hd=eta_true,
                                 seed=67)
        rec = estimate_covariance(data, boot_seed=68)
        vx_draws = rec.member_cov[rec.valid, 0]
        etas, (lo, hi), _ = infer_loss_resampled(
            np.full(vx_draws.size, g2_true), vx_draws)
        assert lo <= eta_true <= hi
        point = infer_loss(g2_true, rec.state.cov.vxx)
        assert point.eta == pytest.approx(eta_true, abs=0.02)
