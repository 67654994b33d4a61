import json
import math
import warnings

import numpy as np
import pytest

from wigg2.errors import DomainError
from wigg2.states import (CovarianceMatrix, GaussianState, PhasePoint,
                          attenuate, coherent, displace, hwp_mix, marginal,
                          overlap, purity, reduce_mode,
                          rotated_variance, squeezed_vacuum,
                          squeezed_vacuum_with_mean_photon, thermal,
                          two_mode_squeezed_vacuum, vacuum, wigner_eval)

from conftest import random_physical_state


def numeric_overlap(a, b, half=10.0, n=1201):
    """Quadrature oracle for Tr(rho_a rho_b) = 2*pi * int Wa Wb."""
    h = 2.0 * half / n
    axis = -half + h * (np.arange(n) + 0.5)
    X, P = np.meshgrid(axis, axis, indexing="ij")
    return 2.0 * math.pi * float(
        (wigner_eval(a, X, P) * wigner_eval(b, X, P)).sum() * h * h
    )


class TestConstructors:
    def test_vacuum(self):
        v = vacuum()
        assert (v.mean.x, v.mean.p) == (0.0, 0.0)
        assert v.cov.vxx == v.cov.vpp == 0.5
        assert v.cov.vxp == 0.0
        assert purity(v) == pytest.approx(1.0, abs=1e-15)

    def test_coherent(self):
        c = coherent(1.0, 2.0)
        assert (c.mean.x, c.mean.p) == (1.0, 2.0)
        assert c.cov == vacuum().cov
        assert coherent(0.0, 0.0) == vacuum()

    def test_thermal(self):
        assert thermal(0.0) == vacuum()
        t = thermal(1.0)
        assert t.cov.vxx == t.cov.vpp == 1.5
        with pytest.raises(DomainError):
            thermal(-0.1)

    def test_squeezed_vacuum(self):
        assert squeezed_vacuum(1.0, 0.7).cov == vacuum().cov
        s = squeezed_vacuum(0.5, 0.0)
        assert s.cov.vxx == pytest.approx(0.25)
        assert s.cov.vpp == pytest.approx(1.0)
        assert s.cov.det == pytest.approx(0.25, abs=1e-15)
        with pytest.raises(DomainError):
            squeezed_vacuum(0.0)
        with pytest.raises(DomainError):
            squeezed_vacuum(-1.0)

    def test_squeezed_with_mean_photon(self):
        from wigg2.moments import g2_gaussian
        st = squeezed_vacuum_with_mean_photon(0.25)
        assert g2_gaussian(st).mean_photon == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("n", [1e6, 1e7, 1e8, 1e12])
    def test_squeezed_with_large_mean_photon(self, n):
        # s = 2 nw - sqrt(4 nw^2 - 1) cancels: 4% off at 1e7, s = 0 at 1e8
        c = squeezed_vacuum_with_mean_photon(n).cov
        assert (c.vxx + c.vpp) / 2.0 - 0.5 == pytest.approx(n, rel=1e-12)

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_squeezed_vacuum_non_finite_angle(self, angle):
        with pytest.raises(DomainError, match="non-finite"):
            squeezed_vacuum(0.5, angle)

    def test_constructed_states_satisfy_heisenberg(self):
        rng = np.random.default_rng(1)
        states = [vacuum(), coherent(1, 2), thermal(3.0),
                  squeezed_vacuum(0.2, 0.9),
                  attenuate(squeezed_vacuum(0.1, 0.0), 0.4)]
        states += [random_physical_state(rng) for _ in range(20)]
        for st in states:
            assert st.cov.det >= 0.25 - 1e-12

    def test_covariance_validation(self):
        with pytest.raises(DomainError):
            CovarianceMatrix(-1.0, 1.0)
        with pytest.raises(DomainError):
            CovarianceMatrix(1.0, 1.0, 1.5)  # det < 0
        with pytest.raises(DomainError):
            PhasePoint(float("nan"), 0.0)

    @pytest.mark.parametrize("vxp", [1e200, 0.0])
    def test_covariance_det_overflow_raises_domain_error(self, vxp):
        # finite entries whose det overflows: inf - inf, or inf
        with pytest.raises(DomainError):
            CovarianceMatrix(1e200, 1e200, vxp)


class TestWigner:
    def test_peak_values(self):
        assert wigner_eval(vacuum(), 0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-12)
        assert wigner_eval(thermal(1.0), 0.0, 0.0) == pytest.approx(
            1 / (3 * math.pi), rel=1e-12)
        assert wigner_eval(coherent(2.0, 0.0), 2.0, 0.0) == pytest.approx(
            1 / math.pi, rel=1e-12)

    def test_normalization(self):
        # midpoint quadrature over +-8 sigma equals 1 within 1e-8
        rng = np.random.default_rng(7)
        for st in [vacuum(), thermal(5.0), squeezed_vacuum(0.2, 0.4),
                   coherent(2.0, -1.0)] + [random_physical_state(rng)
                                           for _ in range(5)]:
            sig = math.sqrt(max(st.cov.vxx, st.cov.vpp))
            half = 8.0 * sig + math.hypot(st.mean.x, st.mean.p)
            n = 1001
            h = 2 * half / n
            axis = -half + h * (np.arange(n) + 0.5)
            X, P = np.meshgrid(axis, axis, indexing="ij")
            mass = float(wigner_eval(st, X, P).sum() * h * h)
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_translational_covariance(self):
        rng = np.random.default_rng(3)
        st = random_physical_state(rng)
        shifted = displace(st, 0.7, -1.1)
        grid = np.linspace(-2, 2, 5)
        for x in grid:
            for p in grid:
                assert wigner_eval(shifted, x, p) == pytest.approx(
                    wigner_eval(st, x - 0.7, p + 1.1), abs=1e-12)


class TestMarginals:
    def test_rotated_variance_examples(self):
        assert rotated_variance(vacuum(), 1.234) == pytest.approx(0.5)
        assert rotated_variance(squeezed_vacuum(0.3, 0.0), 0.0) == pytest.approx(0.15)
        assert rotated_variance(squeezed_vacuum(0.5, 0.0), math.pi / 4) == \
            pytest.approx(0.625, rel=1e-12)

    def test_marginal_examples(self):
        assert marginal(vacuum(), 0.0) == (0.0, 0.5)
        m, v = marginal(coherent(1.0, 2.0), math.pi / 2)
        assert m == pytest.approx(2.0)
        assert v == pytest.approx(0.5)
        m, v = marginal(thermal(1.0), 1.0)
        assert m == 0.0
        assert v == pytest.approx(1.5)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle(self, theta):
        with pytest.raises(DomainError, match="non-finite"):
            rotated_variance(thermal(1.0), theta)
        with pytest.raises(DomainError, match="non-finite"):
            marginal(coherent(1.0, 2.0), theta)

    def test_sampled_variance_matches(self):
        # 12 angles, 1e6 samples, 5 standard errors
        rng = np.random.default_rng(11)
        st = random_physical_state(rng, max_nbar=2.0)
        n = 1_000_000
        for theta in np.linspace(0, math.pi, 12, endpoint=False):
            m, v = marginal(st, theta)
            x = rng.normal(m, math.sqrt(v), n)
            se = v * math.sqrt(2.0 / (n - 1))
            assert abs(x.var(ddof=1) - v) < 5 * se


class TestChannels:
    def test_displace_group(self):
        st = displace(vacuum(), 1.0, 0.0)
        assert st == coherent(1.0, 0.0)
        rng = np.random.default_rng(5)
        s0 = random_physical_state(rng)
        back = displace(displace(s0, 0.4, -0.9), -0.4, 0.9)
        assert back.mean.x == pytest.approx(s0.mean.x, abs=1e-12)
        assert back.mean.p == pytest.approx(s0.mean.p, abs=1e-12)

    def test_attenuate_endpoints(self):
        st = squeezed_vacuum(0.5, 0.2)
        assert attenuate(st, 1.0) == st
        assert attenuate(st, 0.0) == vacuum()
        with pytest.raises(DomainError):
            attenuate(st, 1.2)
        with pytest.raises(DomainError):
            attenuate(st, -0.1)

    def test_attenuate_semigroup(self):
        rng = np.random.default_rng(9)
        st = random_physical_state(rng)
        a = attenuate(attenuate(st, 0.6), 0.45)
        b = attenuate(st, 0.6 * 0.45)
        for u, v in [(a.cov.vxx, b.cov.vxx), (a.cov.vpp, b.cov.vpp),
                     (a.cov.vxp, b.cov.vxp), (a.mean.x, b.mean.x),
                     (a.mean.p, b.mean.p)]:
            assert u == pytest.approx(v, abs=1e-12)


class TestOverlap:
    def test_trivial(self):
        assert overlap(vacuum(), vacuum()) == pytest.approx(1.0, abs=1e-15)
        d = 1.0
        assert overlap(vacuum(), coherent(d, 0.0)) == pytest.approx(
            math.exp(-d * d / 2), rel=1e-12)

    def test_symmetry_and_purity(self):
        rng = np.random.default_rng(13)
        a = random_physical_state(rng)
        b = random_physical_state(rng)
        assert overlap(a, b) == pytest.approx(overlap(b, a), abs=1e-12)
        assert overlap(a, a) == pytest.approx(purity(a), abs=1e-12)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(17)
        a = random_physical_state(rng, max_mean=1.0, max_nbar=1.0)
        b = random_physical_state(rng, max_mean=1.0, max_nbar=1.0)
        assert overlap(a, b) == pytest.approx(numeric_overlap(a, b), abs=1e-8)

    def test_purity_values(self):
        assert purity(thermal(1.0)) == pytest.approx(1 / 3, rel=1e-12)
        st = attenuate(squeezed_vacuum(0.25, 0.0), 0.5)
        assert purity(st) < 1.0
        assert purity(st) == pytest.approx(1 / (2 * math.sqrt(st.cov.det)))

    def test_purity_of_a_pure_covariance_is_one(self):
        # det V = 1/4 is lost to round-off here: 1/(2 sqrt(det V)) is 0.25
        assert purity(squeezed_vacuum(1e-9, 0.3)) == 1.0

    def test_purity_below_the_uncertainty_bound_rejected(self):
        # det V = 0.01: 1/(2 sqrt(det V)) = 5 is no purity
        state = GaussianState(PhasePoint(0.0, 0.0), CovarianceMatrix(0.1, 0.1))
        with pytest.raises(DomainError, match="purity.*no quantum"):
            purity(state)
        # det V = 1/4 - 5e-14 is a state up to round-off, of purity <= 1
        state = GaussianState(PhasePoint(0.0, 0.0),
                              CovarianceMatrix(0.5, 0.5 - 1e-13))
        assert purity(state) == 1.0

    def test_far_overlap_underflows_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert overlap(coherent(1e200, 0.0), vacuum()) == 0.0


class TestTwoMode:
    def test_tmsv_r0(self):
        tb = two_mode_squeezed_vacuum(0.0)
        assert np.allclose(tb.cov, 0.5 * np.eye(4))

    def test_tmsv_reduction_thermal(self):
        r = 0.5
        tb = two_mode_squeezed_vacuum(r)
        assert tb.cov[0, 0] == pytest.approx(math.cosh(1.0) / 2, rel=1e-12)
        for mode in (1, 2):
            red = reduce_mode(tb, mode)
            want = thermal(math.sinh(r) ** 2)
            assert red.cov.vxx == pytest.approx(want.cov.vxx, rel=1e-12)
            assert red.cov.vpp == pytest.approx(want.cov.vpp, rel=1e-12)
            assert red.cov.vxp == pytest.approx(0.0, abs=1e-12)

    def test_hwp_identity_and_inverse(self):
        tb = two_mode_squeezed_vacuum(0.4)
        same = hwp_mix(tb, 0.0)
        assert np.allclose(same.cov, tb.cov, atol=1e-12)
        roundtrip = hwp_mix(hwp_mix(tb, 17.0), -17.0)
        assert np.allclose(roundtrip.cov, tb.cov, atol=1e-12)

    def test_hwp_squeezed_at_22_5(self):
        r = 0.2
        red = reduce_mode(hwp_mix(two_mode_squeezed_vacuum(r), 22.5), 1)
        assert red.cov.vxx == pytest.approx(math.exp(-2 * r) / 2, rel=1e-12)
        assert red.cov.vpp == pytest.approx(math.exp(2 * r) / 2, rel=1e-12)
        assert red.cov.det == pytest.approx(0.25, abs=1e-12)

    def test_hwp_preserves_total_photon_number(self):
        r = 0.7
        tb = two_mode_squeezed_vacuum(r)
        base = reduce_mode(tb, 1)
        total0 = base.cov.vxx + base.cov.vpp
        for th in [0.0, 5.0, 13.0, 22.5, 40.0]:
            red = reduce_mode(hwp_mix(tb, th), 1)
            assert red.cov.vxx + red.cov.vpp == pytest.approx(total0, rel=1e-12)

    def test_tmsv_overflow_raises_domain_error(self):
        # cosh(800) overflows a double
        with pytest.raises(DomainError, match="overflows"):
            two_mode_squeezed_vacuum(400.0)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_hwp_non_finite_angle(self, theta):
        with pytest.raises(DomainError, match="non-finite"):
            hwp_mix(two_mode_squeezed_vacuum(0.4), theta)

    def test_reduce_validation(self):
        with pytest.raises(DomainError):
            reduce_mode(two_mode_squeezed_vacuum(0.1), 3)


class TestSerialization:
    def test_single_mode_roundtrip(self):
        rng = np.random.default_rng(19)
        st = random_physical_state(rng)
        blob = json.dumps(st.to_dict())
        back = GaussianState.from_dict(json.loads(blob))
        assert back == st
