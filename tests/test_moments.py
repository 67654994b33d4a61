import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from wigg2.errors import DomainError, GridTooSmallError, NearVacuumError
from wigg2.moments import (QuadratureGrid, WeylMoments, fig1_table,
                           g2_from_moments, g2_gaussian,
                           weyl_moments_analytic, weyl_moments_numeric,
                           weyl_moments_numeric_state)
from wigg2.states import (CovarianceMatrix, GaussianState, PhasePoint,
                          attenuate, coherent, displace, hwp_mix,
                          reduce_mode, squeezed_vacuum, thermal,
                          two_mode_squeezed_vacuum, vacuum, wigner_eval)

from conftest import random_physical_state


def rotate_state(st, theta):
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    V = R @ st.cov.matrix() @ R.T
    m = R @ st.mean_vector()
    return GaussianState(PhasePoint(m[0], m[1]),
                         CovarianceMatrix(V[0, 0], V[1, 1], V[0, 1]))


def _eigh_axes(st):
    """Principal variances (a, b) and the squared mean components along
    their axes, by eigh of V."""
    w, vecs = np.linalg.eigh(st.cov.matrix())
    m = vecs.T @ st.mean_vector()
    return float(w[0]), float(w[1]), float(m[0]) ** 2, float(m[1]) ** 2


# frozen principal-axes route: the oracle for the K-form
def _eigh_moments(st):
    a, b, x2, p2 = _eigh_axes(st)
    nw = 0.5 * (x2 + p2 + a + b)
    nw2 = 0.25 * (x2 * x2 + p2 * p2 + 2.0 * x2 * p2
                  + 3.0 * a * a + 3.0 * b * b + 2.0 * a * b
                  + 2.0 * x2 * (3.0 * a + b) + 2.0 * p2 * (a + 3.0 * b))
    return nw, nw2


def _eigh_g2(st):
    a, b, m1, m2 = _eigh_axes(st)
    u, v = a - 0.5, b - 0.5
    num = ((m1 + m2) ** 2 + 3.0 * u * u + 3.0 * v * v + 2.0 * u * v
           + 2.0 * m1 * (3.0 * u + v) + 2.0 * m2 * (u + 3.0 * v))
    return num / (m1 + m2 + u + v) ** 2


class TestEighOracle:
    @settings(max_examples=300, deadline=None)
    @given(log_s=hst.floats(-3.0, 3.0), angle=hst.floats(0.0, math.pi),
           eta=hst.floats(0.0, 1.0), x0=hst.floats(-3.0, 3.0),
           p0=hst.floats(-3.0, 3.0))
    def test_k_form_matches_principal_axes(self, log_s, angle, eta, x0, p0):
        st = displace(attenuate(squeezed_vacuum(math.exp(log_s), angle), eta),
                      x0, p0)
        nw, nw2 = _eigh_moments(st)
        m = weyl_moments_analytic(st)
        assert m.nw == pytest.approx(nw, rel=1e-12)
        assert m.nw2 == pytest.approx(nw2, rel=1e-12)
        # below n = 0.03, eigh's few-ulp eigenvalue error costs the oracle
        # digits of g2 (1e-13 at n = 0.01, 2e-12 at n = 0.001)
        if nw - 0.5 >= 0.03:
            assert g2_gaussian(st).value == pytest.approx(_eigh_g2(st), rel=1e-12)


class TestOverflow:
    def test_g2_bright_coherent_raises_domain_error(self):
        # |mu|^2 = 1e320 overflows a double
        with pytest.raises(DomainError):
            g2_gaussian(coherent(1e160, 0.0))

    def test_g2_extreme_squeezing_is_three(self):
        # tr K^2 = 2.5e319 overflows unless K is scaled by t first
        assert g2_gaussian(squeezed_vacuum(1e-160)).value == pytest.approx(
            3.0, rel=1e-12)

    def test_moments_bright_coherent_raise_domain_error(self):
        # |mu|^2 = 1e400 overflows a double
        with pytest.raises(DomainError):
            weyl_moments_analytic(coherent(1e200, 0.0))


class TestAnalyticMoments:
    def test_vacuum(self):
        m = weyl_moments_analytic(vacuum())
        assert m.nw == pytest.approx(0.5, abs=1e-15)
        assert m.nw2 == pytest.approx(0.5, abs=1e-15)

    def test_coherent_two_photons_symmetric(self):
        # |mean|^2 = 2 -> nw = 1.5, nw2 = 3.5
        m = weyl_moments_analytic(coherent(1.0, 1.0))
        assert m.nw == pytest.approx(1.5, rel=1e-12)
        assert m.nw2 == pytest.approx(3.5, rel=1e-12)

    def test_coherent_mean_photon(self):
        m = weyl_moments_analytic(coherent(1.0, 1.0))
        assert m.nw - 0.5 == pytest.approx(1.0, rel=1e-12)

    def test_thermal_identity(self):
        for nbar in [0.2, 1.0, 4.5]:
            m = weyl_moments_analytic(thermal(nbar))
            assert m.nw2 == pytest.approx(2 * m.nw ** 2, rel=1e-12)

    def test_squeezed_identity(self):
        for s in [0.2, 0.5, 0.9]:
            m = weyl_moments_analytic(squeezed_vacuum(s, 0.3))
            assert m.nw2 == pytest.approx(3 * m.nw ** 2 - 0.25, rel=1e-12)

    def test_squeezed_nw_closed_form(self):
        r = 0.8
        m = weyl_moments_analytic(squeezed_vacuum(math.exp(-r), 0.0))
        assert m.nw == pytest.approx((math.exp(r) + math.exp(-r)) / 4, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            st = random_physical_state(rng)
            m0 = weyl_moments_analytic(st)
            m1 = weyl_moments_analytic(rotate_state(st, rng.uniform(0, math.pi)))
            assert m1.nw == pytest.approx(m0.nw, abs=1e-12)
            assert m1.nw2 == pytest.approx(m0.nw2, abs=1e-11)

    def test_vacuum_floor(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            m = weyl_moments_analytic(random_physical_state(rng))
            assert m.nw >= 0.5
            assert m.nw2 >= m.nw ** 2


class TestNumericMoments:
    def test_vacuum_default_grid(self):
        m = weyl_moments_numeric(lambda x, p: wigner_eval(vacuum(), x, p))
        assert m.nw == pytest.approx(0.5, abs=1e-9)
        assert m.nw2 == pytest.approx(0.5, abs=1e-9)

    def test_thermal_matches_analytic(self):
        st = thermal(2.0)
        mn = weyl_moments_numeric_state(st)
        ma = weyl_moments_analytic(st)
        assert mn.nw == pytest.approx(ma.nw, rel=1e-8)
        assert mn.nw2 == pytest.approx(ma.nw2, rel=1e-8)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            st = random_physical_state(rng)
            ma = weyl_moments_analytic(st)
            mn = weyl_moments_numeric_state(st)
            assert mn.nw == pytest.approx(ma.nw, rel=1e-8)
            assert mn.nw2 == pytest.approx(ma.nw2, rel=1e-8)

    def test_truncated_grid_errors(self):
        st = thermal(5.0)
        with pytest.raises(GridTooSmallError) as exc:
            weyl_moments_numeric(lambda x, p: wigner_eval(st, x, p),
                                 QuadratureGrid(half_width=2.0, nodes=128))
        assert exc.value.deficit is not None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_evaluator_is_not_a_small_grid(self, bad):
        # no grid makes a NaN or infinite W integrate to 1: a larger one
        # would not help, so the refusal is not a GridTooSmallError
        def evaluator(x, p):
            w = wigner_eval(vacuum(), x, p)
            w[0, 0] = bad
            return w
        for ev in (evaluator, lambda x, p: np.full_like(x, bad)):
            with pytest.raises(DomainError, match="non-finite") as exc:
                weyl_moments_numeric(ev, QuadratureGrid(nodes=64))
            assert not isinstance(exc.value, GridTooSmallError)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            QuadratureGrid(half_width=-1.0)
        with pytest.raises(DomainError):
            QuadratureGrid(nodes=1)


class TestG2:
    def test_coherent_is_one(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            x0, p0 = rng.uniform(-3, 3, 2)
            if x0 * x0 + p0 * p0 < 0.05:
                x0 = 1.0
            assert g2_gaussian(coherent(x0, p0)).value == pytest.approx(1.0, rel=1e-12)

    def test_thermal_is_two(self):
        for nbar in [0.3, 1.0, 7.0]:
            assert g2_gaussian(thermal(nbar)).value == pytest.approx(2.0, rel=1e-12)

    def test_squeezed_closed_form(self):
        g = g2_gaussian(squeezed_vacuum(0.5, 0.0))
        assert g.value == pytest.approx(3 + 1 / g.mean_photon, rel=1e-12)

    def test_weakly_excited_squeezed_value(self):
        from wigg2.states import squeezed_vacuum_with_mean_photon
        g = g2_gaussian(squeezed_vacuum_with_mean_photon(0.0115))
        assert g.value == pytest.approx(3 + 1 / 0.0115, rel=1e-9)

    def test_near_vacuum_guard(self):
        with pytest.raises(NearVacuumError):
            g2_gaussian(vacuum())
        with pytest.raises(NearVacuumError):
            g2_gaussian(coherent(0.0, 0.0))
        with pytest.raises(NearVacuumError):  # 0/0, whatever the guard
            g2_gaussian(vacuum(), epsilon=0.0)

    def test_from_moments_vacuum_raises_whatever_epsilon(self):
        # 0/0 at vacuum is a typed error, as in g2_gaussian, not NaN
        with pytest.raises(NearVacuumError):
            g2_from_moments(WeylMoments(0.5, 0.5), epsilon=0.0)
        with pytest.raises(NearVacuumError):
            g2_from_moments(WeylMoments(0.4, 0.5), epsilon=0.0)

    def test_from_moments_non_finite_ratio_raises(self):
        with pytest.raises(DomainError):
            g2_from_moments(WeylMoments(1.0, math.inf))
        with pytest.raises(DomainError):       # overflows to inf
            g2_from_moments(WeylMoments(1.0, 1e308))
        with pytest.raises(DomainError):
            g2_from_moments(WeylMoments(math.nan, 1.0))

    def test_loss_invariance(self):
        for eta in [0.05, 0.3, 0.7, 1.0]:
            base = g2_gaussian(squeezed_vacuum(0.5, 0.0)).value
            lossy = g2_gaussian(attenuate(squeezed_vacuum(0.5, 0.0), eta)).value
            assert abs(lossy - base) <= 1e-10

    def test_hwp_sweep_closed_form(self):
        for r in [0.1, 0.5]:
            tb = two_mode_squeezed_vacuum(r)
            for th in np.linspace(0.0, 45.0, 19):
                red = reduce_mode(hwp_mix(tb, th), 1)
                got = g2_gaussian(red).value
                want = 2 + math.sin(math.radians(4 * th)) ** 2 * \
                    (1 + 1 / math.sinh(r) ** 2)
                assert abs(got - want) <= 1e-10

    def test_hwp_reduced_vs_numeric_oracle(self):
        # independent numeric-quadrature check at a few sweep points
        for r in [0.1, 0.5]:
            tb = two_mode_squeezed_vacuum(r)
            for th in [0.0, 10.0, 22.5]:
                red = reduce_mode(hwp_mix(tb, th), 1)
                mn = weyl_moments_numeric_state(red)
                got = g2_from_moments(mn).value
                assert got == pytest.approx(g2_gaussian(red).value, rel=1e-7)

    def test_displaced_thermal_vs_fock_oracle(self):
        from wigg2.fock import g2_from_pn, photon_number_distribution
        st = GaussianState(PhasePoint(1.0, 0.0), thermal(1.0).cov)
        want = g2_from_pn(photon_number_distribution(st, 120, tol=1e-10))
        assert g2_gaussian(st).value == pytest.approx(want, rel=1e-7)


class TestFig1Table:
    def test_rows(self):
        rows = fig1_table([1.0, 0.5])
        assert rows[0] == (1.0, 1.0, 2.0, 4.0)
        assert rows[1][3] == pytest.approx(5.0, rel=1e-12)

    def test_large_n_limit(self):
        assert fig1_table([1e9])[0][3] == pytest.approx(3.0, abs=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fig1_table([1.0, 0.0])
        with pytest.raises(DomainError):
            fig1_table([-2.0])
