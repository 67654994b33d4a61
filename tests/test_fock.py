import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigg2.errors import DomainError, TruncationError
from wigg2.fock import (PhotonNumberDistribution, fock_wigner, g2_from_pn,
                        photon_number_distribution)
from wigg2.moments import g2_gaussian, weyl_moments_analytic
from wigg2.states import (attenuate, coherent, squeezed_vacuum,
                          squeezed_vacuum_with_mean_photon, thermal, vacuum)

from conftest import random_physical_state


# Frozen copy of the tensor Gauss-Hermite overlap quadrature that the Fock
# recursion replaced: p(n) = 2 pi * int W_rho W_n in the whitened
# coordinates of the merged Gaussian, exact once n_max + 1 nodes exceed
# the degree of L_n.  Overflows for large n_max or photon number.
def _quadrature_oracle(state, n_max):
    V = state.cov.matrix()
    mu = state.mean_vector()
    Vinv = np.linalg.inv(V)
    M = np.linalg.inv(Vinv + 2.0 * np.eye(2))
    m = M @ (Vinv @ mu)
    c = 0.5 * (mu @ Vinv @ mu - m @ np.linalg.inv(M) @ m)
    pref = 2.0 * math.sqrt(np.linalg.det(M) / np.linalg.det(V)) * math.exp(-c)
    K = max(n_max + 1, 8)
    t, w = np.polynomial.hermite.hermgauss(K)
    lam, U = np.linalg.eigh(M)
    T1, T2 = np.meshgrid(t, t, indexing="ij")
    xi = (m[:, None, None]
          + U[:, 0, None, None] * math.sqrt(2.0 * lam[0]) * T1
          + U[:, 1, None, None] * math.sqrt(2.0 * lam[1]) * T2)
    wt = (w[:, None] * w[None, :]) / math.pi
    r2 = 2.0 * (xi[0] ** 2 + xi[1] ** 2)
    probs = np.empty(n_max + 1)
    lm1 = np.ones_like(r2)
    probs[0] = pref * float((wt * lm1).sum())
    if n_max >= 1:
        ln = 1.0 - r2
        probs[1] = -pref * float((wt * ln).sum())
        sign = 1.0
        for k in range(1, n_max):
            lm1, ln = ln, ((2.0 * k + 1.0 - r2) * ln - k * lm1) / (k + 1.0)
            probs[k + 1] = sign * pref * float((wt * ln).sum())
            sign = -sign
    probs[probs < 0.0] = 0.0
    return probs


def physical_states(max_mean=2.5, max_nbar=3.0):
    """Hypothesis strategy over conftest's random physical states."""
    return st.integers(0, 2**32 - 1).map(lambda seed: random_physical_state(
        np.random.default_rng(seed), max_mean=max_mean, max_nbar=max_nbar))


def quadrature_integral(fn, half=8.0, n=1001):
    h = 2.0 * half / n
    axis = -half + h * (np.arange(n) + 0.5)
    X, P = np.meshgrid(axis, axis, indexing="ij")
    return float(fn(X, P).sum() * h * h)


class TestFockWigner:
    def test_origin_values(self):
        assert fock_wigner(0, 0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-12)
        assert fock_wigner(1, 0.0, 0.0) == pytest.approx(-1 / math.pi, rel=1e-12)

    def test_normalization(self):
        for n in [0, 1, 5]:
            mass = quadrature_integral(lambda x, p: fock_wigner(n, x, p))
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            fock_wigner(-1, 0.0, 0.0)


class TestPhotonNumberDistribution:
    def test_vacuum(self):
        d = photon_number_distribution(vacuum(), 10)
        assert d.probs[0] == pytest.approx(1.0, abs=1e-12)
        assert d.tail_mass <= 1e-12

    def test_vacuum_probability_not_above_one(self):
        # the recursion's p(0) rounds to 1 + 2^-52 at vacuum
        d = photon_number_distribution(vacuum(), 10)
        assert d.probs[0] == 1.0
        assert d.cdf()[-1] == 1.0
        assert d.tail_mass == 0.0

    def test_thermal_geometric(self):
        nbar = 1.0
        d = photon_number_distribution(thermal(nbar), 80)
        for n, want in [(0, 0.5), (1, 0.25), (2, 0.125)]:
            assert d.probs[n] == pytest.approx(want, rel=1e-10)
        for n in range(11):
            want = nbar ** n / (1 + nbar) ** (n + 1)
            assert abs(d.probs[n] - want) < 1e-9

    def test_squeezed_even_support(self):
        d = photon_number_distribution(squeezed_vacuum(math.exp(-1.0)), 120)
        assert np.max(d.probs[1::2]) < 1e-10
        assert np.max(d.probs[0::2]) > 0.0

    def test_coherent_poisson(self):
        mean = 1.0
        d = photon_number_distribution(coherent(math.sqrt(2 * mean), 0.0), 60)
        assert d.probs[0] == pytest.approx(math.exp(-1.0), rel=1e-10)
        for n in range(8):
            want = math.exp(-mean) * mean ** n / math.factorial(n)
            assert d.probs[n] == pytest.approx(want, rel=1e-8)

    def test_truncation_error(self):
        with pytest.raises(TruncationError) as exc:
            photon_number_distribution(thermal(5.0), 10, tol=1e-9)
        assert exc.value.tail_mass > 1e-9
        assert exc.value.suggested_n_max > 10

    def test_non_finite_recursion_raises_domain_error(self):
        # <n> = 800: G_nn ~ e^800 overflows a double; a TruncationError
        # would suggest a larger n_max, which cannot help
        with pytest.raises(DomainError, match="non-finite") as exc:
            photon_number_distribution(coherent(40.0, 0.0), 1300)
        assert not isinstance(exc.value, TruncationError)

    def test_thermal_20_suggested_n_max_suffices(self):
        with pytest.raises(TruncationError) as exc:
            photon_number_distribution(thermal(20.0), 256)
        assert exc.value.suggested_n_max == 512
        d = photon_number_distribution(thermal(20.0), 512)
        assert np.isfinite(d.probs).all()
        assert 0.0 <= d.tail_mass <= 1e-9

    def test_accounting(self):
        d = photon_number_distribution(thermal(2.0), 60, tol=1e-6)
        assert d.probs.min() >= 0.0
        assert d.probs.sum() + d.tail_mass == pytest.approx(1.0, abs=1e-12)


class TestExactLaws:
    def test_thermal_20_geometric(self):
        nbar = 20.0
        d = photon_number_distribution(thermal(nbar), 512)
        n = np.arange(513)
        want = (nbar / (nbar + 1.0)) ** n / (nbar + 1.0)
        np.testing.assert_allclose(d.probs, want, rtol=1e-12, atol=0.0)

    def test_coherent_112_poisson(self):
        mean = 112.0
        d = photon_number_distribution(coherent(math.sqrt(2 * mean), 0.0), 400)
        want = np.exp([-mean + k * math.log(mean) - math.lgamma(k + 1.0)
                       for k in range(401)])
        assert np.abs(d.probs - want).max() <= 1e-12


class TestRecursionProperties:
    @settings(max_examples=40, deadline=None)
    @given(state=physical_states(), n_max=st.integers(0, 128))
    def test_matches_quadrature_oracle(self, state, n_max):
        d = photon_number_distribution(state, n_max, tol=1.0)
        assert np.abs(d.probs - _quadrature_oracle(state, n_max)).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(state=physical_states(max_mean=6.0, max_nbar=20.0),
           n_max=st.integers(0, 300))
    def test_finite_non_negative_sub_normalised(self, state, n_max):
        d = photon_number_distribution(state, n_max, tol=1.0)
        assert np.isfinite(d.probs).all()
        assert d.probs.min() >= 0.0
        assert d.probs.sum() <= 1.0 + 1e-12
        assert math.isfinite(d.tail_mass)

    @settings(max_examples=30, deadline=None)
    @given(nbar=st.floats(0.01, 2.0), angle=st.floats(0.0, math.pi),
           eta=st.floats(0.05, 1.0))
    def test_g2_loss_invariant_for_squeezed_vacuum(self, nbar, angle, eta):
        sq = squeezed_vacuum_with_mean_photon(nbar, angle)
        g_pure = g2_from_pn(photon_number_distribution(sq, 200, tol=1e-10))
        g_lossy = g2_from_pn(photon_number_distribution(
            attenuate(sq, eta), 200, tol=1e-10))
        assert g_lossy == pytest.approx(g_pure, rel=1e-9)


class TestG2FromPn:
    def test_thermal(self):
        d = photon_number_distribution(thermal(1.0), 80)
        assert g2_from_pn(d) == pytest.approx(2.0, abs=1e-9)

    def test_squeezed_quarter_photon(self):
        from wigg2.states import squeezed_vacuum_with_mean_photon
        st = squeezed_vacuum_with_mean_photon(0.25)
        d = photon_number_distribution(st, 120, tol=1e-10)
        assert g2_from_pn(d) == pytest.approx(7.0, abs=1e-6)

    def test_single_photon_antibunching(self):
        d = PhotonNumberDistribution(np.array([0.0, 1.0]), 1, 0.0)
        assert g2_from_pn(d) == 0.0

    def test_zero_mean_error(self):
        d = PhotonNumberDistribution(np.array([1.0, 0.0]), 1, 0.0)
        with pytest.raises(DomainError):
            g2_from_pn(d)


class TestConsistency:
    def test_triangle_with_gaussian_g2(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            st = random_physical_state(rng, max_mean=1.5, max_nbar=2.0)
            d = photon_number_distribution(st, 220, tol=1e-10)
            assert g2_from_pn(d) == pytest.approx(
                g2_gaussian(st).value, abs=1e-6, rel=1e-6)

    def test_weyl_moment_reconstruction(self):
        # n_W = n + 1/2 and n_W^2 = n^2 + n + 1/2 summed over p(n)
        rng = np.random.default_rng(43)
        for _ in range(6):
            st = random_physical_state(rng, max_mean=1.5, max_nbar=2.0)
            d = photon_number_distribution(st, 220, tol=1e-10)
            n = np.arange(d.n_max + 1, dtype=float)
            nw = float(np.dot(d.probs, n + 0.5))
            nw2 = float(np.dot(d.probs, n * n + n + 0.5))
            m = weyl_moments_analytic(st)
            assert nw == pytest.approx(m.nw, abs=1e-7, rel=1e-7)
            assert nw2 == pytest.approx(m.nw2, abs=1e-7, rel=1e-7)
