import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigg2 import fock
from wigg2.counting import CountingConfig, expected_click_g2
from wigg2.errors import DomainError, TruncationError
from wigg2.fock import (PhotonNumberDistribution, fock_wigner, g2_from_pn,
                        photon_number_distribution)
from wigg2.kernels import click_probs
from wigg2.moments import g2_gaussian, weyl_moments_analytic
from wigg2.states import (CovarianceMatrix, GaussianState, PhasePoint,
                          attenuate, coherent, displace, hwp_mix, reduce_mode,
                          squeezed_vacuum, squeezed_vacuum_with_mean_photon,
                          thermal, two_mode_squeezed_vacuum, vacuum)

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


# Frozen copy of the two-index Hermite recursion that the binomial sum
# replaced: G_{m+1,n} = (gamma_0 G_{m,n} + B_00 sqrt(m) G_{m-1,n} + B_01
# sqrt(n) G_{m,n-1}) / sqrt(m+1) row by row, p(n) = T Re G_nn clipped to
# [0, 1].  Row m + 1 is needed only from column m + 1 on; it overwrites
# that tail of the older kept row.
def _recursion_oracle(state, n_max):
    w = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / math.sqrt(2.0)
    zeta = w @ state.mean_vector()
    sigma_q = w @ state.cov.matrix() @ w.conj().T + 0.5 * np.eye(2)
    inv = np.linalg.inv(sigma_q)
    pref = (math.exp(-0.5 * float((zeta.conj() @ inv @ zeta).real))
            / math.sqrt(float(np.linalg.det(sigma_q).real)))
    b, gamma = (np.eye(2) - inv)[:, ::-1], inv @ zeta
    g0, g1, b00, b01, b11 = (complex(v) for v in (
        gamma[0], gamma[1], b[0, 0], b[0, 1], b[1, 1]))
    lower, g = 0.0j, 1.0 + 0.0j
    row = [g]
    for n in range(n_max):
        lower, g = g, (g1 * g + b11 * math.sqrt(n) * lower) / math.sqrt(n + 1)
        row.append(g)
    root = np.sqrt(np.arange(n_max + 1.0))
    b01_root = b01 * root
    cur, prev = np.array(row), np.zeros(n_max + 1, dtype=complex)
    diag = np.ones(n_max + 1)
    for m in range(n_max):
        k = m + 1
        tail = prev[k:]
        tail *= b00 * root[m]
        tail += g0 * cur[k:] + b01_root[k:] * cur[m:-1]
        tail /= root[k]
        prev, cur = cur, prev
        diag[k] = cur[k].real
    return np.clip(pref * diag, 0.0, 1.0)


def _assert_matches_oracle(probs, want):
    """Absolute error <= 1e-12 everywhere, relative error <= 1e-10
    wherever the oracle's p >= 1e-250."""
    err = np.abs(probs - want)
    assert err.max() <= 1e-12
    big = want >= 1e-250
    assert (err[big] <= 1e-10 * want[big]).all(), (err[big] / want[big]).max()


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
        assert np.cumsum(d.probs)[-1] == 1.0
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


class TestBinomialForm:
    @settings(max_examples=60, deadline=None)
    @given(state=physical_states(max_mean=6.0, max_nbar=20.0),
           n_max=st.integers(0, 300))
    def test_matches_recursion_oracle(self, state, n_max):
        d = photon_number_distribution(state, n_max, tol=1.0)
        _assert_matches_oracle(d.probs, _recursion_oracle(state, n_max))

    @pytest.mark.parametrize("n_max", [63, 64, 65, 129])
    def test_mixed_states_at_several_n_max(self, n_max):
        mixed = [thermal(3.0),
                 displace(attenuate(squeezed_vacuum(0.3, 0.7), 0.6), 1.5, -2.0),
                 attenuate(squeezed_vacuum_with_mean_photon(5.0), 0.5)]
        for state in mixed:
            assert fock._husimi_form(state.cov)[3] > 0.0
            d = photon_number_distribution(state, n_max, tol=1.0)
            _assert_matches_oracle(d.probs, _recursion_oracle(state, n_max))

    def test_thermal_20_at_n_max_2048(self):
        nbar, n_max = 20.0, 2048
        d = photon_number_distribution(thermal(nbar), n_max)
        n = np.arange(n_max + 1)
        want = (nbar / (nbar + 1.0)) ** n / (nbar + 1.0)
        big = want >= 1e-250
        np.testing.assert_allclose(d.probs[big], want[big], rtol=1e-13, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pure=st.booleans())
    def test_binomial_ratio_non_negative(self, seed, pure):
        state = random_physical_state(np.random.default_rng(seed), max_mean=6.0,
                                      max_nbar=20.0, pure=pure)
        b = fock._husimi_form(state.cov)[3]
        assert -1e-15 <= b < 1.0
        if pure:
            assert abs(b) <= 1e-15

    def test_binomial_ratio_closed_forms(self):
        for nbar in (0.0, 0.3, 20.0):
            assert fock._husimi_form(thermal(nbar).cov)[3] == pytest.approx(
                nbar / (nbar + 1.0), rel=1e-15, abs=0.0)
        # a pure state of any squeezing: b = 0 up to round-off, clamped
        for mean in (0.2, 5.0, 100.0):
            st_ = squeezed_vacuum_with_mean_photon(mean, 0.3)
            assert abs(fock._husimi_form(st_.cov)[3]) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(-6.0, 6.0).map(math.exp), angle=st.floats(0.0, math.pi))
    def test_pure_squeezed_vacuum_has_exactly_even_support(self, s, angle):
        # det V - 1/4 of a pure state is round-off of either sign; read as
        # a mixed state's b ~ 1e-16 it would leave odd p(n) ~ 1e-16
        d = photon_number_distribution(squeezed_vacuum(s, angle), 64, tol=1.0)
        assert (d.probs[1::2] == 0.0).all()

    @pytest.mark.parametrize("state", [
        reduce_mode(hwp_mix(two_mode_squeezed_vacuum(0.4), 22.5), 1),
        squeezed_vacuum_with_mean_photon(5.0)])
    def test_benchmark_pure_states_have_exactly_even_support(self, state):
        d = photon_number_distribution(state, 256, tol=1.0)
        assert (d.probs[1::2] == 0.0).all()

    def test_unphysical_covariance_rejected(self):
        # det V = 0.09 < 1/4: b < 0 has no binomial form and no state
        state = GaussianState(PhasePoint(0.0, 0.0), CovarianceMatrix(0.3, 0.3))
        with pytest.raises(DomainError, match="1/4"):
            photon_number_distribution(state, 10, tol=1.0)


class TestInputValidation:
    @pytest.mark.parametrize("n_max", [2.5, 10.0, True, -1, "10"])
    def test_n_max_must_be_an_integer(self, n_max):
        # the vacuum has no tail: nothing else can raise
        with pytest.raises(DomainError, match="n_max must be an integer"):
            photon_number_distribution(vacuum(), n_max)

    def test_numpy_integer_n_max_accepted(self):
        d = photon_number_distribution(thermal(1.0), np.int64(40))
        assert d.probs.shape == (41,)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-3, -1e-300])
    def test_tol_must_be_a_non_negative_number(self, tol):
        # not a TruncationError: no n_max can meet a negative tol
        with pytest.raises(DomainError, match="tol must be") as exc:
            photon_number_distribution(vacuum(), 10, tol=tol)
        assert not isinstance(exc.value, TruncationError)

    def test_tol_zero_and_inf_accepted(self):
        assert photon_number_distribution(vacuum(), 4, tol=0.0).tail_mass == 0.0
        d = photon_number_distribution(thermal(1.0), 10, tol=math.inf)
        assert d.tail_mass == pytest.approx(0.5 ** 11, rel=1e-9)

    @pytest.mark.parametrize("n", [2.5, 3.0, True])
    def test_fock_wigner_n_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="n must be an integer"):
            fock_wigner(n, 0.0, 0.0)

    @pytest.mark.parametrize("probs,n_max", [([1.0], 1), ([0.5, 0.5], 0),
                                             ([[0.5, 0.5]], 1)])
    def test_distribution_shape_must_match_n_max(self, probs, n_max):
        with pytest.raises(DomainError, match="shape"):
            PhotonNumberDistribution(np.array(probs), n_max, 0.0)


def _oracle_distribution(state, n_max):
    probs = _recursion_oracle(state, n_max)
    return PhotonNumberDistribution(probs, n_max, max(0.0, 1.0 - probs.sum()))


class TestClickModelAgreement:
    """The click model sees the same distribution as with the recursion:
    the bright-squeezing benchmark state and the six rows of the sweep
    benchmark (`sweep --r 0.4 --thetas 0,5,10,15,20,22.5`)."""

    CASES = [(squeezed_vacuum_with_mean_photon(5.0),
              CountingConfig(n_windows=1_000_000, eta_det=0.5, n_max=256))] + [
        (reduce_mode(hwp_mix(two_mode_squeezed_vacuum(0.4), th), 1),
         CountingConfig(n_windows=1_000_000))
        for th in (0.0, 5.0, 10.0, 15.0, 20.0, 22.5)]

    @pytest.mark.parametrize("state,cfg", CASES)
    def test_click_probs_and_expected_g2(self, state, cfg):
        new = photon_number_distribution(state, cfg.n_max)
        old = _oracle_distribution(state, cfg.n_max)
        args = (cfg.eta_det, cfg.split, cfg.dark_prob)
        for q_new, q_old in zip(click_probs(new.probs, *args),
                                click_probs(old.probs, *args)):
            assert abs(q_new - q_old) <= 1e-13
        assert expected_click_g2(new, cfg) == pytest.approx(
            expected_click_g2(old, cfg), abs=1e-12, rel=0.0)
