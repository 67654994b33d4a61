import math

import numpy as np
import pytest

from wigg2.errors import DomainError, TruncationError
from wigg2.fock import (PhotonNumberDistribution, fock_wigner, g2_from_pn,
                        photon_number_distribution)
from wigg2.moments import g2_gaussian, weyl_moments_analytic
from wigg2.states import (coherent, squeezed_vacuum, thermal, vacuum)

from conftest import random_physical_state


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

    def test_non_finite_quadrature_raises_domain_error(self):
        # the quadrature overflows here; a TruncationError would suggest
        # a larger n_max, which overflows further
        with pytest.raises(DomainError, match="non-finite") as exc:
            photon_number_distribution(thermal(20.0), 256)
        assert not isinstance(exc.value, TruncationError)

    def test_accounting(self):
        d = photon_number_distribution(thermal(2.0), 60, tol=1e-6)
        assert d.probs.min() >= 0.0
        assert d.probs.sum() + d.tail_mass == pytest.approx(1.0, abs=1e-12)


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
