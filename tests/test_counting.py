import math

import numpy as np
import pytest

from wigg2 import kernels
from wigg2.counting import (CountingConfig, CountingRecord,
                            bootstrap_g2_clicks, g2_estimate_clicks,
                            g2_estimate_numbers, sample_photon_numbers,
                            simulate_hbt, simulate_hbt_from_distribution)
from wigg2.errors import (DomainError, InsufficientStatisticsError,
                          TruncationError)
from wigg2.fock import photon_number_distribution
from wigg2.moments import g2_gaussian
from wigg2.states import (coherent, squeezed_vacuum_with_mean_photon, thermal,
                          vacuum)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            CountingConfig(n_windows=0)
        with pytest.raises(DomainError):
            CountingConfig(n_windows=10, eta_det=1.5)
        with pytest.raises(DomainError):
            CountingConfig(n_windows=10, dark_prob=1.0)
        with pytest.raises(DomainError):
            CountingConfig(n_windows=10, split=0.0)

    @pytest.mark.parametrize("field, value", [
        ("workers", 2.5), ("n_windows", 1e4), ("n_max", 64.0),
        ("workers", True), ("n_windows", "1000"), ("n_max", None)])
    def test_integer_fields(self, field, value):
        with pytest.raises(DomainError, match=field):
            CountingConfig(**{"n_windows": 1000, field: value})

    def test_negative_n_max_rejected_at_construction(self):
        with pytest.raises(DomainError, match="n_max"):
            CountingConfig(n_windows=1000, n_max=-1)
        assert CountingConfig(n_windows=1000, n_max=0).n_max == 0

    def test_window_bound(self):
        # the pmf tables of the click sampler stay below about 0.7M entries
        assert CountingConfig(n_windows=2**32).n_windows == 2**32
        with pytest.raises(DomainError, match="n_windows"):
            CountingConfig(n_windows=2**32 + 1)

    def test_numpy_integer_fields_accepted(self):
        cfg = CountingConfig(n_windows=np.int64(1000), n_max=np.int32(16),
                             workers=np.int64(2))
        assert simulate_hbt(vacuum(), cfg).n_windows == 1000

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(DomainError):
            CountingConfig(n_windows=10, seed=seed)

    @pytest.mark.parametrize("call", [
        lambda seed: bootstrap_g2_clicks(
            CountingRecord(100, 100, 5, 10_000,
                           CountingConfig(n_windows=10_000)), seed=seed),
        lambda seed: sample_photon_numbers(thermal(0.1), 10, seed=seed),
    ], ids=["bootstrap_g2_clicks", "sample_photon_numbers"])
    @pytest.mark.parametrize("seed", [-1, 2**63, 1.5])
    def test_estimator_seed_out_of_range(self, call, seed):
        with pytest.raises(DomainError, match="seed"):
            call(seed)


class TestSimulateHbt:
    def test_vacuum_dark_free(self):
        rec = simulate_hbt(vacuum(), CountingConfig(n_windows=10_000, seed=1))
        assert (rec.n1, rec.n2, rec.nc) == (0, 0, 0)

    def test_record_ordering_invariant(self):
        rec = simulate_hbt(thermal(0.3),
                           CountingConfig(n_windows=50_000, seed=2))
        assert rec.nc <= min(rec.n1, rec.n2) <= rec.n_windows

    def test_seed_determinism_across_workers(self):
        cfg = dict(n_windows=200_000, eta_det=0.5, seed=77)
        recs = [simulate_hbt(thermal(0.05), CountingConfig(workers=w, **cfg))
                for w in (1, 4, 8)]
        assert all((r.n1, r.n2, r.nc) == (recs[0].n1, recs[0].n2, recs[0].nc)
                   for r in recs)

    def test_truncation_pre_check_propagates(self):
        with pytest.raises(TruncationError):
            simulate_hbt(thermal(5.0), CountingConfig(n_windows=10, n_max=8))

    def test_dark_counts_fire(self):
        rec = simulate_hbt(vacuum(), CountingConfig(n_windows=100_000,
                                                    dark_prob=0.01, seed=3))
        assert rec.n1 > 0 and rec.n2 > 0
        assert abs(rec.n1 / rec.n_windows - 0.01) < 0.002


class TestClickEstimator:
    def test_arithmetic_identity(self):
        rec = CountingRecord(10_000, 10_000, 20, 10_000_000,
                             CountingConfig(n_windows=10_000_000))
        value, err = g2_estimate_clicks(rec)
        assert value == pytest.approx(2.0, rel=1e-12)
        assert err > 0

    def test_zero_coincidences(self):
        rec = CountingRecord(100, 90, 0, 100_000,
                             CountingConfig(n_windows=100_000))
        value, err = g2_estimate_clicks(rec)
        assert value == 0.0
        assert err > 0

    @pytest.mark.parametrize("n1, n2, nc, N", [
        (100, 100, 150, 1000),  # more coincidences than singles
        (900, 900, 100, 1000),  # more clicking windows than windows
        (5, 5, -1, 1000)])
    def test_inconsistent_counts_rejected(self, n1, n2, nc, N):
        with pytest.raises(DomainError, match="CountingRecord"):
            CountingRecord(n1, n2, nc, N, CountingConfig(n_windows=N))

    def test_zero_singles_error(self):
        rec = CountingRecord(0, 5, 0, 100, CountingConfig(n_windows=100))
        with pytest.raises(InsufficientStatisticsError):
            g2_estimate_clicks(rec)

    def test_thermal_statistical(self):
        rec = simulate_hbt(thermal(0.01),
                           CountingConfig(n_windows=5_000_000, eta_det=0.5,
                                          seed=11))
        value, err = g2_estimate_clicks(rec)
        assert abs(value - 2.0) < 3 * err

    def test_squeezed_matches_exact_click_expectation(self):
        # at eta = 0.5 the threshold-detector bias is large for bunched
        # near-vacuum light (O(eta * g2 * <n>)); the simulation must track
        # the exact click-probability prediction, not the photon-level g2
        from wigg2.counting import expected_click_g2
        st = squeezed_vacuum_with_mean_photon(0.01)
        cfg = CountingConfig(n_windows=5_000_000, eta_det=0.5, seed=13,
                             n_max=32)
        rec = simulate_hbt(st, cfg)
        value, err = g2_estimate_clicks(rec)
        exact = expected_click_g2(photon_number_distribution(st, 32), cfg)
        assert abs(value - exact) < 3 * err

    @pytest.mark.parametrize("state, eta", [(vacuum(), 1.0),
                                            (thermal(0.5), 0.0)])
    def test_expected_g2_without_clicks(self, state, eta):
        # no click probability at all; the vacuum's p(0) rounds to 1 + 2^-52
        from wigg2.counting import expected_click_g2
        dist = photon_number_distribution(state, 32)
        with pytest.raises(DomainError, match="never clicks"):
            expected_click_g2(dist, CountingConfig(n_windows=10, eta_det=eta))

    def test_squeezed_statistical_low_eta(self):
        # with eta small the bias shrinks and the estimator approaches
        # the photon-level value 3 + 1/<n> = 103
        st = squeezed_vacuum_with_mean_photon(0.01)
        rec = simulate_hbt(st, CountingConfig(n_windows=10_000_000,
                                              eta_det=0.05, seed=13, n_max=32))
        value, err = g2_estimate_clicks(rec)
        assert abs(value - 103.0) < 3 * err

    def test_loss_invariance_statistical(self):
        # estimates compatible across detector efficiencies
        st = thermal(0.02)
        vals = []
        for i, eta in enumerate([0.25, 0.5, 1.0]):
            rec = simulate_hbt(st, CountingConfig(n_windows=3_000_000,
                                                  eta_det=eta, seed=100 + i))
            vals.append(g2_estimate_clicks(rec))
        for v, e in vals:
            assert abs(v - 2.0) < 3 * e

    def test_coherent_click_probabilities_exact(self):
        # Poisson light: splits are independent, so click rates follow
        # p = 1 - exp(-mean * eta * split) and the estimator stays at 1
        mean = 0.2
        eta, split = 0.8, 0.5
        st = coherent(math.sqrt(2 * mean), 0.0)
        N = 2_000_000
        rec = simulate_hbt(st, CountingConfig(n_windows=N, eta_det=eta,
                                              seed=17))
        p_click = 1.0 - math.exp(-mean * eta * split)
        for singles in (rec.n1, rec.n2):
            se = math.sqrt(N * p_click * (1 - p_click))
            assert abs(singles - N * p_click) < 4 * se
        value, err = g2_estimate_clicks(rec)
        assert abs(value - 1.0) < 4 * err

    @pytest.mark.parametrize("n_boot", [-1, 0, 2.5])
    def test_bootstrap_rejects_n_boot(self, n_boot):
        rec = CountingRecord(100, 100, 5, 10_000,
                             CountingConfig(n_windows=10_000))
        with pytest.raises(DomainError, match="n_boot"):
            bootstrap_g2_clicks(rec, n_boot=n_boot)

    def test_bootstrap_matches_member_loop(self):
        # member b draws the four-pattern multinomial at the observed
        # rates from counter uniforms u(seed, b, 0..2), as three
        # conditional binomials; rates low enough that some members have
        # no singles
        N = 20_000
        rec = CountingRecord(3, 2, 1, N, CountingConfig(n_windows=N))
        # no-click rates: neither detector, detector 2 and detector 1
        qb, q2, q1 = (N - 4) / N, (N - 2) / N, (N - 3) / N
        ref = []
        for b in range(300):
            u = [kernels._uniform(8, b, d) for d in range(3)]
            none = int(kernels.binomial_icdf(N, qb, u[0]))
            only1 = int(kernels.binomial_icdf(N - none, (q2 - qb) / (1 - qb),
                                              u[1]))
            rest = N - none - only1
            only2 = int(kernels.binomial_icdf(rest, (q1 - qb) / (1 - q2),
                                              u[2])) if rest else 0
            both = rest - only2
            x, y = only1 + both, only2 + both
            if x and y:
                ref.append(both * N / (x * y))
        assert len(ref) < 300
        assert bootstrap_g2_clicks(rec, n_boot=300, seed=8).tolist() == ref

    def test_bootstrap_draws(self):
        rec = simulate_hbt(thermal(0.05),
                           CountingConfig(n_windows=1_000_000, seed=19))
        draws = bootstrap_g2_clicks(rec, n_boot=100, seed=5)
        value, err = g2_estimate_clicks(rec)
        assert abs(np.mean(draws) - value) < 3 * err


class TestClickErrorBars:
    # the sweep's regime: squeezed vacuum with <n> = 0.2 at eta = 1, where
    # singles and coincidences are strongly correlated
    N, SEEDS = 1_000_000, 500

    @pytest.fixture(scope="class")
    def records(self):
        dist = photon_number_distribution(
            squeezed_vacuum_with_mean_photon(0.2), 64, tol=1e-9)
        return [simulate_hbt_from_distribution(
                    dist, CountingConfig(n_windows=self.N, seed=s))
                for s in range(self.SEEDS)]

    def test_reported_error_matches_spread(self, records):
        values, errs = zip(*(g2_estimate_clicks(r) for r in records))
        ratio = float(np.median(errs)) / float(np.std(values, ddof=1))
        assert abs(ratio - 1.0) < 0.15, ratio

    def test_bootstrap_matches_spread(self, records):
        values = [g2_estimate_clicks(r)[0] for r in records]
        boot = bootstrap_g2_clicks(records[0], n_boot=400, seed=3)
        ratio = float(boot.std(ddof=1)) / float(np.std(values, ddof=1))
        assert abs(ratio - 1.0) < 0.15, ratio


class TestNumberEstimator:
    def test_all_ones(self):
        value, err = g2_estimate_numbers(np.ones(1000, dtype=int))
        assert value == 0.0

    def test_all_zero_error(self):
        with pytest.raises(DomainError):
            g2_estimate_numbers(np.zeros(100, dtype=int))

    @pytest.mark.parametrize("state, n", [
        (thermal(1.0), 100_000), (thermal(0.5), 10_000),
        (coherent(math.sqrt(2.0), 0.0), 100_000), (thermal(0.01), 100_000),
    ], ids=["thermal1", "thermal0.5", "coherent", "thermal0.01"])
    def test_delta_error_matches_bootstrap(self, state, n):
        # the delta-method error against the spread of a multinomial
        # bootstrap of the empirical distribution, 2000 members
        samples = sample_photon_numbers(state, n, seed=4)
        counts = np.bincount(samples)
        boot = np.random.default_rng(6).multinomial(
            samples.size, counts / samples.size, size=2000)
        k = np.arange(len(counts), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (boot @ (k * (k - 1.0))) * samples.size / (boot @ k) ** 2
        ratios = ratios[np.isfinite(ratios)]
        value, err = g2_estimate_numbers(samples)
        assert value == pytest.approx(
            np.dot(counts, k * (k - 1.0)) * n / np.dot(counts, k) ** 2,
            rel=1e-12)
        assert abs(err / ratios.std(ddof=1) - 1.0) < 0.1

    @pytest.mark.parametrize("samples", [
        [-1, 2, 3], [1.5, 2.5, 0.7], [1, math.nan, 2], [1, math.inf],
        [2.0**53, 1], [[1, 2], [3, 4]], [],
    ], ids=["negative", "fractional", "nan", "inf", "2**53", "2-D", "empty"])
    def test_rejects_non_count_samples(self, samples):
        with pytest.raises(DomainError, match="g2_estimate_numbers"):
            g2_estimate_numbers(samples)

    def test_float_integer_samples_accepted(self):
        ints = sample_photon_numbers(thermal(0.3), 1_000, seed=9)
        assert g2_estimate_numbers(ints.astype(float)) == \
            g2_estimate_numbers(ints)

    @pytest.mark.parametrize("n_samples", [-1, 2.5, "10"])
    def test_rejects_n_samples(self, n_samples):
        with pytest.raises(DomainError, match="n_samples"):
            sample_photon_numbers(thermal(0.3), n_samples)

    def test_thermal_converges(self):
        s = sample_photon_numbers(thermal(1.0), 1_000_000, seed=23)
        value, err = g2_estimate_numbers(s)
        assert abs(value - 2.0) < 3 * err

    def test_coherent_converges(self):
        s = sample_photon_numbers(coherent(math.sqrt(2.0), 0.0), 1_000_000,
                                  seed=29)
        value, err = g2_estimate_numbers(s)
        assert abs(value - 1.0) < 3 * err

    def test_consistency_rate(self):
        # error shrinks roughly as N^{-1/2} toward the analytic value
        st = thermal(0.5)
        target = g2_gaussian(st).value
        errs = []
        for n in (10_000, 100_000, 1_000_000):
            s = sample_photon_numbers(st, n, seed=31)
            value, err = g2_estimate_numbers(s)
            assert abs(value - target) < 4 * err
            errs.append(err)
        assert errs[2] < errs[0] / 3
