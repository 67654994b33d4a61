import math

import numpy as np
import pytest

from wigg2 import counting, fock, kernels
from wigg2.counting import (CountingConfig, CountingRecord,
                            bootstrap_g2_clicks, g2_estimate_clicks,
                            simulate_hbt)
from wigg2.errors import DomainError, InsufficientStatisticsError
from wigg2.fock import photon_number_distribution
from wigg2.states import (CovarianceMatrix, GaussianState, PhasePoint,
                          attenuate, coherent, displace, hwp_mix, overlap,
                          reduce_mode, squeezed_vacuum, squeezed_vacuum_with_mean_photon,
                          thermal, two_mode_squeezed_vacuum, vacuum)


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
    ], ids=["bootstrap_g2_clicks"])
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

    def test_n_max_has_no_effect(self):
        # p(n) of thermal(5) at n_max = 8 misses a fifth of the mass; the
        # closed form sums no p(n)
        recs = [simulate_hbt(thermal(5.0), CountingConfig(n_windows=100_000,
                                                          n_max=n_max, seed=4))
                for n_max in (8, 64)]
        assert recs[0].n1 > 0
        assert (recs[0].n1, recs[0].n2, recs[0].nc) == \
            (recs[1].n1, recs[1].n2, recs[1].nc)

    def test_builds_no_distribution(self, monkeypatch):
        args = (squeezed_vacuum_with_mean_photon(5.0),
                CountingConfig(n_windows=1_000_000, eta_det=0.5, n_max=256))
        want = simulate_hbt(*args)

        def refuse(*_, **__):
            raise AssertionError("photon_number_distribution called")
        monkeypatch.setattr(fock, "photon_number_distribution", refuse)
        monkeypatch.setattr(counting, "photon_number_distribution", refuse)
        assert simulate_hbt(*args) == want

    def test_unphysical_covariance_rejected(self):
        # positive definite, but det V < 1/4 by more than round-off:
        # simulate_hbt and photon_number_distribution read one rule, and
        # each names itself; a det V within round-off of 1/4 passes both
        cfg = CountingConfig(n_windows=10)
        calls = (("simulate_hbt", lambda s: simulate_hbt(s, cfg)),
                 ("photon_number_distribution",
                  lambda s: photon_number_distribution(s, 10, tol=1.0)))
        for cov in (CovarianceMatrix(0.1, 0.1), CovarianceMatrix(0.3, 0.3),
                    CovarianceMatrix(2.0, 0.2, 0.5),
                    CovarianceMatrix(0.5, 0.5 - 1e-11)):
            state = GaussianState(PhasePoint(0.0, 0.0), cov)
            for name, call in calls:
                with pytest.raises(DomainError, match=f"{name}.*no quantum"):
                    call(state)
        state = GaussianState(PhasePoint(0.0, 0.0),
                              CovarianceMatrix(0.5, 0.5 - 1e-13))
        for _, call in calls:
            call(state)

    def test_dark_counts_fire(self):
        rec = simulate_hbt(vacuum(), CountingConfig(n_windows=100_000,
                                                    dark_prob=0.01, seed=3))
        assert rec.n1 > 0 and rec.n2 > 0
        assert abs(rec.n1 / rec.n_windows - 0.01) < 0.002


def _sweep_row(theta):
    return reduce_mode(hwp_mix(two_mode_squeezed_vacuum(0.4), theta), 1)


class TestHbtStream:
    # Golden (n1, n2, nc) of simulate_hbt: the hbt_bright benchmark's
    # state and config, rows 0 (0 deg) and 5 (22.5 deg) of
    # `wigg2 sweep --r 0.4 --thetas 0,5,10,15,20,22.5 --seed 1` at their
    # row seeds 1 + 1_000_003 i, and `wigg2 count --thermal 0.2 --windows
    # 100000000 --seed 5`.  Any change to the click model's arithmetic,
    # to the binomial samplers or to the counter RNG's draws d + 3j moves
    # them; README lists the other stream pins to rewrite with them.
    BRIGHT = dict(n_windows=1_000_000, eta_det=0.5, n_max=256)

    @pytest.mark.parametrize("state, config, counts", [
        (squeezed_vacuum_with_mean_photon(5.0),
         CountingConfig(seed=0, **BRIGHT), (440415, 440287, 338915)),
        (squeezed_vacuum_with_mean_photon(5.0),
         CountingConfig(seed=1, **BRIGHT), (440505, 440257, 339249)),
        (_sweep_row(0.0), CountingConfig(n_windows=1_000_000, seed=1),
         (77490, 77723, 11095)),
        (_sweep_row(22.5),
         CountingConfig(n_windows=1_000_000, seed=1 + 5 * 1_000_003),
         (57797, 57632, 40650)),
        (thermal(0.2), CountingConfig(n_windows=100_000_000, seed=5),
         (9091764, 9089613, 1515436)),
    ], ids=["bright-seed0", "bright-seed1", "sweep-0deg", "sweep-22.5deg",
            "thermal-1e8"])
    def test_golden_counts(self, state, config, counts):
        rec = simulate_hbt(state, config)
        assert (rec.n1, rec.n2, rec.nc) == counts


def _random_state(rng, kind):
    """A thermal (kind 0) or squeezed (1) state, also attenuated (2), and
    then also displaced (3), every parameter drawn from rng."""
    if kind == 0:
        state = thermal(rng.uniform(0.0, 3.0))
    else:
        state = squeezed_vacuum(math.exp(rng.uniform(-1.2, 1.2)),
                                rng.uniform(0.0, math.pi))
    if kind >= 2:
        state = attenuate(state, rng.uniform(0.0, 1.0))
    if kind == 3:
        state = displace(state, *rng.uniform(-3.0, 3.0, 2))
    return state


class TestClosedFormClickProbs:
    # simulate_hbt's (q1, q2, qb) come from the state in closed form; the
    # Fock sum of kernels.click_probs over p(n) is the oracle
    def test_matches_fock_sum(self):
        rng = np.random.default_rng(2027)
        for i in range(2000):
            state = _random_state(rng, i % 4)
            cfg = CountingConfig(n_windows=10, eta_det=rng.uniform(0.0, 1.0),
                                 split=rng.uniform(0.01, 0.99),
                                 dark_prob=rng.uniform(0.0, 0.5))
            dist = photon_number_distribution(state, 500, tol=1e-14)
            want = kernels.click_probs(dist.probs, cfg.eta_det, cfg.split,
                                       cfg.dark_prob)
            got = counting._click_probs(state, cfg)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), (state, cfg)

    def test_no_click_does_not_increase_with_loss(self):
        rng = np.random.default_rng(2028)
        taus = np.linspace(0.0, 1.0, 65).tolist()
        for i in range(400):
            state = _random_state(rng, i % 4)
            q = [counting._no_click(state, tau) for tau in taus]
            assert q[0] == 1.0
            assert all(b <= a for a, b in zip(q, q[1:])), state

    def test_no_click_is_the_vacuum_overlap(self):
        # q(tau) = Tr(rho' |0><0|), rho' the state after loss 1 - tau
        rng = np.random.default_rng(2029)
        for _ in range(2000):
            state, tau = _random_state(rng, 3), rng.uniform(0.0, 1.0)
            want = overlap(attenuate(state, tau), vacuum())
            assert counting._no_click(state, tau) == pytest.approx(
                want, rel=1e-13, abs=0.0), (state, tau)

    # p(n) of thermal(2000) has a tail of 0.97 beyond the default n_max,
    # and that of coherent light of <n> = 800 overflows
    @pytest.mark.parametrize("state", [
        displace(thermal(1e150), 1e200, 0.0), squeezed_vacuum(300.0, 0.3),
        thermal(2000.0), coherent(40.0, 0.0)],
        ids=["displaced-thermal-1e150", "squeezed-300", "thermal-2000",
             "coherent-800"])
    @pytest.mark.parametrize("eta", [0.0, 5e-324, 1e-300, 1e-10, 0.5, 1.0])
    def test_finite_probabilities_at_extremes(self, state, eta):
        cfg = CountingConfig(n_windows=10, eta_det=eta, split=0.3,
                             dark_prob=0.01)
        q1, q2, qb = counting._click_probs(state, cfg)
        assert 0.0 <= qb <= min(q1, q2) <= max(q1, q2) <= 1.0
        assert simulate_hbt(state, cfg).n_windows == 10


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

    @pytest.mark.parametrize("n1, n2, N", [(0, 0, 0), (0, 5, 100)],
                             ids=["no-windows", "no-singles"])
    def test_bootstrap_without_singles(self, n1, n2, N):
        # a zero-window record divided by zero before the singles check
        rec = CountingRecord(n1, n2, 0, N, CountingConfig(n_windows=100))
        with pytest.raises(InsufficientStatisticsError, match="singles"):
            bootstrap_g2_clicks(rec, n_boot=10)

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
        # rates from counter uniforms u(seed, b, CLICK_MEMBER_DRAWS + 0..2),
        # as three conditional binomials, all of small mean; rates low
        # enough that some members have no singles
        N = 20_000
        rec = CountingRecord(3, 2, 1, N, CountingConfig(n_windows=N))
        # no-click rates: neither detector, detector 2 and detector 1
        qb, q2, q1 = (N - 4) / N, (N - 2) / N, (N - 3) / N
        ref = []
        for b in range(300):
            u = [kernels._uniform(8, b, kernels.CLICK_MEMBER_DRAWS + d)
                 for d in range(3)]
            none = int(kernels._binomial_icdf(N, qb, u[0]))
            only1 = int(kernels._binomial_icdf(N - none, (q2 - qb) / (1 - qb),
                                               u[1]))
            rest = N - none - only1
            only2 = int(kernels._binomial_icdf(rest, (q1 - qb) / (1 - q2),
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
        state = squeezed_vacuum_with_mean_photon(0.2)
        return [simulate_hbt(state, CountingConfig(n_windows=self.N, seed=s))
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

