import itertools
import math
import operator
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigg2 import kernels
from wigg2.counting import CountingConfig, expected_click_g2
from wigg2.errors import DomainError
from wigg2.fock import photon_number_distribution
from wigg2.kernels import (CLICK_MEMBER_DRAWS, MEMBER_DRAWS, SAMPLE_DRAWS,
                           binomial, click_counts, click_probs, uniforms_np)
from wigg2.states import squeezed_vacuum_with_mean_photon, thermal


# Independent reference for the counter RNG in Python ints, masked to 64
# bits at every step (numpy only lays out the bytes):
#     u(seed, i, draw) = (mix64(k + i*phi) >> 11) * 2^-53,
#     k = mix64(seed ^ mix64(draw * STEP)),
# with mix64 the splitmix64 output function, including its + phi.
_MASK = 2**64 - 1
_PHI = 0x9E3779B97F4A7C15
_STEP = 0xD1342543DE82EF95


def _mix_oracle(z, ones=1):
    """mix64 of each 64-bit value packed in z.  Value j sits in bits
    [128j, 128j + 64) and ones = sum of 2^(128j) (1 for a plain int).
    Every value is masked below 2^64 before each multiply, so a product
    with a 64-bit constant stays inside its 128-bit lane, and the bits
    that z >> s brings down from the next lane are masked off."""
    m = _MASK * ones
    z = (z + _PHI * ones) & m
    z = ((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9 & m
    z = ((z ^ (z >> 27)) & m) * 0x94D049BB133111EB & m
    return (z ^ (z >> 31)) & m


def _pack(values):
    lanes = np.zeros((len(values), 2), dtype="<u8")
    lanes[:, 0] = values
    return int.from_bytes(lanes.tobytes(), "little")


def _hashes_oracle(seed, idx, draw):
    """mix64(k + i*phi) of each i in idx, packed as in _mix_oracle."""
    k = _mix_oracle(seed ^ _mix_oracle((draw * _STEP) & _MASK))
    ones = _pack(np.ones(len(idx), dtype=np.uint64))
    return _mix_oracle((k * ones + _pack(idx) * _PHI) & (_MASK * ones),
                       ones)


def _unpack(z, count):
    """The low 64 bits of each of the count lanes of z."""
    return np.frombuffer(z.to_bytes(16 * count, "little"), dtype="<u8")[::2]


def _uniforms_oracle(seed, idx, draw):
    z = _hashes_oracle(seed, idx, draw)
    return _unpack(z >> 11, len(idx)) * 2.0**-53  # each lane < 2^53


def _uniform_oracle(seed, i, draw):
    """u(seed, i, draw) of the one stream index i."""
    return float(_uniforms_oracle(seed, np.array([i], dtype=np.uint64),
                                  draw)[0])


class TestCounterRng:
    def test_uniform_range_and_determinism(self):
        idx = np.arange(10000, dtype=np.uint64)
        u = uniforms_np(123, idx, 0)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert np.array_equal(u, uniforms_np(123, idx, 0))
        assert not np.array_equal(u, uniforms_np(124, idx, 0))
        assert not np.array_equal(u, uniforms_np(123, idx, 1))

    def test_uniformity(self):
        idx = np.arange(200_000, dtype=np.uint64)
        u = uniforms_np(7, idx, 0)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.002

    @pytest.mark.parametrize("seed,idx,draw,expected", [
        (0, 0, 0, 0.13870941014555427),
        (0, 1, 0, 0.9711020828012883),
        (7, 12345, 1, 0.08234792001996238),
        (2**63 - 1, 2**40, 4, 0.00903879594391288),
        (123, 999_999, 2, 0.1983486483763104),
    ])
    def test_golden_values(self, seed, idx, draw, expected):
        u = uniforms_np(seed, np.array([idx], dtype=np.uint64), draw)
        assert u[0] == expected
        assert kernels._uniform(seed, idx, draw) == expected

    def test_matches_oracle(self):
        idx = np.arange(2**40, 2**40 + 5000, dtype=np.uint64)
        for seed in (0, 7, 2**63 - 1):
            for draw in (0, 1, 4):
                assert np.array_equal(uniforms_np(seed, idx, draw),
                                      _uniforms_oracle(seed, idx, draw))

    def test_scalar_matches_oracle(self):
        # the scalar path derives its key from the memoised draw half:
        # random (seed, i, draw) over the full seed and index ranges, the
        # top seed and indices >= 2^40, with draws in all four ranges
        rng = random.Random(5)
        bases = (0, CLICK_MEMBER_DRAWS, SAMPLE_DRAWS, MEMBER_DRAWS)
        for j in range(2400):
            seed = 2**63 - 1 if j % 3 == 0 else rng.randrange(2**63)
            i = rng.randrange(2**40, 2**64) if j % 2 else rng.randrange(2**20)
            draw = bases[j % 4] + rng.randrange(64)
            assert kernels._uniform(seed, i, draw) == _uniform_oracle(
                seed, i, draw), (seed, i, draw)

    # stream quality of the key derivation, over N indices each: a
    # correlation of independent uniforms is about N(0, 1/N)
    N = 200_000

    @staticmethod
    def _corr(a, b):
        return abs(np.corrcoef(a, b)[0, 1])

    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 2])
    def test_draws_uncorrelated(self, seed):
        idx = np.arange(self.N, dtype=np.uint64)
        assert self._corr(uniforms_np(seed, idx, 0),
                          uniforms_np(seed, idx, 1)) < 5 / math.sqrt(self.N)

    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 2])
    def test_adjacent_seeds_uncorrelated(self, seed):
        idx = np.arange(self.N, dtype=np.uint64)
        assert self._corr(uniforms_np(seed, idx, 0),
                          uniforms_np(seed + 1, idx, 0)) < 5 / math.sqrt(self.N)


# Frozen oracle: the per-window HBT kernel the multinomial sampler
# replaced.  Window w draws u = u(seed, w, 0) and compares its 53 bits
# with the integer cuts of qb, q2 and q2 + (q1 - qb): [0, qb) none,
# [qb, q2) detector 1 only, [q2, q2 + q1 - qb) detector 2 only, the rest
# both.  A chunk starting at window lo hashes w*phi = lo*phi + j*phi
# (mod 2^64), one scalar added to the shared row j*phi.
def _per_window_counts(p, eta, split, dark, seed, start, stop,
                       chunk=65_536):
    n1 = n2 = nc = 0
    q1, q2, qb = click_probs(p, eta, split, dark)
    # u = bits * 2^-53 < c exactly when bits < ceil(c * 2^53)
    cuts = [np.uint64(min(math.ceil(c * 2.0**53), 2**53))
            for c in (qb, q2, q2 + (q1 - qb))]
    key = kernels._key(seed, 0)
    row = np.arange(max(0, min(chunk, stop - start)), dtype=np.uint64)
    np.multiply(row, kernels._PHI64, out=row)
    z, tmp = np.empty_like(row), np.empty_like(row)
    below = np.empty(len(row), dtype=bool)
    for lo in range(start, stop, chunk):
        k = min(chunk, stop - lo)
        np.copyto(z[:k], row[:k])
        bits = kernels._draw_bits(z[:k], lo * _PHI + key, tmp[:k])
        # windows below each cut: no click, detector 2 silent, not both
        none, silent2, not_both = (int(np.count_nonzero(
            np.less(bits, c, out=below[:k]))) for c in cuts)
        n1 += silent2 - none + k - not_both
        n2 += k - silent2
        nc += k - not_both
    return n1, n2, nc


def _counts_reference(p, eta, split, dark, seed, start, stop):
    """The per-window counts from the Python-int stream, with the
    click-pattern cuts computed in plain Python floats."""
    p = [float(pn) for pn in p]
    p[-1] += 1.0 - math.fsum(p)  # missing mass counts as the last n

    def silent(q):
        return math.fsum(pn * q ** n for n, pn in enumerate(p))

    q1 = (1 - dark) * silent(1 - eta * split)
    q2 = (1 - dark) * silent(1 - eta * (1 - split))
    qb = (1 - dark) ** 2 * silent(1 - eta)
    n1 = n2 = nc = 0
    idx = np.arange(start, stop, dtype=np.uint64)
    for u in _uniforms_oracle(seed, idx, 0).tolist():
        if u < qb:
            continue  # no click
        if u < q2:
            n1 += 1  # detector 1 only
        elif u < q2 + q1 - qb:
            n2 += 1  # detector 2 only
        else:
            n1, n2, nc = n1 + 1, n2 + 1, nc + 1
    return n1, n2, nc


def _chi2_sf(x, dof):
    """P(chi^2 with dof degrees of freedom > x), from the series of the
    regularised lower incomplete gamma function P(dof/2, x/2)."""
    if x <= 0.0:
        return 1.0
    a, y = dof / 2.0, x / 2.0
    term = math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
    total, n = 0.0, 0
    while term > 1e-17 * total:
        total += term
        n += 1
        term *= y / (a + n)
    return max(0.0, 1.0 - total)


def _homogeneity_pvalue(a, b, bins=10):
    """p-value of the chi^2 test that samples a and b share one law, on
    bins cut at the pooled deciles (ties go to the bin above)."""
    pooled = np.concatenate([a, b])
    edges = np.unique(np.quantile(pooled, np.linspace(0, 1, bins + 1)[1:-1]))
    table = np.array([np.bincount(np.searchsorted(edges, s, side="right"),
                                  minlength=len(edges) + 1) for s in (a, b)])
    table = table[:, table.sum(axis=0) > 0]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    assert expected.min() >= 5, "bins too thin for the chi^2 law"
    chi2 = float(np.sum((table - expected) ** 2 / expected))
    return _chi2_sf(chi2, table.shape[1] - 1)


def _binom_pmf(n, p, kmax=None):
    """Exact-formula Bin(n, p) pmf from math.comb, for k <= kmax."""
    q = 1.0 - p
    return [math.comb(n, k) * p ** k * q ** (n - k)
            for k in range(min(n, n if kmax is None else kmax) + 1)]


def _pmf_pvalue(ks, pmf):
    """p-value of the chi^2 test that the integer draws ks follow pmf
    (k = 0..len(pmf) - 1), with every k of expected count below 5, and
    every k past the end of pmf, in one bin."""
    M = len(ks)
    expected = M * np.array(pmf)
    observed = np.bincount(ks, minlength=len(pmf))[:len(pmf)]
    big = expected >= 5
    obs = np.append(observed[big], M - observed[big].sum())
    exp = np.append(expected[big], M - expected[big].sum())
    assert exp[-1] > 0.0
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    return _chi2_sf(chi2, len(obs) - 1)


class TestChi2Helper:
    @pytest.mark.parametrize("x, dof, sf", [
        (17.0, 22, 0.7633619791340178), (21.107513466160444, 3, 1e-4),
        (33.719948438964906, 9, 1e-4)])
    def test_survival_function(self, x, dof, sf):
        assert _chi2_sf(x, dof) == pytest.approx(sf, rel=1e-9)


class TestPerWindowOracle:
    @pytest.mark.parametrize("p, eta, split, dark, seed, start, chunk", [
        ([0.6, 0.25, 0.1, 0.04, 0.01], 0.6, 0.4, 0.02, 2**63 - 5, 0, 65_536),
        ([0.2, 0.3, 0.3, 0.1], 0.9, 0.5, 0.1, 12345, 70_000, 1_000),
        (np.full(40, 0.8 / 40), 0.3, 0.7, 0.005, 2**62 + 1, 2**40, 3_001),
    ])
    def test_matches_reference(self, p, eta, split, dark, seed, start,
                               chunk):
        stop = start + 4_096
        assert _per_window_counts(p, eta, split, dark, seed, start, stop,
                                  chunk=chunk) == _counts_reference(
            p, eta, split, dark, seed, start, stop)


class TestSamplerLaw:
    SEEDS = 500

    @pytest.mark.parametrize("regime", ["low_flux", "bright"])
    def test_matches_per_window_oracle(self, regime):
        # the sampler and the frozen per-window oracle draw the same law:
        # a chi^2 homogeneity test on each count and on g2 over many seeds
        # (disjoint seed sets, so the two streams never share a uniform)
        if regime == "low_flux":
            dist = photon_number_distribution(thermal(0.05), 32)
            args = (dist.probs, 0.5, 0.5, 0.001)
        else:  # hbt_bright's squeezed vacuum with <n> = 5 at eta 0.5
            from wigg2.states import squeezed_vacuum_with_mean_photon
            dist = photon_number_distribution(
                squeezed_vacuum_with_mean_photon(5.0), 256)
            args = (dist.probs, 0.5, 0.5, 0.0)
        N = 50_000
        ours = np.array([_hbt(*args, s, N)
                         for s in range(self.SEEDS)], dtype=np.float64)
        oracle = np.array([_per_window_counts(*args, 10_000 + s, 0, N)
                           for s in range(self.SEEDS)], dtype=np.float64)

        def stats(c):
            n1, n2, nc = c.T
            return n1, n2, nc, nc * N / (n1 * n2)

        for name, a, b in zip(("n1", "n2", "nc", "g2"), stats(ours),
                              stats(oracle)):
            assert _homogeneity_pvalue(a, b) > 1e-4, name


def _table_icdf(n, p, u):
    """Frozen copy of the small-mean inversion that the sequential search
    replaced, vectorized over u: the smallest k with u < F(k), F the CDF
    of a pmf table over mode +- (10 sigma + 40), sigma = sqrt(n p q),
    built by the ratio recurrence outward from the mode and scaled by its
    own sum."""
    if n == 0 or p <= 0.0:
        return np.zeros(np.shape(u), dtype=np.int64)[()]
    if p >= 1.0:
        return np.full(np.shape(u), n, dtype=np.int64)[()]
    q = 1.0 - p
    mode = min(int((n + 1) * p), n)
    half = math.ceil(10.0 * math.sqrt(n * p * q) + 40.0)
    lo, hi = max(mode - half, 0), min(mode + half, n)
    odds = p / q
    k = np.arange(mode, hi, dtype=np.float64)
    up = np.cumprod((n - k) / (k + 1.0) * odds)
    k = np.arange(mode, lo, -1, dtype=np.float64)
    down = np.cumprod(k / (n - k + 1.0) / odds)
    cdf = np.cumsum(np.concatenate((down[::-1], [1.0], up)))
    j = np.searchsorted(cdf, np.multiply(u, cdf[-1]), side="right")
    return lo + np.minimum(j, hi - lo)


class TestBinomialIcdf:
    @pytest.mark.parametrize("n, p, expected", [
        (0, 0.3, 0), (0, 0.0, 0), (0, 1.0, 0), (5, 0.0, 0), (5, 1.0, 5),
        (1, 0.0, 0), (1, 1.0, 1)])
    def test_degenerate(self, n, p, expected):
        for u in (0.0, 0.5, 1.0 - 2.0**-53):
            assert kernels._binomial_icdf(n, p, u) == expected

    @pytest.mark.parametrize("n, p", [
        (1, 0.5), (1, 1e-12), (1, 1.0 - 1e-12), (50, 1e-12),
        (50, 1.0 - 1e-12), (40, 0.5), (1000, 0.01), (1000, 0.97),
        (10**6, 1e-12), (5, 0.2), (5, 0.8), (2**32, 4 / 2**32),
        (2**32, 1.0 - 4 / 2**32)])
    def test_breakpoints_match_exact_cdf(self, n, p):
        # u in [F(k-1), F(k)) must give k: probe 1e-9 inside each end
        icdf = kernels._binomial_icdf
        pmf = _binom_pmf(n, p, kmax=30 if n > 1000 else None)
        prev = 0.0
        for k, pk in enumerate(pmf):
            cdf = math.fsum(pmf[:k + 1])
            if pk > 1e-7:
                assert icdf(n, p, prev + 1e-9) == k
                assert icdf(n, p, cdf - 1e-9) == k
            prev = cdf
        # u = 1 - 2^-53 may leave u above the summed mass by round-off,
        # and so does 1 - u = 1 on the reflected side of p = 1/2
        for u in (0.0, 1.0 - 2.0**-53):
            assert 0 <= icdf(n, p, u) <= n

    @pytest.mark.parametrize("n, p", [(40, 0.5), (1000, 0.01), (1000, 0.97),
                                      (25, 0.2)])
    def test_counter_draws_follow_exact_pmf(self, n, p):
        M = 20_000
        u = uniforms_np(2024, np.arange(M, dtype=np.uint64), 0)
        ks = [kernels._binomial_icdf(n, p, x) for x in u.tolist()]
        assert _pmf_pvalue(ks, _binom_pmf(n, p)) > 1e-4

    # below mean 10, both sides of p = 1/2, up to n = 2^32 at mean 4, and
    # the degenerate cases: 9 x 2^17 > 1e6 counter uniforms in all
    @pytest.mark.parametrize("n, p", [
        (5, 0.3), (5, 0.7), (40, 0.2), (1000, 0.995), (2**32, 4 / 2**32),
        (2**32, 1.0 - 4 / 2**32), (0, 0.3), (7, 0.0), (7, 1.0)])
    def test_matches_frozen_table(self, n, p):
        M = 1 << 17
        u = uniforms_np(31, np.arange(M, dtype=np.uint64), 0)
        want = _table_icdf(n, p, u).tolist()
        assert [kernels._binomial_icdf(n, p, x) for x in u.tolist()] == want


class TestBinomial:
    @pytest.mark.parametrize("n, p", [
        (40, 0.3), (10**4, 0.3), (10**6, 0.7), (2**32, 0.4588314677411236)])
    def test_matches_oracle(self, n, p):
        # 200 indices, 50 at 2^32 where the oracle sums about 3e4 logs
        # per full test: a fifth or more of the tries leave the squeeze for
        # the full acceptance test, and some of those are rejected
        count = 50 if n > 10**6 else 200
        for i in range(count):
            assert binomial(n, p, 11, i, 1) == _binomial_oracle(n, p, 11, i,
                                                                1)

    @pytest.mark.parametrize("n, p", [
        (40, 0.2), (1000, 0.995),  # mean below 10: the inverse CDF
        (40, 0.3), (100, 0.5), (1000, 0.02), (1000, 0.7),  # BTRS
        (2**32, 12 / 2**32)])
    def test_follows_exact_pmf(self, n, p):
        # at n = 2^32 the pmf past k = 34 (mass below 1e-6) is one bin
        M = 20_000
        ks = np.array([binomial(n, p, 2024, i, 0) for i in range(M)])
        pmf = _binom_pmf(n, p, kmax=34 if n > 10**6 else None)
        assert sum(e >= 5 for e in M * np.array(pmf)) >= 10
        assert _pmf_pvalue(ks, pmf) > 1e-4

    @pytest.mark.parametrize("n, p", [
        (0, 0.3), (5, 1.0), (7, 0.0), (40, 0.2), (1000, 0.995), (19, 0.5),
        (2**32, 1e-9)])
    def test_small_mean_is_icdf(self, n, p):
        for seed, i, d in ((0, 0, 0), (3, 2**40, 2), (2**63 - 1, 7,
                                                      CLICK_MEMBER_DRAWS)):
            assert binomial(n, p, seed, i, d) == kernels._binomial_icdf(
                n, p, _uniform_oracle(seed, i, d))

    def test_stirling_remainder(self):
        # fc(k) = log k! - (k + 1/2) log(k + 1) + (k + 1) - log(2 pi)/2:
        # the table to 5e-15, the series to its first omitted term,
        # 1/(1680 (k + 1)^7), plus a few ulps of the terms that cancel
        for k in range(100):
            log_term = (k + 0.5) * math.log(k + 1)
            fc = (math.lgamma(k + 1) - log_term + k + 1
                  - 0.5 * math.log(2 * math.pi))
            tol = 5e-15 if k <= 9 else (1 / (1680 * (k + 1) ** 7)
                                        + 8 * 2.0**-53 * (log_term + k + 1))
            assert abs(kernels._fc(k) - fc) <= tol, k

    def test_mean_tries_at_hbt_bright(self, monkeypatch):
        # every binomial at hbt_bright's rates is BTRS, two uniforms a try
        dist = photon_number_distribution(
            squeezed_vacuum_with_mean_photon(5.0), 256)
        q = click_probs(dist.probs, 0.5, 0.5, 0.0)
        calls = []
        uniform = kernels._uniform

        def counting(*args):
            calls.append(args)
            return uniform(*args)

        monkeypatch.setattr(kernels, "_uniform", counting)
        seeds = 1000
        for seed in range(seeds):
            click_counts(10**6, *q, seed, 0)
        assert len(calls) / 2 / (3 * seeds) <= 1.3


class TestClickPattern:
    @pytest.mark.parametrize("eta", [0.5, 0.95])
    def test_no_underflow_at_large_photon_number(self, eta):
        # 1100 photons at eta >= 0.5: both detectors fire in every window
        # (the no-click probabilities are below 1e-137)
        assert _hbt(_point_mass(1100), eta, 0.5, 0.0, 3,
                    10_000) == (10_000, 10_000, 10_000)

    def test_vacuum_never_clicks(self):
        assert _hbt(_point_mass(0), 0.9, 0.5, 0.0, 3, 10**6) == (0, 0, 0)

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_pattern_frequencies(self, n):
        eta, split, N = 0.6, 0.3, 200_000
        n1, n2, nc = _hbt(_point_mass(n), eta, split, 0.0, 41, N)
        qb = (1 - eta) ** n
        q1 = (1 - eta * split) ** n
        q2 = (1 - eta * (1 - split)) ** n
        observed = (N - n1 - n2 + nc, n1 - nc, n2 - nc, nc)
        expected = (qb, q2 - qb, q1 - qb, 1 - q1 - q2 + qb)
        for count, p in zip(observed, expected):
            p = min(max(p, 0.0), 1.0)  # round-off of an exact 0 (n = 1)
            assert abs(count - N * p) <= 5 * math.sqrt(N * p * (1 - p))

    @settings(max_examples=40, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
           mass=st.floats(0.5, 1.0),
           eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           split=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           dark=st.floats(0.0, 0.1, exclude_max=True),
           seed=st.integers(0, 2**63 - 1),
           start=st.integers(0, 2**40),
           windows=st.integers(0, 2**32))
    def test_count_invariants(self, weights, mass, eta, split, dark, seed,
                              start, windows):
        w = np.asarray(weights) + 1e-3
        p = mass * w / w.sum()
        counts = _hbt(p, eta, split, dark, seed, windows, start)
        n1, n2, nc = counts
        assert 0 <= nc <= min(n1, n2) <= windows
        assert counts == _hbt(p, eta, split, dark, seed, windows, start)

    def test_window_bound(self):
        n1, n2, nc = _hbt([0.5, 0.3, 0.2], 0.5, 0.5, 0.0, 1, 2**32)
        assert 0 <= nc <= min(n1, n2) <= 2**32
        with pytest.raises(DomainError, match="2\\*\\*32"):
            click_counts(2**32 + 1, 0.5, 0.5, 0.25, 1, 0)

    def test_conditional_binomials(self):
        # click_counts is the three conditional binomials of the module
        # docstring, binomial d from draws draw + d + 3j of one index:
        # all BTRS, BTRS and the inverse CDF from the bootstrap's draws,
        # hbt_bright's rates at 2^32 windows, and all inverse CDF
        for n, q1, q2, qb, seed, i, draw in [
                (10**5, 0.8, 0.7, 0.6, 5, 17, 0),
                (10**4, 0.9, 0.5003, 0.5, 9, 3, CLICK_MEMBER_DRAWS),
                (2**32, 0.560112033611204, 0.560112033611204,
                 0.4588314677411236, 2**63 - 1, 2**40, 0),
                (1000, 0.999, 0.998, 0.9975, 3, 0, 0)]:
            none = _binomial_oracle(n, qb, seed, i, draw)
            only1 = _binomial_oracle(n - none, (q2 - qb) / (1 - qb), seed,
                                     i, draw + 1)
            rest = n - none - only1
            only2 = _binomial_oracle(rest, min((q1 - qb) / (1 - q2), 1.0),
                                     seed, i, draw + 2) if rest else 0
            both = rest - only2
            assert click_counts(n, q1, q2, qb, seed, i, draw) == (
                only1 + both, only2 + both, both)


class TestScalarArguments:
    # numpy integer seeds, indices and draws give the Python-int results:
    # np.int64 ^ a 64-bit Python int raises OverflowError, and np.uint64
    # arithmetic wraps with a RuntimeWarning, so every argument goes
    # through int() before the key arithmetic
    CASES = [(0, 0, 0), (7, 12345, 4), (2**63 - 1, 2**40, 1),
             (123, 999_999, CLICK_MEMBER_DRAWS + 3)]

    @pytest.mark.parametrize("cast", [np.int64, np.uint64])
    def test_key_and_uniform(self, cast):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed, i, draw in self.CASES:
                key = kernels._key(cast(seed), cast(draw))
                assert type(key) is int
                assert key == kernels._key(seed, draw)
                u = kernels._uniform(cast(seed), cast(i), cast(draw))
                assert type(u) is float
                assert u == kernels._uniform(seed, i, draw)
            big = kernels._uniform(2**63 - 1, 2**64 - 1, MEMBER_DRAWS + 5)
            assert kernels._uniform(np.uint64(2**63 - 1), np.uint64(2**64 - 1),
                                    np.uint64(MEMBER_DRAWS + 5)) == big

    @pytest.mark.parametrize("cast", [np.int64, np.uint64])
    def test_binomial_and_click_counts(self, cast):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed, i, draw in self.CASES:
                # the inverse CDF and BTRS
                for n, p in ((50, 0.1), (10**6, 0.3)):
                    k = binomial(n, p, cast(seed), cast(i), cast(draw))
                    assert type(k) is int
                    assert k == binomial(n, p, seed, i, draw)
                got = click_counts(10**6, 0.56, 0.56, 0.46, cast(seed),
                                   cast(i), cast(draw))
                assert all(type(c) is int for c in got)
                assert got == click_counts(10**6, 0.56, 0.56, 0.46, seed, i,
                                           draw)

    def test_click_counts_range_edges(self):
        # the top seed and index are draws like any other (test_arguments
        # holds the refusals just outside)
        for seed, i in ((0, 0), (2**63 - 1, 2**64 - 1)):
            n1, n2, nc = click_counts(1000, 0.8, 0.7, 0.6, seed, i)
            assert 0 <= nc <= min(n1, n2) <= 1000


def _binomial_oracle(n, p, seed, i, d):
    """Bin(n, p) by the layout of the kernels docstring, one index at a
    time on the Python-int uniforms: the frozen table inversion at
    u(seed, i, d) below mean 10, else BTRS on min(p, 1 - p) with try j at draws d + 6j
    and d + 6j + 3, its acceptance test taken against log f(k)/f(m) summed
    exactly from the pmf ratios instead of Stirling's series."""
    if n * min(p, 1.0 - p) < 10.0:
        return int(_table_icdf(n, p, _uniform_oracle(seed, i, d)))
    if p > 0.5:
        return n - _binomial_oracle(n, 1.0 - p, seed, i, d)
    q = 1.0 - p
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    m = math.floor((n + 1) * p)

    def log_ratio(k):
        # log f(k)/f(m) = sum of log f(j+1)/f(j) = log((n-j) p/((j+1) q))
        terms = (math.log((n - j) * p / ((j + 1) * q))
                 for j in range(min(k, m), max(k, m)))
        return math.fsum(terms) if k >= m else -math.fsum(terms)

    for j in itertools.count():
        u = _uniform_oracle(seed, i, d + 6 * j) - 0.5
        v = _uniform_oracle(seed, i, d + 6 * j + 3)
        us = 0.5 - abs(u)
        k = math.floor((2 * a / us + b) * u + n * p + 0.5)
        if not 0 <= k <= n:
            continue
        if us >= 0.07 and v <= 0.92 - 4.2 / b:
            return k
        if math.log(v * alpha / (a / us ** 2 + b)) <= log_ratio(k):
            return k


def _hbt(p, eta, split, dark, seed, n, i=0):
    """(n1, n2, nc) of n windows at the no-click probabilities of the
    photon-number probabilities p, drawn at stream index i."""
    return click_counts(n, *click_probs(p, eta, split, dark), seed, i)


def _point_mass(n):
    p = np.zeros(n + 1)
    p[n] = 1.0
    return p


def _click_probs_loop(p, eta, split, dark):
    """Frozen copy of click_probs as it took each product in a Python
    loop over n."""
    p = np.asarray(p, dtype=np.float64).tolist()
    p[-1] += 1.0 - math.fsum(p)
    n = np.arange(len(p), dtype=np.float64)
    q1, q2, qb = (math.fsum(map(operator.mul, p, (q ** n).tolist()))
                  for q in (1.0 - eta * split, 1.0 - eta * (1.0 - split),
                            1.0 - eta))
    q1, q2 = min(q1, 1.0), min(q2, 1.0)
    qb = min(qb, q1, q2)
    return (1.0 - dark) * q1, (1.0 - dark) * q2, (1.0 - dark) ** 2 * qb


class TestClickProbs:
    def test_matches_frozen_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            p = rng.random(int(rng.integers(1, 300))) ** 3
            p /= p.sum() * rng.uniform(1.0, 1.5)
            args = (rng.random(), rng.random(), 0.1 * rng.random())
            assert click_probs(p, *args) == _click_probs_loop(p, *args)

    def test_missing_mass_counts_as_n_max(self):
        half = np.array([0.2, 0.3, 0.0])  # sum p = 0.5
        full = np.array([0.2, 0.3, 0.5])  # the other half at n_max = 2
        assert click_probs(half, 0.7, 0.4, 0.01) == click_probs(full, 0.7,
                                                                0.4, 0.01)
        assert _hbt(half, 0.7, 0.4, 0.01, 9, 50_000) == \
            _hbt(full, 0.7, 0.4, 0.01, 9, 50_000)

    def test_excess_mass_keeps_probabilities_ordered(self):
        # sum p up to 1e-9 above 1, which fock allows: taking the excess
        # from the last n would give q > 1 without the clamps
        for p in ([1.0 + 1e-9, 0.0], [0.5, 0.5 + 1e-9, 0.0]):
            q1, q2, qb = click_probs(p, 0.6, 0.3, 0.0)
            assert qb <= min(q1, q2) and max(q1, q2) <= 1.0
            assert _hbt(p, 0.6, 0.3, 0.0, 4, 10_000)[2] >= 0

    def test_pattern_frequencies_chi2(self):
        p = [0.5, 0.2, 0.15, 0.1, 0.05]
        eta, split, dark, N = 0.7, 0.35, 0.03, 400_000
        n1, n2, nc = _hbt(p, eta, split, dark, 77, N)
        q1, q2, qb = click_probs(p, eta, split, dark)
        observed = np.array([N - n1 - n2 + nc, n1 - nc, n2 - nc, nc])
        expected = N * np.array([qb, q2 - qb, q1 - qb, 1 - q1 - q2 + qb])
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2 < 21.11  # 0.9999 quantile of chi^2 with 3 dof

    def test_expected_click_g2_uses_click_probs(self):
        dist = photon_number_distribution(thermal(0.3), 32)
        cfg = CountingConfig(n_windows=10, eta_det=0.7, split=0.4,
                             dark_prob=0.01)
        q1, q2, qb = click_probs(dist.probs, 0.7, 0.4, 0.01)
        assert expected_click_g2(dist, cfg) == \
            (1.0 - q1 - q2 + qb) / ((1.0 - q1) * (1.0 - q2))
