"""Acceptance suite: one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
are produced (pytest otherwise shows prints only on failure).
"""

import math
import time

import numpy as np

from wigg2.cli import main as cli_main
from wigg2.counting import (CountingConfig, bootstrap_g2_clicks,
                            g2_estimate_clicks, simulate_hbt)
from wigg2.errors import UnstableInferenceError
from wigg2.fock import photon_number_distribution
from wigg2.loss import infer_loss, infer_loss_resampled
from wigg2.moments import (g2_gaussian, weyl_moments_analytic,
                           weyl_moments_numeric_state)
from wigg2.states import (attenuate, coherent, marginal, squeezed_vacuum,
                          squeezed_vacuum_with_mean_photon, thermal)
from wigg2.tomography import (estimate_covariance, g2_from_reconstruction,
                              simulate_homodyne)

import conftest
from conftest import random_physical_state


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:2d} [{status}] {desc}{tail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num} failed: {desc}{tail}"


def test_criterion_01_closed_forms():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        x0, p0 = rng.uniform(-3, 3, 2)
        if x0 * x0 + p0 * p0 < 1e-3:
            x0 = 1.0
        worst = max(worst, abs(g2_gaussian(coherent(x0, p0)).value - 1.0))
        nbar = rng.uniform(0.05, 5.0)
        worst = max(worst, abs(g2_gaussian(thermal(nbar)).value - 2.0) / 2.0)
        n = rng.uniform(0.05, 3.0)
        target = 3.0 + 1.0 / n
        got = g2_gaussian(squeezed_vacuum_with_mean_photon(n)).value
        worst = max(worst, abs(got - target) / target)
    dt = time.perf_counter() - t0
    _report(1, "closed-form g2 for coherent/thermal/squeezed (rel 1e-12)",
            worst <= 1e-12 and dt < 1.0,
            f"worst rel dev {worst:.2e}, {dt:.2f}s")


def test_criterion_02_oracle_triangle():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 20:
        st = random_physical_state(rng)
        a = weyl_moments_analytic(st)
        if a.nw - 0.5 > 5.0:
            continue
        checked += 1
        q = weyl_moments_numeric_state(st)
        dist = photon_number_distribution(st, 256, tol=1e-9)
        n = np.arange(dist.n_max + 1, dtype=float)
        f_nw = float(np.dot(dist.probs, n + 0.5))
        f_nw2 = float(np.dot(dist.probs, n * n + n + 0.5))
        for x, y in ((a.nw, q.nw), (a.nw2, q.nw2), (a.nw, f_nw),
                     (a.nw2, f_nw2), (q.nw, f_nw), (q.nw2, f_nw2)):
            worst = max(worst, abs(x - y) / abs(x))
    dt = time.perf_counter() - t0
    _report(2, "analytic/quadrature/Fock moment triangle (rel 1e-6, 20 states)",
            worst <= 1e-6 and dt < 30.0,
            f"worst rel dev {worst:.2e}, {dt:.1f}s")


def test_criterion_03_loss_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for r in np.linspace(0.1, 1.0, 10):
        st = squeezed_vacuum(math.exp(-r), 0.0)
        base = g2_gaussian(st).value
        for eta in np.linspace(0.05, 1.0, 20):
            worst = max(worst, abs(g2_gaussian(attenuate(st, eta)).value - base))
    dt = time.perf_counter() - t0
    _report(3, "g2 invariance under attenuation (abs 1e-10, eta x r grid)",
            worst <= 1e-10 and dt < 1.0,
            f"worst abs dev {worst:.2e}, {dt:.2f}s")


def test_criterion_04_reference_curves(tmp_path):
    def spot(n_min, n_max):
        out = tmp_path / f"fig1_{n_min}_{n_max}.csv"
        assert cli_main(["fig1", "--n-min", str(n_min), "--n-max", str(n_max),
                         "--points", "2", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("n,")]
        return {float(r[0]): tuple(float(v) for v in r[1:]) for r in rows}

    table = spot(0.5, 10.0)
    table.update(spot(1.0, 10.0))
    checks = [
        (table[1.0][0], 1.0), (table[1.0][1], 2.0), (table[1.0][2], 4.0),
        (table[0.5][2], 5.0), (table[10.0][2], 3.1),
    ]
    worst = max(abs(got - want) / want for got, want in checks)
    _report(4, "reference-curve CLI spot values (rel 1e-12)",
            worst <= 1e-12, f"worst rel dev {worst:.2e}")


def test_criterion_05_hwp_transition():
    worst = 0.0
    for r in (0.1, 0.3, 0.6, 1.0):
        tb_n = math.sinh(r) ** 2
        from wigg2.states import hwp_mix, reduce_mode, two_mode_squeezed_vacuum
        tb = two_mode_squeezed_vacuum(r)
        for th in np.linspace(0.0, 45.0, 46):
            st = reduce_mode(hwp_mix(tb, th), 1)
            want = 2.0 + math.sin(math.radians(4 * th)) ** 2 * (1 + 1 / tb_n)
            worst = max(worst, abs(g2_gaussian(st).value - want))
        # endpoint statements
        ends = reduce_mode(tb, 1)
        worst = max(worst, abs(g2_gaussian(ends).value - 2.0))
        sq = reduce_mode(hwp_mix(tb, 22.5), 1)
        mean = weyl_moments_analytic(sq).nw - 0.5
        worst = max(worst, abs(g2_gaussian(sq).value - (3.0 + 1.0 / mean)))
    _report(5, "HWP sweep matches 2 + sin^2(4 theta)(1 + 1/sinh^2 r) (abs 1e-10)",
            worst <= 1e-10, f"worst abs dev {worst:.2e}")


def test_criterion_06_counting_monte_carlo():
    t0 = time.perf_counter()
    cfg = CountingConfig(n_windows=10_000_000, eta_det=0.5, seed=606)
    rec = simulate_hbt(thermal(0.01), cfg)
    value, _ = g2_estimate_clicks(rec)
    sigma = float(bootstrap_g2_clicks(rec, n_boot=200, seed=1).std(ddof=1))
    dt = time.perf_counter() - t0
    dev = abs(value - 2.0)
    recs = [simulate_hbt(thermal(0.01),
                         CountingConfig(n_windows=10_000_000, eta_det=0.5,
                                        seed=606, workers=w))
            for w in (1, 4, 8)]
    deterministic = all(
        (r.n1, r.n2, r.nc) == (recs[0].n1, recs[0].n2, recs[0].nc)
        for r in recs) and (rec.n1, rec.n2, rec.nc) == (recs[0].n1, recs[0].n2,
                                                        recs[0].nc)
    _report(6, "thermal 1e7-window run: 3 bootstrap sigma of 2.0, < 60 s, "
               "worker-count determinism",
            dev <= 3 * sigma and dt < 60.0 and deterministic,
            f"g2 {value:.4f} +- {sigma:.4f}, {dt:.1f}s, "
            f"workers 1/4/8 {'identical' if deterministic else 'DIFFER'}")


def test_criterion_07_tomography_roundtrip():
    st = squeezed_vacuum(0.5, 0.0)
    target = g2_gaussian(st).value  # 11.0
    # single-run variance accuracy: within 1% of (0.25, 1.0)
    data = simulate_homodyne(st, per_angle=100_000, eta_hd=1.0, seed=700)
    rec = estimate_covariance(data, boot_seed=701)
    var_ok = (abs(rec.raw_cov[0] - 0.25) <= 0.0025
              and abs(rec.raw_cov[1] - 1.0) <= 0.01)
    hits = 0
    for rep in range(100):
        d = simulate_homodyne(st, per_angle=100_000, eta_hd=1.0, seed=rep)
        r = estimate_covariance(d, boot_seed=50_000 + rep)
        g = g2_from_reconstruction(r)
        if g.ci_low <= target <= g.ci_high:
            hits += 1
    _report(7, "tomography: variances within 1%, g2 CI coverage >= 93/100",
            var_ok and hits >= 93,
            f"vx {rec.raw_cov[0]:.4f}, vp {rec.raw_cov[1]:.4f}, "
            f"coverage {hits}/100")


def test_criterion_08_loss_round_trip():
    worst = 0.0
    for r in np.linspace(0.1, 1.0, 10):
        st = squeezed_vacuum(math.exp(-r), 0.0)
        g2 = g2_gaussian(st).value
        for eta in np.linspace(0.05, 1.0, 20):
            _, vx = marginal(attenuate(st, eta), 0.0)
            worst = max(worst, abs(infer_loss(g2, vx).eta - eta))
    # end-to-end simulated loop at eta = 0.7
    eta_true = 0.7
    st = squeezed_vacuum(0.4, 0.0)
    g2 = g2_gaussian(st).value
    data = simulate_homodyne(st, per_angle=100_000, eta_hd=eta_true, seed=808)
    rec = estimate_covariance(data, boot_seed=809)
    vx_draws = rec.member_cov[rec.valid, 0]
    _, (lo, hi), _ = infer_loss_resampled([g2] * len(vx_draws), vx_draws)
    covered = lo <= eta_true <= hi
    _report(8, "loss inference: analytic grid to 1e-9, simulated CI covers 0.7",
            worst <= 1e-9 and covered,
            f"worst abs dev {worst:.2e}, CI [{lo:.3f}, {hi:.3f}]")


def test_criterion_09_photon_statistics():
    sq = photon_number_distribution(squeezed_vacuum(0.5, 0.0), 40)
    odd_max = float(np.max(sq.probs[1::2]))
    th = photon_number_distribution(thermal(1.0), 60)
    geom_dev = max(abs(th.probs[n] - 0.5 ** (n + 1)) for n in range(11))
    _report(9, "squeezed odd-n probabilities < 1e-10; thermal geometric to 1e-9",
            odd_max < 1e-10 and geom_dev <= 1e-9,
            f"max odd p {odd_max:.2e}, geometric dev {geom_dev:.2e}")


def test_criterion_10_near_vacuum_pathology():
    st = squeezed_vacuum_with_mean_photon(0.001)
    data = simulate_homodyne(st, per_angle=20_000, eta_hd=0.9, seed=1010)
    rec = estimate_covariance(data, boot_seed=1011)
    try:
        g = g2_from_reconstruction(rec)
        width = g.ci_high - g.ci_low
        ok = width > 0.5 * abs(g.value)
        detail = f"CI width {width:.3g} vs point {g.value:.3g}"
    except UnstableInferenceError as exc:
        ok = True
        detail = "raised UnstableInferenceError"
    _report(10, "near-vacuum homodyne: unstable-inference error or wide CI",
            ok, detail)
