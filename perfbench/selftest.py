#!/usr/bin/env python3
"""Self-test of the benchmark:

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size, untraced and traced: every op
   passes its checks, the replayed op reproduces op 0, the traced op's
   layer self times plus glue account for its wall time, and the wrappers
   reached functions that modules imported from each other by name.
2. Shows that each output check rejects a corrupted result built here:
   a photon-number distribution with NaN entries, a g2 off by 10% (from
   tomography and from click counting), and a sweep CSV whose sha256
   does not match its manifest.

Exits nonzero if anything above fails.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import numpy as np

import run  # puts the checkout's src/ on sys.path and imports wigg2
import checks
import workloads
from wigg2 import counting, fock

failures = []


def expect(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def declared_metrics(kind: str) -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def tiny_runs():
    """Run each workload tiny through the benchmark's own untraced and
    traced runs; returns the last sweep_cli result for part 2."""
    run.OUT_DIR.mkdir(exist_ok=True)
    sweep = None
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, run.ROOT, tiny=True)
        try:
            ledger = run.Ledger(wl, name, seed=0)
            ledger.record("set-up distributions", wl.setup_failures)
            e2e, _ = run.untraced_run(ledger, 0.0, setup_s=1.0)
            layer, _ = run.traced_run(ledger, 0.0)
            if name == "sweep_cli":
                sweep = wl.op(run.op_seed(name, 0, 0))
        finally:
            wl.close()
        expect(ledger.failed == 0,
               f"{name}: {ledger.attempted} tiny ops and checks pass, replays match "
               f"{ledger.failures}")
        for kind, got in (("end_to_end", e2e), ("per_layer", layer)):
            expect({k: u for k, (_, u) in got.items()} == declared_metrics(kind),
                   f"{name}: {kind} metrics and units as in BENCHMARK.json")
        expect(abs(layer["trace.accounted_ratio"][0] - 1.0) < 1e-9,
               f"{name}: layer self times plus glue account for the traced op")
        calls = {k: v for k, (v, _) in layer.items() if k.endswith(".calls")}
        if name == "hbt_bright":
            expect(calls["fock.photon_number_distribution.calls"] == 1,
                   f"{name}: counting's photon_number_distribution traced")
        elif name == "tomo_loss":
            expect(calls["moments.g2_gaussian.calls"] == 41,
                   f"{name}: tomography's g2_gaussian traced")
        else:
            expect(calls["counting.simulate_hbt.calls"] == 6 and layer["cli.main.s"][0] > 0,
                   f"{name}: tomography's simulate_hbt and cli.main traced")
    expect(counting.photon_number_distribution is fock.photon_number_distribution,
           "wrappers removed after the traced ops")
    return sweep


def corrupted_distribution():
    nbar, n = 1.0, np.arange(65)
    probs = nbar ** n / (1.0 + nbar) ** (n + 1)
    tail = float(1.0 - probs.sum())
    expect(not checks.check_distribution(probs, tail), "finite thermal distribution accepted")
    nan_probs = probs.copy()
    nan_probs[40:] = np.nan
    expect(bool(checks.check_distribution(nan_probs, float("nan"))),
           "distribution with NaN probabilities and NaN tail rejected")
    expect(bool(checks.check_distribution(nan_probs, tail)),
           "distribution with NaN probabilities rejected")
    expect(bool(checks.check_distribution(probs, 1e-3)), "tail mass above tol rejected")


def corrupted_tomography():
    size = workloads.FULL["tomo_loss"]
    ref = checks.tomo_reference(workloads.TOMO_S, workloads.TOMO_ETA,
                                workloads.tomography.DEFAULT_ANGLES, size["per_angle"])
    good = checks.TomoResult((ref.vxx, ref.vpp, 0.0), ref.g2, (ref.g2 - 0.3, ref.g2 + 0.3),
                             ref.eta, (ref.eta - 0.01, ref.eta + 0.01), size["n_boot"], 0)
    expect(not checks.check_tomo(good, ref) and abs(ref.g2 - 11.0) < 1e-9
           and abs(ref.eta - 0.7) < 1e-9,
           "tomography at the reference values accepted (g2 11, eta 0.7)")
    for field, value in (("g2", 1.1 * ref.g2), ("eta", 1.1 * ref.eta),
                         ("raw_cov", (1.1 * ref.vxx, ref.vpp, 0.0))):
        bad = dataclasses.replace(good, **{field: value})
        expect(bool(checks.check_tomo(bad, ref)), f"tomography with {field} off by 10% rejected")


def corrupted_clicks():
    wl = workloads.build("hbt_bright", run.ROOT)
    cfg = wl.config(0)
    N = cfg.n_windows
    dist = fock.photon_number_distribution(wl.state, cfg.n_max)
    p1 = 1.0 - float(np.dot(dist.probs, (1.0 - cfg.eta_det * cfg.split) ** np.arange(cfg.n_max + 1)))
    n1 = round(p1 * N)
    for scale, accept in ((1.0, True), (1.1, False)):
        nc = round(scale * wl.expected_g2 * n1 * n1 / N)
        rec = counting.CountingRecord(n1, n1, nc, N, cfg)
        g2, err = counting.g2_estimate_clicks(rec)
        ok = not checks.check_clicks(n1, n1, nc, N, g2, err, wl.expected_g2)
        expect(ok == accept, f"click g2 x{scale} {'accepted' if accept else 'rejected'}")
    expect(bool(checks.check_clicks(n1, n1, n1 + 1, N, wl.expected_g2, 0.01, wl.expected_g2)),
           "coincidences above singles rejected")


def corrupted_sweep(res):
    _, csv_bytes, manifest_bytes = res
    (out,) = json.loads(manifest_bytes)["outputs"]
    thetas = [float(t) for t in workloads.SWEEP_THETAS.split(",")]
    r = workloads.SWEEP_R
    expect(not checks.check_sweep(csv_bytes, manifest_bytes, out, thetas, r),
           "sweep CSV and manifest accepted")
    tampered = csv_bytes + b"# appended after the manifest was written\n"
    fails = checks.check_sweep(tampered, manifest_bytes, out, thetas, r)
    expect(any("sha256" in f for f in fails),
           "sweep CSV whose sha256 does not match the manifest rejected")
    lines = csv_bytes.decode().splitlines(keepends=True)
    rows = [ln.split(",") for ln in lines[2:]]
    for row in rows:
        row[1] = repr(1.1 * float(row[1]))
    wrong = "".join(lines[:2] + [",".join(row) for row in rows]).encode()
    manifest = json.loads(manifest_bytes)
    manifest["outputs"][out] = hashlib.sha256(wrong).hexdigest()
    fails = checks.check_sweep(wrong, json.dumps(manifest).encode(), out, thetas, r)
    expect(len(fails) == len(rows) and all("g2_analytic" in f for f in fails),
           "sweep g2_analytic off by 10% (manifest consistent) rejected")


def main() -> int:
    sweep = tiny_runs()
    corrupted_distribution()
    corrupted_tomography()
    corrupted_clicks()
    corrupted_sweep(sweep)
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
