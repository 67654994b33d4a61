#!/usr/bin/env python3
"""wigg2 benchmark: closed-loop workloads through the public API.

    python3 perfbench/run.py --workload tomo_loss --seed 1 --seconds 40 --trace 0

One client, one thread: each op starts when the previous one returned.
Ops run until another op would end past --seconds (at least MIN_OPS).
Every op's output is checked (checks.py); an op that raises a wigg2
error, fails a check, or differs from an earlier op with the same seed
fails.  Op REPLAY reuses op 0's seed to test determinism.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced ops and prints the per-layer metrics from the traced ones
(spans.py).  The last line of standard output is the result as JSON;
the lines before it say the same for a reader, with the environment.
The run exits nonzero if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread throughout, BLAS included: on a small shared machine, BLAS
# threads spinning in np.dot made the bootstrap twice as slow whenever
# another process held a core.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
try:
    import wigg2
except ImportError as exc:
    sys.exit(f"perfbench: cannot import wigg2 from {ROOT / 'src'}: {exc}")
if Path(wigg2.__file__).resolve().parent != (ROOT / "src" / "wigg2").resolve():
    sys.exit(f"perfbench: wigg2 imported from {wigg2.__file__}, not from {ROOT / 'src'}")

import numpy as np
from wigg2 import counting, fock, kernels
from wigg2.errors import DomainError, FitError, StatisticalError

import spans
import workloads

MIN_OPS = 3
REPLAY = 1
SETUP_PROBES = 7
OUT_DIR = ROOT / ".perfbench"
WIGG2_ERRORS = (DomainError, FitError, StatisticalError)


def op_seed(workload: str, seed: int, i: int) -> int:
    """Seed of op i, derived from the workload seed; op REPLAY repeats op 0."""
    i = 0 if i == REPLAY else i
    digest = hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def environment(args, load1: float) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "backend": kernels.backend_name(),
        "numpy": np.__version__, "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m": load1,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from process start until the first op could begin: the
    median of SETUP_PROBES fresh processes that import wigg2, set the
    workload up and exit."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--probe-setup"]
        spawned = time.monotonic()
        out = subprocess.run(cmd + [repr(spawned)], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


def backend_equality():
    """The numba kernels against the numpy ones on the same counter RNG:
    integer counts identical, bootstrap moments equal to rounding."""
    if not kernels.HAVE_NUMBA:
        return "not run (numba not importable)", []
    fails = []
    cdf = np.cumsum([0.9, 0.07, 0.02, 0.008, 0.002])
    hbt_args = (cdf, 0.5, 0.5, 0.001, 42, 0, 200_000)
    if tuple(kernels.hbt_counts_np(*hbt_args)) != tuple(kernels.hbt_counts(*hbt_args)):
        fails.append("hbt_counts: numba and numpy counts differ")
    x = np.random.default_rng(0).normal(0.0, 1.0, 20_000)
    m_np, v_np = kernels.boot_moments_np(x, 20, 7)
    m_nb, v_nb = kernels.boot_moments(x, 20, 7)
    if not (np.allclose(m_np, m_nb, rtol=1e-12) and np.allclose(v_np, v_nb, rtol=1e-12)):
        fails.append("boot_moments: numba and numpy moments differ")
    return ("differ" if fails else "match"), fails


class Ledger:
    """Runs ops and keeps attempts, failures and determinism fingerprints."""

    def __init__(self, wl, workload: str, seed: int):
        self.wl, self.workload, self.seed = wl, workload, seed
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.fingerprints: dict = {}

    def record(self, what: str, fails: list[str]):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.append(f"{what}: " + "; ".join(fails))

    def op(self, i: int, tracer: spans.Tracer | None = None):
        """Run, time and check op i; returns (seconds, result or None)."""
        seed = op_seed(self.workload, self.seed, i)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = self.wl.op(seed)
            else:
                with spans.instrumented(tracer), tracer.op(i):
                    res = self.wl.op(seed)
        except WIGG2_ERRORS as exc:
            self.record(f"op {i}", [f"{type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        fails = self.wl.check(res)
        fp = self.wl.fingerprint(res)
        if self.fingerprints.setdefault(seed, fp) != fp:
            fails.append(f"differs from op {0 if i == REPLAY else i} with the same seed")
        self.record(f"op {i}", fails)
        return dt, res


def timed_loop(seconds: float, min_units: int, unit) -> None:
    """Call unit(k) for k = 0, 1, ... until another call, at the median
    duration so far, would end past `seconds`."""
    durations = []
    t0 = time.perf_counter()
    while (len(durations) < min_units
           or time.perf_counter() - t0 + statistics.median(durations) <= seconds):
        t = time.perf_counter()
        unit(len(durations))
        durations.append(time.perf_counter() - t)


def untraced_run(ledger: Ledger, seconds: float, setup_s: float):
    wl = ledger.wl
    times = []
    timed_loop(seconds, MIN_OPS, lambda k: times.append(ledger.op(k)[0]))
    p50 = statistics.median(times)
    rate = wl.items_per_op / p50
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(times)
    high = int(100 * (1 - 10 / n)) if n >= 20 else None
    notes = [
        f"ops {n}, failed {ledger.failed}/{ledger.attempted} "
        f"(failed_ratio {ledger.failed / ledger.attempted:.4g})",
        f"setup_s {setup_s:.4f} s",
        f"op_s.p50 {p50:.4f} s" + (
            f", op_s.p{high} {float(np.percentile(times, high)):.4f} s" if high
            else f" (no higher percentile: {n} ops, 20 needed)"),
        f"{wl.item}_per_s {rate:.6g} 1/s ({wl.items_per_op} {wl.item} per median op)",
        f"peak_rss_mb {rss_mb:.1f} MB",
        "op seconds " + " ".join(f"{t:.3f}" for t in times),
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (p50, "s"),
        "throughput_per_s": (rate, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, notes


def click_bias_sigma(hbt_calls) -> float:
    """Largest |click g2 - expected_click_g2| / standard error over the
    traced simulate_hbt calls."""
    worst = 0.0
    expected = {}
    for state, cfg, rec in hbt_calls:
        key = (state, cfg.n_max, cfg.eta_det, cfg.dark_prob, cfg.split)
        if key not in expected:
            dist = fock.photon_number_distribution(state, cfg.n_max)
            expected[key] = counting.expected_click_g2(dist, cfg)
        g2, err = counting.g2_estimate_clicks(rec)
        worst = max(worst, abs(g2 - expected[key]) / err)
    return worst


def workers2_speedup(ledger: Ledger) -> float:
    """t(workers=1) / t(workers=2) of simulate_hbt on the hbt_bright
    input, untraced; the two runs must give identical counts."""
    wl = ledger.wl
    seed = op_seed(ledger.workload, ledger.seed, 0)
    times, counts = [], []
    for workers in (1, 2):
        t0 = time.perf_counter()
        rec = counting.simulate_hbt(wl.state, wl.config(seed, workers))
        times.append(time.perf_counter() - t0)
        counts.append((rec.n1, rec.n2, rec.nc))
    ledger.record("workers 1 vs 2", [] if counts[0] == counts[1] else
                  [f"counts differ: {counts[0]} vs {counts[1]}"])
    return times[0] / times[1]


def traced_run(ledger: Ledger, seconds: float):
    wl = ledger.wl
    tracer = spans.Tracer()
    plain, traced, written = [], [], []

    def pair(k):
        # the traced op comes second in even pairs and first in odd ones,
        # so that drift within the run cancels; op REPLAY is traced
        first_traced = k % 2 == 1
        for i, with_trace in ((2 * k, first_traced), (2 * k + 1, not first_traced)):
            if with_trace:
                dt, res = ledger.op(i, tracer)
                traced.append(dt)
                written.append(wl.bytes_written(res) if res is not None else 0)
            else:
                plain.append(ledger.op(i)[0])

    timed_loop(seconds, 1, pair)
    trace_path = OUT_DIR / f"spans-{ledger.workload}.jsonl"
    tracer.write(trace_path)
    tot = spans.summarize(tracer.spans)
    n = tot["ops"]

    def per_op(key):
        return tot.get(key, 0.0) / n

    def rate(num, den):
        return tot.get(num, 0.0) / tot[den] if tot.get(den) else 0.0

    speedup = workers2_speedup(ledger) if wl.name == "hbt_bright" else 0.0
    layer_self = sum(tot[f"{layer}.self_s"] for layer in spans.LAYERS)
    m = {}
    for fn in ("kernels.boot_moments", "kernels.hbt_counts",
               "fock.photon_number_distribution", "counting.simulate_hbt",
               "moments.g2_gaussian"):
        m[f"{fn}.calls"] = (per_op(f"{fn}.calls"), "count")
    for key in ("kernels.boot_moments.s", "kernels.hbt_counts.s",
                "fock.photon_number_distribution.s", "counting.simulate_hbt.self_s",
                "tomography.simulate_homodyne.s", "tomography.estimate_covariance.s",
                "tomography.estimate_covariance.self_s",
                "tomography.g2_from_reconstruction.s",
                "tomography.g2_from_reconstruction.self_s",
                "tomography.hwp_sweep.self_s", "moments.g2_gaussian.s",
                "loss.infer_loss_resampled.s", "cli.main.s", "cli.main.self_s",
                "states.s", *(f"{layer}.self_s" for layer in spans.LAYERS)):
        m[key] = (per_op(key), "s")
    m.update({
        "kernels.boot_moments.resamples_per_s":
            (rate("resamples", "kernels.boot_moments.s"), "1/s"),
        "kernels.boot_moments.gather_bytes": (per_op("gather_bytes"), "bytes"),
        "kernels.hbt_counts.windows_per_s":
            (rate("windows", "kernels.hbt_counts.s"), "1/s"),
        "kernels.uniforms.count":
            ((5 * tot["windows"] + tot["resamples"]) / n, "count"),
        "fock.tail_mass.max": (tot["tail_mass.max"], "prob"),
        "fock.nonfinite": (tot["nonfinite"], "count"),
        "counting.click_bias_sigma": (click_bias_sigma(tot["hbt"]), "sigma"),
        "counting.workers2_speedup": (speedup, "ratio"),
        "tomography.guarded_ratio": (rate("guarded", "members"), "ratio"),
        "loss.skipped_ratio": (rate("skipped", "draws"), "ratio"),
        "states.calls": (per_op("states.calls"), "count"),
        "cli.bytes_written": (sum(written) / len(written), "bytes"),
        "trace.op_s": (per_op("op_s"), "s"),
        "trace.glue_s": (per_op("glue_s"), "s"),
        "trace.accounted_ratio": ((layer_self + tot["glue_s"]) / tot["op_s"], "ratio"),
        "trace.overhead_ratio":
            (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"),
    })
    notes = [f"traced ops {len(traced)}, untraced ops {len(plain)}, "
             f"failed {ledger.failed}/{ledger.attempted}; spans in {trace_path}"]
    return m, notes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", type=float, metavar="MONOTONIC_T0",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        rc = 0
        for name in workloads.WORKLOADS:
            rc |= subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                  "--workload", name, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], cwd=ROOT).returncode
        return rc
    load1 = os.getloadavg()[0]
    wl = workloads.build(args.workload, ROOT)
    try:
        if args.probe_setup is not None:
            print(repr(time.monotonic() - args.probe_setup))
            return 0
        OUT_DIR.mkdir(exist_ok=True)
        ledger = Ledger(wl, args.workload, args.seed)
        ledger.record("set-up distributions", wl.setup_failures)
        equality, fails = backend_equality()
        if fails:
            ledger.record("numba vs numpy", fails)
        if args.trace:
            metrics, notes = traced_run(ledger, args.seconds)
        else:
            metrics, notes = untraced_run(ledger, args.seconds,
                                          measure_setup(args.workload, args.seed))
    finally:
        wl.close()

    env = environment(args, load1)
    env["numba_vs_numpy"] = equality
    correct = ledger.failed == 0
    result = {
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "failures": ledger.failures, **result}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}: " + "; ".join(notes))
    for line in ledger.failures:
        print(f"FAIL {line}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
