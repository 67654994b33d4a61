"""The benchmark's workloads, driven through wigg2's public API.

Each workload builds its inputs and references in its constructor (the
set-up the benchmark times as `setup_s`), runs one op per call of
`op(seed)`, and checks each op's result with the functions in checks.py.

Library functions are looked up on their modules at call time
(`tomography.simulate_homodyne`, not a name imported once), so that the
traced run's wrappers see every call the workload makes.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from wigg2 import cli, counting, fock, loss, states, tomography

import checks

# squeezed_vacuum(0.5, 0): principal variances (0.25, 1.0), g2 = 11
TOMO_S = 0.5
TOMO_ETA = 0.7
SWEEP_R = 0.4
SWEEP_THETAS = "0,5,10,15,20,22.5"

FULL = {
    "tomo_loss": {"per_angle": 100_000, "n_boot": 200},
    "hbt_bright": {"n_windows": 1_000_000},
    "sweep_cli": {"windows": 1_000_000, "per_angle": 10_000},
}
# sizes for the self-test: every code path, a fraction of a second per op
TINY = {
    "tomo_loss": {"per_angle": 4_000, "n_boot": 40},
    "hbt_bright": {"n_windows": 20_000},
    "sweep_cli": {"windows": 20_000, "per_angle": 2_000},
}


class Workload:
    """One op per call of op(seed); close() releases what set-up made."""

    setup_failures: list

    def fingerprint(self, res):
        """What two ops with the same seed must reproduce exactly."""
        return res

    def bytes_written(self, res) -> int:
        """Bytes of output files one op wrote."""
        return 0

    def close(self):
        pass


class TomoLoss(Workload):
    """Loss inference from homodyne data at the shape of acceptance
    criteria 7/8: 12 angles, bootstrap CIs, eta from g2 and vxx."""

    name = "tomo_loss"
    item = "resamples"

    def __init__(self, root: Path, per_angle: int, n_boot: int):
        self.per_angle, self.n_boot = per_angle, n_boot
        self.state = states.squeezed_vacuum(TOMO_S, 0.0)
        self.angles = tomography.DEFAULT_ANGLES
        self.ref = checks.tomo_reference(TOMO_S, TOMO_ETA, self.angles, per_angle)
        self.items_per_op = len(self.angles) * per_angle * n_boot
        self.setup_failures = []

    def op(self, seed: int) -> checks.TomoResult:
        data = tomography.simulate_homodyne(self.state, self.angles, self.per_angle,
                                            eta_hd=TOMO_ETA, seed=seed)
        rec = tomography.estimate_covariance(data, n_boot=self.n_boot,
                                             boot_seed=seed + 1)
        g = tomography.g2_from_reconstruction(rec)
        vx = [bs.cov.vxx for bs in rec.bootstrap_states if bs is not None]
        etas, eta_ci, skipped = loss.infer_loss_resampled([g.value] * len(vx), vx)
        return checks.TomoResult(tuple(rec.raw_cov), g.value, (g.ci_low, g.ci_high),
                                 float(sorted(etas)[len(etas) // 2]), eta_ci,
                                 len(vx), skipped)

    def check(self, res) -> list[str]:
        return checks.check_tomo(res, self.ref)


class HbtBright(Workload):
    """Bright squeezed vacuum (<n> = 5) on the click simulator at
    n_max = 256, followed by the click g2 estimate."""

    name = "hbt_bright"
    item = "windows"

    def __init__(self, root: Path, n_windows: int):
        self.state = states.squeezed_vacuum_with_mean_photon(5.0)
        self.n_windows = n_windows
        self.items_per_op = n_windows
        ref_cfg = self.config(0)
        dist = fock.photon_number_distribution(self.state, ref_cfg.n_max,
                                               tol=checks.TAIL_TOL)
        self.setup_failures = checks.check_distribution(dist.probs, dist.tail_mass)
        self.expected_g2 = counting.expected_click_g2(dist, ref_cfg)

    def config(self, seed: int, workers: int = 1):
        return counting.CountingConfig(n_windows=self.n_windows, eta_det=0.5,
                                       n_max=256, seed=seed, workers=workers)

    def op(self, seed: int):
        rec = counting.simulate_hbt(self.state, self.config(seed))
        g2, err = counting.g2_estimate_clicks(rec)
        return rec, g2, err

    def check(self, res) -> list[str]:
        rec, g2, err = res
        return checks.check_clicks(rec.n1, rec.n2, rec.nc, rec.n_windows,
                                   g2, err, self.expected_g2)

    def fingerprint(self, res):
        rec = res[0]
        return rec.n1, rec.n2, rec.nc


class SweepCli(Workload):
    """`wigg2 sweep --r 0.4 --thetas 0,5,10,15,20,22.5` in-process through
    wigg2.cli.main, writing CSV and manifest into a scratch directory."""

    name = "sweep_cli"
    item = "rows"

    def __init__(self, root: Path, windows: int, per_angle: int):
        self.thetas = [float(t) for t in SWEEP_THETAS.split(",")]
        self.items_per_op = len(self.thetas)
        self.size_args = ["--windows", str(windows), "--per-angle", str(per_angle)]
        self.workdir = root / ".perfbench" / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.out = str(self.workdir / "sweep.csv")
        # the distributions the sweep's counting arm builds, one per row
        self.setup_failures = []
        twin = states.two_mode_squeezed_vacuum(SWEEP_R)
        for th in self.thetas:
            st = states.reduce_mode(states.hwp_mix(twin, th), 1)
            dist = fock.photon_number_distribution(st, 64, tol=checks.TAIL_TOL)
            self.setup_failures += checks.check_distribution(dist.probs, dist.tail_mass)

    def op(self, seed: int):
        rc = cli.main(["sweep", "--r", str(SWEEP_R), "--thetas", SWEEP_THETAS,
                       "--seed", str(seed), *self.size_args, "--out", self.out])
        with open(self.out, "rb") as fh:
            csv_bytes = fh.read()
        with open(self.out + ".manifest.json", "rb") as fh:
            manifest_bytes = fh.read()
        return rc, csv_bytes, manifest_bytes

    def check(self, res) -> list[str]:
        rc, csv_bytes, manifest_bytes = res
        if rc != 0:
            return [f"wigg2 sweep exited with {rc}"]
        return checks.check_sweep(csv_bytes, manifest_bytes, self.out,
                                  self.thetas, SWEEP_R)

    def fingerprint(self, res):
        return res[1]

    def bytes_written(self, res) -> int:
        return len(res[1]) + len(res[2])

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TomoLoss, HbtBright, SweepCli)}


def build(name: str, root: Path, tiny: bool = False):
    """Set up workload `name` at the benchmark size, or tiny for the self-test."""
    return WORKLOADS[name](root, **(TINY if tiny else FULL)[name])
