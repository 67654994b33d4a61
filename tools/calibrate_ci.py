"""Coverage of the homodyne g2 bootstrap interval, at the shape of
acceptance criterion 7: squeezed_vacuum(0.5, 0) (g2 = 11), 12 angles of
100,000 samples, 200 bootstrap members, 2000 repetitions.

Prints how often the percentile interval (what g2_from_reconstruction
returns) and the basic interval (2 g2 - hi, 2 g2 - lo) built from the same
members cover the true g2, each with a Wilson 95% interval.  The seeds are
disjoint from criterion 7's (data 0-99 and 700, bootstrap 50,000-50,099
and 701), so the interval is chosen on these seeds alone.

    PYTHONPATH=src python tools/calibrate_ci.py

It takes about 80–90 s on one core (numpy 2.4.6, Python 3.11.7).
"""

import math
import time

from wigg2 import (estimate_covariance, g2_from_reconstruction, g2_gaussian,
                   simulate_homodyne, squeezed_vacuum)

REPS = 2000
DATA_SEED = 20_000  # repetition i simulates under DATA_SEED + i
BOOT_SEED = 120_000  # and bootstraps under BOOT_SEED + i
Z = 1.959963984540054  # the 97.5% normal quantile


def wilson(hits, n):
    """Wilson score 95% interval of the binomial proportion hits/n."""
    p = hits / n
    scale = 1.0 + Z * Z / n
    centre = (p + Z * Z / (2 * n)) / scale
    half = Z * math.sqrt(p * (1 - p) / n + Z * Z / (4 * n * n)) / scale
    return centre - half, centre + half


def main():
    state = squeezed_vacuum(0.5, 0.0)
    target = g2_gaussian(state).value
    hits = {"percentile": 0, "basic": 0}
    t0 = time.perf_counter()
    for i in range(REPS):
        data = simulate_homodyne(state, per_angle=100_000, seed=DATA_SEED + i)
        g = g2_from_reconstruction(
            estimate_covariance(data, boot_seed=BOOT_SEED + i))
        hits["percentile"] += g.ci_low <= target <= g.ci_high
        hits["basic"] += 2 * g.value - g.ci_high <= target <= \
            2 * g.value - g.ci_low
    print(f"{REPS} repetitions, data seeds {DATA_SEED}-{DATA_SEED + REPS - 1},"
          f" bootstrap seeds {BOOT_SEED}-{BOOT_SEED + REPS - 1},"
          f" {time.perf_counter() - t0:.0f} s")
    for name, k in hits.items():
        lo, hi = wilson(k, REPS)
        print(f"{name:10s} coverage {k}/{REPS} = {100 * k / REPS:.2f}% "
              f"(Wilson 95%: {100 * lo:.2f}-{100 * hi:.2f}%)")


if __name__ == "__main__":
    main()
