"""Hot numeric kernels in numpy: the counter-based RNG and the HBT click
sampler.

Every draw comes from one counter-based RNG built on splitmix64 (Steele,
Lea & Flood, "Fast splittable pseudorandom number generators", OOPSLA
2014).  With mix64 the splitmix64 output function (add phi, then the
8-op finaliser) and all arithmetic mod 2^64, draw number `draw` at
stream index i under `seed` is

    u(seed, i, draw) = (mix64(k + i*phi) >> 11) * 2^-53,
    k = mix64(seed ^ mix64(draw * STEP)),

a double in [0, 1).  The key k is a Python int computed once per call,
so each stream index costs one finaliser.  A draw depends only on
(seed, i, draw), never on how a caller splits its work.

The HBT arm is one multinomial.  Threshold detectors only see whether
each fired, so a window's click pattern depends on the state only
through three state-averaged no-click probabilities (`click_probs`,
shared with counting.expected_click_g2): q1 and q2 that detector 1 and
detector 2 stay silent, qb that both do, dark events included.  N
independent windows then give exactly

    (none, 1 only, 2 only, both)
        ~ Multinomial(N; qb, q2 - qb, q1 - qb, 1 - q1 - q2 + qb),

which `click_counts` draws as three conditional binomials at stream
index i: none ~ Bin(N, qb) at draw 0, 1 only ~ Bin(N - none,
(q2 - qb)/(1 - qb)) at draw 1 and 2 only ~ Bin(rest, (q1 - qb)/(1 - q2))
at draw 2; the windows left over click on both.  `binomial_icdf`
inverts each binomial's CDF at its one uniform (Devroye, Non-Uniform
Random Variate Generation, 1986, ch. X.4), from a pmf table around the
mode built by the ratio recurrence
p(k+1)/p(k) = (N - k) p / ((k + 1)(1 - p)) over mode +- (10 sigma + 40)
and normalised by its own sum: O(sigma) work, sigma = sqrt(N p (1 - p)),
whatever N.  The mass the table leaves out is below 1e-20.  The HBT
counts of windows [start, stop) are click_counts at stream index start,
so they cost the same at any window count or photon number.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import check_int

# numpy is the only backend; these names stay for callers that report it
HAVE_NUMBA = False


def backend_name() -> str:
    return "numpy"


# splitmix64 constants, as Python ints: scalar key arithmetic masks with
# _MASK64 and never overflows a numpy scalar
_PHI = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_STEP = 0xD1342543DE82EF95
_MASK64 = 0xFFFFFFFFFFFFFFFF
_PHI64 = np.uint64(_PHI)
_ROUNDS = ((np.uint64(30), np.uint64(_C1)), (np.uint64(27), np.uint64(_C2)))
_S11, _S31 = np.uint64(11), np.uint64(31)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53


def _finalise_int(z: int) -> int:
    """splitmix64 finaliser (mix64 without its + phi) of the Python int
    z < 2^64."""
    z = ((z ^ (z >> 30)) * _C1) & _MASK64
    z = ((z ^ (z >> 27)) * _C2) & _MASK64
    return z ^ (z >> 31)


def _mix64(z: int) -> int:
    """splitmix64 output function of the Python int z, mod 2^64."""
    return _finalise_int((z + _PHI) & _MASK64)


def _key(seed, draw) -> int:
    """k + phi of the module docstring for (seed, draw), so that
    mix64(k + i*phi) is the finaliser of i*phi + _key(seed, draw)."""
    k = _mix64(int(seed) ^ _mix64((int(draw) * _STEP) & _MASK64))
    return (k + _PHI) & _MASK64


def _uniform(seed, i, draw) -> float:
    """u(seed, i, draw) of the module docstring for one stream index, in
    Python ints."""
    return (_finalise_int((int(i) * _PHI + _key(seed, draw)) & _MASK64)
            >> 11) * _INV53


def _draw_bits(z, offset, tmp):
    """z = finaliser(z + offset) >> 11 in place, the finaliser being
    mix64 without its + phi and the Python int offset taken mod 2^64;
    tmp is scratch of z's shape.  With z = i*phi and offset =
    _key(seed, draw) this is mix64(k + i*phi) >> 11, the 53 random bits
    of u(seed, i, draw)."""
    np.add(z, np.uint64(offset & _MASK64), out=z)
    for shift, mult in _ROUNDS:
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, _S31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.right_shift(z, _S11, out=z)
    return z


def uniforms_np(seed: int, idx: np.ndarray, draw: int) -> np.ndarray:
    """u(seed, i, draw) of the module docstring, in [0, 1), vectorized
    over the stream indices idx."""
    z = idx.astype(np.uint64)
    np.multiply(z, _PHI64, out=z)
    return _draw_bits(z, _key(seed, draw), np.empty_like(z)) * _INV53


def click_probs(cdf, eta, split, dark):
    """(q1, q2, qb): the probabilities that detector 1, detector 2 and
    both detectors stay silent in a window, averaged over the photon
    numbers of `cdf` (n = 0..len(cdf) - 1; mass missing above cdf[-1]
    counts as the last n).  The beam splitter sends each photon to
    detector 1 with probability `split`; each detector has efficiency
    eta and fires a dark event with probability `dark`, so given n
    they are (1-dark)(1-eta split)^n, (1-dark)(1-eta(1-split))^n and
    (1-dark)^2 (1-eta)^n.  Every sum is exactly rounded (math.fsum),
    so nothing depends on BLAS or summation order."""
    p = np.diff(cdf, prepend=0.0)
    p[-1] += 1.0 - cdf[-1]
    n = np.arange(len(p), dtype=np.float64)
    p = p.tolist()
    q1, q2, qb = (math.fsum(map(operator.mul, p, (q ** n).tolist()))
                  for q in (1.0 - eta * split, 1.0 - eta * (1.0 - split),
                            1.0 - eta))
    # a cdf may end a few ulps above 1 (cumsum round-off, or a caller's
    # own cdf), which must not give q > 1; qb <= q1, q2 keeps every
    # pattern count >= 0 should pow round a hair out of order; the dark
    # factors below preserve both
    q1, q2 = min(q1, 1.0), min(q2, 1.0)
    qb = min(qb, q1, q2)
    return (1.0 - dark) * q1, (1.0 - dark) * q2, (1.0 - dark) ** 2 * qb


def binomial_icdf(n, p, u):
    """The Bin(n, p) variate at uniform u in [0, 1) (scalar or array):
    the smallest k with u < F(k), F the CDF of the pmf table of the
    module docstring, scaled by the table's own sum."""
    if n == 0 or p <= 0.0:
        return np.zeros(np.shape(u), dtype=np.int64)[()]
    if p >= 1.0:
        return np.full(np.shape(u), n, dtype=np.int64)[()]
    q = 1.0 - p
    mode = min(int((n + 1) * p), n)
    half = math.ceil(10.0 * math.sqrt(n * p * q) + 40.0)
    lo, hi = max(mode - half, 0), min(mode + half, n)
    odds = p / q
    # p(k)/p(mode), falling away from the mode on both sides, so the
    # running products never overflow; far tails underflow to 0
    k = np.arange(mode, hi, dtype=np.float64)
    up = np.cumprod((n - k) / (k + 1.0) * odds)
    k = np.arange(mode, lo, -1, dtype=np.float64)
    down = np.cumprod(k / (n - k + 1.0) / odds)
    cdf = np.cumsum(np.concatenate((down[::-1], [1.0], up)))
    # u * cdf[-1] may round up to cdf[-1] itself
    j = np.searchsorted(cdf, np.multiply(u, cdf[-1]), side="right")
    return lo + np.minimum(j, hi - lo)


def click_counts(n, q1, q2, qb, seed, i):
    """(n1, n2, nc) of n windows with no-click probabilities q1, q2 and
    qb (0 <= qb <= q1, q2 <= 1): the multinomial of the module
    docstring, drawn at stream index i under seed; n <= 2^32 bounds the
    pmf tables at about 0.7M entries."""
    check_int(n, "click_counts: n", 0, 2**32)

    def draw(m, num, den, d):
        # num <= den; when den is 0 so is m, as no window is left to draw
        if m == 0:
            return 0
        return int(binomial_icdf(m, min(num / den, 1.0), _uniform(seed, i, d)))

    none = draw(n, qb, 1.0, 0)
    only1 = draw(n - none, q2 - qb, 1.0 - qb, 1)
    only2 = draw(n - none - only1, q1 - qb, 1.0 - q2, 2)
    both = n - none - only1 - only2
    return only1 + both, only2 + both, both


def hbt_counts(cdf, eta, split, dark, seed, start, stop):
    """Click/coincidence counts (n1, n2, nc) for windows [start, stop),
    drawn at stream index start; see the module docstring."""
    q1, q2, qb = click_probs(cdf, eta, split, dark)
    return click_counts(max(0, stop - start), q1, q2, qb, seed, start)
