"""Hot numeric kernels in numpy: the counter-based RNG, its normal pairs
and the HBT click sampler.

Every draw comes from one counter-based RNG built on splitmix64 (Steele,
Lea & Flood, "Fast splittable pseudorandom number generators", OOPSLA
2014).  With mix64 the splitmix64 output function (add phi, then the
8-op finaliser) and all arithmetic mod 2^64, draw number `draw` at
stream index i under `seed` is

    u(seed, i, draw) = (mix64(k + i*phi) >> 11) * 2^-53,
    k = mix64(seed ^ mix64(draw * STEP)),

a double in [0, 1).  The draw half mix64(draw * STEP) of k never
changes for a given draw, so it is memoised; a scalar draw costs the
finalisers of k and of its stream index, and the array paths compute k
once per call, so each stream index there costs one finaliser.  A draw
depends only on (seed, i, draw), never on how a caller splits its work.

Normals come a pair per stream index from `normal_pairs`, by
Marsaglia's polar method (Marsaglia & Bray, SIAM Review 6, 260 (1964)),
with no trigonometry, from draw ranges of their own (below).

The HBT arm is one multinomial.  Threshold detectors only see whether
each fired, so a window's click pattern depends on the state only
through the probabilities q1, q2 and qb that detector 1, detector 2 and
both stay silent, dark events included.  counting.simulate_hbt takes
them from the state in closed form; `click_probs` averages them over a
photon-number distribution p(n), for counting.expected_click_g2.  N
independent windows then give exactly

    (none, 1 only, 2 only, both)
        ~ Multinomial(N; qb, q2 - qb, q1 - qb, 1 - q1 - q2 + qb),

which `click_counts` draws as three conditional binomials at stream
index i, binomial d = 0, 1, 2 from draws d, d + 3, d + 6, ...: none ~
Bin(N, qb), then 1 only ~ Bin(N - none, (q2 - qb)/(1 - qb)), then
2 only ~ Bin(rest, (q1 - qb)/(1 - q2)); the windows left over click on
both.  `binomial` draws each in O(1) expected time, whatever N:

- small mean, n min(p, 1 - p) < 10: `_binomial_icdf` inverts the CDF at
  the one uniform u(seed, i, d) by sequential search from
  f(0) = (1 - p)^n >= e^-20 up the ratio recurrence f(k+1)/f(k) =
  (n - k) p / ((k + 1)(1 - p)) (Devroye, Non-Uniform Random Variate
  Generation, 1986, ch. X.3; Kachitvichyanukul & Schmeiser's BINV,
  Commun. ACM 31, 216 (1988)), on p <= 1/2, a larger p drawn as
  n - Bin(n, 1 - p) at 1 - u, exact for the 53-bit uniforms;
- large mean: Hormann's BTRS, transformed rejection with squeeze
  (W. Hormann, "The generation of binomial random variates",
  J. Statist. Comput. Simul. 46, 101 (1993)), on p <= 1/2, a larger p
  drawn as n - Bin(n, 1 - p).  Try j takes u - 1/2 at draw d + 6j and
  v at draw d + 6j + 3; a draw takes about 1.4 tries at mean 10 and
  1.14 from mean 1e5 on, whatever n.

A counting.simulate_hbt run is one click_counts call at stream index 0,
draw base 0.  The parametric bootstrap of the click estimator draws
member b at stream index b from draw base CLICK_MEMBER_DRAWS, so its
binomials take draws CLICK_MEMBER_DRAWS + d + 3j.  Every arm of a run
thus has a draw range of its own: HBT counts 0, 1, 2, ..., HBT members
CLICK_MEMBER_DRAWS + t, homodyne samples SAMPLE_DRAWS + t and homodyne
bootstrap members MEMBER_DRAWS + t, t counting tries, and no two arms
share a uniform, whatever their seeds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import check_int, check_seed

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
_INV52 = 2.0 ** -52
_S_MIN = 2.0 ** -104  # the least nonzero s: x and y are multiples of 2^-52
# the draw ranges of HBT bootstrap members, homodyne samples and homodyne
# bootstrap members (docstring)
CLICK_MEMBER_DRAWS = 1 << 61
SAMPLE_DRAWS = 1 << 62
MEMBER_DRAWS = 1 << 63
# values per pass of normal_pairs and of tomography's moment sums: their
# scratch stays in cache, and a pass touches no fresh memory but its output
CHUNK = 1 << 15


# The splitmix64 finaliser is written out in each of the three functions
# below, as the last two run for every scalar draw.


@functools.lru_cache(maxsize=1024)
def _draw_mix(draw: int) -> int:
    """mix64(draw * STEP) of the Python int draw, the half of the key k
    that does not depend on the seed.  A run's draws are a few small
    offsets from each range's base, so the cache holds them all."""
    z = (draw * _STEP + _PHI) & _MASK64
    z = ((z ^ (z >> 30)) * _C1) & _MASK64
    z = ((z ^ (z >> 27)) * _C2) & _MASK64
    return z ^ (z >> 31)


def _key(seed, draw) -> int:
    """k + phi of the module docstring for (seed, draw), so that
    mix64(k + i*phi) is the finaliser of i*phi + _key(seed, draw)."""
    z = ((int(seed) ^ _draw_mix(int(draw))) + _PHI) & _MASK64
    z = ((z ^ (z >> 30)) * _C1) & _MASK64
    z = ((z ^ (z >> 27)) * _C2) & _MASK64
    return ((z ^ (z >> 31)) + _PHI) & _MASK64


def _uniform(seed, i, draw) -> float:
    """u(seed, i, draw) of the module docstring for one stream index, in
    Python ints: the finaliser of i*phi + _key(seed, draw), written out."""
    z = (int(i) * _PHI + _key(seed, draw)) & _MASK64
    z = ((z ^ (z >> 30)) * _C1) & _MASK64
    z = ((z ^ (z >> 27)) * _C2) & _MASK64
    return ((z ^ (z >> 31)) >> 11) * _INV53


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
    over the stream indices idx.  No module calls it: it is the array
    form through which the tests pin the stream."""
    z = idx.astype(np.uint64)
    np.multiply(z, _PHI64, out=z)
    return _draw_bits(z, _key(seed, draw), np.empty_like(z)) * _INV53


def normal_pairs(seed, idx, draw=0):
    """Standard normals, a pair per stream index of idx under seed, by
    Marsaglia's polar method: index i tries (x, y) = (2u - 1, 2w - 1)
    with u and w its draws draw + 2j and draw + 2j + 1, j = 0, 1, ...,
    until 0 < s = x^2 + y^2 < 1, and yields (x, y) sqrt(-2 ln s / s).
    x = bits 2^-52 - 1 is exact for the 53 bits of u.  idx has shape
    (..., h) and the result (..., 2, h): each row's x's, then its y's,
    so a row's 2h normals are contiguous.  A pair depends only on
    (seed, i, draw): each row is tried in chunks of CHUNK indices, and
    the indices rejected anywhere are retried together, by recursion on
    draw + 2."""
    idx = np.asarray(idx)
    rows = idx.reshape(math.prod(idx.shape[:-1]), idx.shape[-1])
    h = rows.shape[1]
    out = np.empty((len(rows), 2, h))
    keys = (_key(seed, draw), _key(seed, draw + 1))
    # row 1 hashes i phi + keys[1] as (i phi + step) + keys[0]
    step = np.uint64((keys[1] - keys[0]) & _MASK64)
    c = min(h, CHUNK)
    # the draws' bits are hashed in out itself; f shares tmp's memory
    tmp = np.empty((2, c), dtype=np.uint64)
    s = np.empty(c)
    ok, pos = np.empty((2, c), dtype=bool)
    retry = [np.empty(0, dtype=np.intp)]
    for k, row in enumerate(rows):
        for a in range(0, h, CHUNK):
            b = min(a + CHUNK, h)
            m = b - a
            xy = out[k, :, a:b]
            z = xy.view(np.uint64)
            np.copyto(z[0], row[a:b], casting="unsafe")
            np.multiply(z[0], _PHI64, out=z[0])
            np.add(z[0], step, out=z[1])
            _draw_bits(z, keys[0], tmp[:, :m])
            np.multiply(z.view(np.int64), _INV52, out=xy)
            xy -= 1.0
            sm, fm, okm = s[:m], tmp[0, :m].view(np.float64), ok[:m]
            np.multiply(xy[0], xy[0], out=sm)
            np.multiply(xy[1], xy[1], out=fm)
            sm += fm
            np.less(sm, 1.0, out=okm)
            okm &= np.greater(sm, 0.0, out=pos[:m])
            # rejected tries get a finite factor, then are overwritten
            np.clip(sm, _S_MIN, 1.0, out=sm)
            np.log(sm, out=fm)
            fm /= sm
            fm *= -2.0
            np.sqrt(fm, out=fm)
            xy *= fm
            retry.append(np.flatnonzero(~okm) + (k * h + a))
    retry = np.concatenate(retry)
    if retry.size:
        k, t = np.divmod(retry, h)
        out[k, :, t] = normal_pairs(seed, rows.reshape(-1)[retry],
                                    draw + 2).T
    return out.reshape(idx.shape[:-1] + (2, h))


def click_probs(p, eta, split, dark):
    """(q1, q2, qb): the probabilities that detector 1, detector 2 and
    both stay silent in a window, averaged over p(n), n = 0..len(p) - 1
    (mass missing from sum p counts as the last n).  Given n they are
    (1-dark)(1-eta split)^n, (1-dark)(1-eta(1-split))^n and
    (1-dark)^2 (1-eta)^n: `split` of the photons go to detector 1, and
    each detector has efficiency eta and dark-event probability `dark`.
    Every sum is exactly rounded (math.fsum), whatever BLAS or order."""
    p = np.array(p, dtype=np.float64)
    p[-1] += 1.0 - math.fsum(p.tolist())
    q = np.array([[1.0 - eta * split], [1.0 - eta * (1.0 - split)],
                  [1.0 - eta]])
    terms = q ** np.arange(len(p), dtype=np.float64)
    terms *= p
    q1, q2, qb = (math.fsum(row) for row in terms.tolist())
    # fock may leave sum p up to 1e-9 above 1, which must not give q > 1;
    # qb <= q1, q2 keeps every pattern count >= 0 should pow round a hair
    # out of order; the dark factors below preserve both
    q1, q2 = min(q1, 1.0), min(q2, 1.0)
    qb = min(qb, q1, q2)
    return (1.0 - dark) * q1, (1.0 - dark) * q2, (1.0 - dark) ** 2 * qb


def _binomial_icdf(n, p, u):
    """The Bin(n, p) variate at the scalar uniform u in [0, 1), for
    n min(p, 1 - p) < 10 only: the smallest k with u < F(k), by sequential
    search up the pmf from k = 0, p > 1/2 as n - k at 1 - u.  Above that
    mean (1 - p)^n may underflow, and the search would return 0."""
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial_icdf(n, 1.0 - p, 1.0 - u)
    odds = p / (1.0 - p)
    f = math.exp(n * math.log1p(-p))
    k = 0
    # f > 0 ends the search should round-off leave u above the summed mass
    while u >= f > 0.0 and k < n:
        u -= f
        k += 1
        f *= (n - k + 1) / k * odds
    return k


# Stirling's remainder fc(k) = log k! - (k + 1/2) log(k + 1) + (k + 1)
# - log(2 pi)/2 for k = 0..9, rounded from 40-digit values
_FC = (0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
       0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
       0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
       0.00833056343336287)


def _fc(k):
    """Stirling's remainder fc(k) of the integer k >= 0: the table below
    10, else its series to 1/(k + 1)^5."""
    if k <= 9:
        return _FC[k]
    s = 1.0 / ((k + 1) * (k + 1))
    return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 * s) * s) / (k + 1)


def _btrs(n, p, seed, i, d):
    """Bin(n, p) by Hormann's BTRS for p <= 1/2 and n p >= 10: try j
    draws u - 1/2 at draw d + 6j and v at draw d + 6j + 3 of stream
    index i under seed."""
    q = 1.0 - p
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    # the constants of the full acceptance test, which most draws never
    # reach: set on the first try that leaves the squeeze
    h_m = None
    while True:
        u = _uniform(seed, i, d) - 0.5
        v = _uniform(seed, i, d + 3)
        d += 6
        us = 0.5 - abs(u)
        # u = -1/2, from a draw of exactly 0, is outside the hat
        if us == 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        if h_m is None:
            r = p / q
            alpha = (2.83 + 5.1 / b) * spq
            m = math.floor((n + 1) * p)
            # the part of the log acceptance bound that does not depend on k
            h_m = ((m + 0.5) * math.log((m + 1) / (r * (n - m + 1)))
                   + _fc(m) + _fc(n - m))
        # log(f(k)/f(m)) by Stirling; (n + 1) log((n - m + 1)/(n - k + 1))
        # through log1p, which the plain quotient would round by n eps
        bound = (h_m + (n + 1) * math.log1p((k - m) / (n - k + 1))
                 + (k + 0.5) * math.log(r * (n - k + 1) / (k + 1))
                 - _fc(k) - _fc(n - k))
        # v = 0 has log v = -inf
        if v == 0.0 or math.log(v * alpha / (a / (us * us) + b)) <= bound:
            return k


def binomial(n, p, seed, i, d):
    """A Bin(n, p) variate (0 <= p <= 1) at stream index i under seed,
    from draws d, d + 3, d + 6, ...: `_binomial_icdf` at u(seed, i, d)
    when n min(p, 1 - p) < 10, else BTRS (module docstring)."""
    if n * min(p, 1.0 - p) < 10.0:
        return int(_binomial_icdf(n, p, _uniform(seed, i, d)))
    if p > 0.5:
        return n - _btrs(n, 1.0 - p, seed, i, d)
    return _btrs(n, p, seed, i, d)


def click_counts(n, q1, q2, qb, seed, i, draw=0):
    """(n1, n2, nc) of n windows with no-click probabilities q1, q2 and
    qb (0 <= qb <= q1, q2 <= 1): the multinomial of the module
    docstring, its binomials at draws draw + d + 3j of stream index i
    under seed.  n <= 2^32 keeps the rounding of BTRS's acceptance test,
    which grows as n eps, near 1e-6.  A seed outside the package's range
    [0, 2^63) or an index outside [0, 2^64), which the key arithmetic
    would alias mod 2^64, raises DomainError."""
    check_int(n, "click_counts: n", 0, 2**32)
    check_seed(seed, "click_counts")
    check_int(i, "click_counts: i", 0, 2**64 - 1)

    def conditional(m, num, den, d):
        # num <= den; when den is 0 so is m, as no window is left to draw
        if m == 0:
            return 0
        return binomial(m, min(num / den, 1.0), seed, i, draw + d)

    none = conditional(n, qb, 1.0, 0)
    only1 = conditional(n - none, q2 - qb, 1.0 - qb, 1)
    only2 = conditional(n - none - only1, q1 - qb, 1.0 - q2, 2)
    both = n - none - only1 - only2
    return only1 + both, only2 + both, both
