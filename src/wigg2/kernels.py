"""Hot numeric kernels in numpy: the counter-based RNG, the HBT click
sampler and the bootstrap moment resampler.

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

The bootstrap takes two indices from each hash.  Over
n samples, member b hashes stream indices b*m .. b*m + m - 1 of draw 0,
m = ceil(n/2); with h = mix64(k + i*phi) the full 64-bit hash (no >> 11),
each hash gives
    hi = ((h >> 32) * n) >> 32,   lo = ((h & (2^32 - 1)) * n) >> 32,
Lemire's multiply-shift ("Fast random integer generation in an
interval", ACM TOMACS 2019), in uint64 arithmetic with no float round
trip.  The member resamples x[hi_0 .. hi_(m-1)] followed by
x[lo_0 .. lo_(m-1)], cut to n (an odd n drops the last lo), and is
summed in that order.  Each 32-bit half takes one of 2^32 values, so an
index has probability (1 + e)/n with |e| < n/2^32: a bias of at most
2.3e-5 at n = 100,000.  n may not exceed 2^32.

`boot_moments_sets` bootstraps all the sample sets of a reconstruction
(one per homodyne angle) in one call.  Member b of set k has the
flattened index k*n_boot + b, and that index range runs as one
contiguous range per CPU in the process's affinity mask: one range runs
on the calling thread, the others on one thread pool, and a range may
start and end inside a set.  Each member writes its own output slot, so
the result does not depend on the number of ranges; `boot_moments` is
the same call on one set.
Worker threads call only underscore-prefixed helpers, never a public
function (a tracer may wrap those, and a span opened on a worker thread
would have no parent).  Each range hashes its stream indices in place,
at most _BLOCK at a time, in buffers allocated once per call and sized
for the largest set: several members share a block when m < _BLOCK,
and a member spans several blocks when m > _BLOCK.  Every block adds
its offset to a prefix of one row i*phi.  Smaller blocks would make the
threads contend for the GIL, which every numpy call takes and drops,
more than the extra CPUs gain.  The gather `np.take` runs once per
group of members, into a buffer of the range, and one row sum gives
the group's member sums.  Sums of squares use `np.einsum` per member,
not BLAS (`np.dot`), so the moments do not depend on BLAS threading
either.

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
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError

# numpy is the only backend; these names stay for callers that report it
HAVE_NUMBA = False


def backend_name() -> str:
    return "numpy"


def check_seed(seed, what: str) -> None:
    """Raise DomainError unless seed is an integer in [0, 2^63).  The
    bound leaves headroom for the offsets callers add to derive
    per-angle and per-row seeds inside the uint64 counter space."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**63:
        raise DomainError(f"{what}: seed must be an integer in [0, 2**63), "
                          f"got {seed!r}")


# splitmix64 constants, as Python ints: scalar key arithmetic masks with
# _MASK64 and never overflows a numpy scalar
_PHI = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_STEP = 0xD1342543DE82EF95
_MASK64 = 0xFFFFFFFFFFFFFFFF
_PHI64 = np.uint64(_PHI)
_ROUNDS = ((np.uint64(30), np.uint64(_C1)), (np.uint64(27), np.uint64(_C2)))
_S11, _S31, _S32 = np.uint64(11), np.uint64(31), np.uint64(32)
_LOW32 = np.uint64(0xFFFFFFFF)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53
_BLOCK = 65_536  # stream indices hashed per step of the bootstrap


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


def _finalise(z, tmp):
    """splitmix64 finaliser (mix64 without its + phi) of the uint64 array
    z, in place; tmp is a scratch array of the same shape."""
    for shift, mult in _ROUNDS:
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, _S31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def _hash(z, row, offset, tmp):
    """z = finaliser(row + offset), with the Python int offset taken mod
    2^64.  With row = i*phi and offset = _key(seed, draw) this is the
    64-bit hash mix64(k + i*phi) of stream index i."""
    np.add(row, np.uint64(offset & _MASK64), out=z)
    return _finalise(z, tmp)


def _draw_bits(z, row, offset, tmp):
    """z = _hash(z, row, offset, tmp) >> 11, the 53 random bits of
    u(seed, i, draw)."""
    _hash(z, row, offset, tmp)
    np.right_shift(z, _S11, out=z)
    return z


def _multiply_shift(h, n, hi, lo):
    """hi = ((h >> 32) * n) >> 32 and lo = ((h & (2^32 - 1)) * n) >> 32,
    indices in [0, n) from the uint64 hashes h, n <= 2^32; lo may have
    fewer columns than h, and takes the leading ones.  Each product is
    below 2^64, so no step wraps."""
    n = np.uint64(n)
    np.right_shift(h, _S32, out=hi)
    np.multiply(hi, n, out=hi)
    np.right_shift(hi, _S32, out=hi)
    np.bitwise_and(h[..., :lo.shape[-1]], _LOW32, out=lo)
    np.multiply(lo, n, out=lo)
    np.right_shift(lo, _S32, out=lo)


def uniforms_np(seed: int, idx: np.ndarray, draw: int) -> np.ndarray:
    """u(seed, i, draw) of the module docstring, in [0, 1), vectorized
    over the stream indices idx."""
    z = idx.astype(np.uint64)
    np.multiply(z, _PHI64, out=z)
    return _draw_bits(z, z, _key(seed, draw), np.empty_like(z)) * _INV53


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
    if not 0 <= n <= 2**32:
        raise DomainError(f"click_counts: need 0 <= n <= 2**32 windows, "
                          f"got {n}")

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


def hbt_counts_np(cdf, eta, split, dark, seed, start, stop):
    """Click/coincidence counts (n1, n2, nc) for windows [start, stop),
    drawn at stream index start; see the module docstring."""
    q1, q2, qb = click_probs(cdf, eta, split, dark)
    return click_counts(max(0, stop - start), q1, q2, qb, seed, start)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _boot_layout(n):
    """(m, group, span) of a bootstrap over n samples: m = ceil(n/2) hashes
    per member, `group` members per gather and `span` stream indices
    hashed per block, group * m, or _BLOCK when one member spans blocks."""
    m = (n + 1) // 2
    group = max(1, _BLOCK // m)
    return m, group, min(group * m, _BLOCK)


def _boot_set(x, key, row, bufs, lo, hi, sums, sumsqs):
    """Sums and sums of squares of bootstrap members [lo, hi) of x into
    sums and sumsqs.

    Member b hashes stream indices b*m .. b*m + m - 1 of draw 0, whose
    _key is `key`.  A block starting at stream index s hashes
    (s + j)*phi + key = (s*phi + key) + j*phi (mod 2^64), so each block
    adds one scalar to a prefix of the shared row j*phi.
    bufs = (z, tmp, ix, xs) is this range's scratch: z and tmp at least
    as long as a block, ix and xs as long as a gather.
    """
    z, tmp, ix, xs = bufs
    n = len(x)
    m, group, span = _boot_layout(n)
    for b0 in range(lo, hi, group):
        g = min(group, hi - b0)
        idx = ix[:g * n].view(np.uint64).reshape(g, n)
        for off in range(0, m, span):
            k = min(span, m - off)  # k = m unless a member spans blocks
            h = _hash(z[:g * k], row[:g * k], (b0 * m + off) * _PHI + key,
                      tmp[:g * k]).reshape(g, k)
            # a member's his fill columns [0, m), its los [m, n)
            _multiply_shift(h, n, idx[:, off:off + k],
                            idx[:, m + off:min(m + off + k, n)])
        # every index is in range, and mode="raise" would copy `out` first
        members = np.take(x, ix[:g * n], out=xs[:g * n],
                          mode="wrap").reshape(g, n)
        # a row sum along the contiguous axis is each member's own
        # pairwise .sum(); einsum over several rows would round
        # differently, and with the number of rows, so it stays per row
        members.sum(axis=1, out=sums[b0:b0 + g])
        for r, member in enumerate(members, b0):
            sumsqs[r] = np.einsum("i,i->", member, member)


def _boot_range(sets, keys, row, bufs, lo, hi, sums, sumsqs):
    """Members [lo, hi) of the flattened index k*n_boot + b of member b of
    set k, set by set; a range may start and end inside a set."""
    n_boot = sums.shape[1]
    for k in range(lo // n_boot, (hi - 1) // n_boot + 1):
        first = k * n_boot
        _boot_set(sets[k], keys[k], row, bufs, max(lo - first, 0),
                  min(hi - first, n_boot), sums[k], sumsqs[k])


def boot_moments_sets(samples, n_boot, seeds):
    """Bootstrap (means, unbiased variances) of several sample sets in
    one call, each of shape (len(samples), n_boot): row k is the
    bootstrap of samples[k] under seeds[k], n_boot members each;
    2 <= len(samples[k]) <= 2^32.

    The flattened (set, member) range runs as one contiguous range per
    CPU on one thread pool.  All buffers are allocated here, on the
    calling thread, once and sized for the largest set: memory a worker
    thread frees stays with that thread's malloc arena and would add to
    the process's resident set.
    """
    if len(samples) == 0:
        raise DomainError("boot_moments_sets: need at least one sample set")
    if len(seeds) != len(samples):
        raise DomainError(f"boot_moments_sets: {len(seeds)} seeds for "
                          f"{len(samples)} sample sets")
    if (isinstance(n_boot, bool) or not isinstance(n_boot, (int, np.integer))
            or n_boot < 1):
        raise DomainError(f"boot_moments_sets: n_boot must be an integer "
                          f">= 1, got {n_boot!r}")
    # checked before the float64 copy; multiply-shift needs n <= 2^32
    for k, x in enumerate(samples):
        if not 2 <= len(x) <= 2**32:
            raise DomainError(f"boot_moments_sets: need 2 <= len <= 2**32 "
                              f"samples, set {k} has len {len(x)}")
    sets = [np.ascontiguousarray(x, dtype=np.float64) for x in samples]
    n_boot = int(n_boot)
    total = len(sets) * n_boot
    w = max(1, min(total, _cpu_count()))
    bounds = [total * i // w for i in range(w + 1)]
    largest = -(-total // w)  # members in the largest range
    # the outputs hold the sums until the end; allocated after the
    # scratch, they would sit above it in the heap and keep its space
    # from being reused by the next call
    means = np.empty((len(sets), n_boot))
    variances = np.empty_like(means)
    layouts = [_boot_layout(len(x)) for x in sets]
    row = np.arange(max(span for _, _, span in layouts), dtype=np.uint64)
    np.multiply(row, _PHI64, out=row)
    z = np.empty((w, len(row)), dtype=np.uint64)
    tmp = np.empty_like(z)
    gather = max(min(group, n_boot, largest) * len(x)
                 for x, (_, group, _) in zip(sets, layouts))
    ix = np.empty((w, gather), dtype=np.int64)
    xs = np.empty(ix.shape)
    keys = [_key(seed, 0) for seed in seeds]
    ranges = [(sets, keys, row, (z[i], tmp[i], ix[i], xs[i]), bounds[i],
               bounds[i + 1], means, variances) for i in range(w)]
    if w == 1:
        _boot_range(*ranges[0])
    else:
        with ThreadPoolExecutor(w - 1) as pool:
            futures = [pool.submit(_boot_range, *r) for r in ranges[1:]]
            _boot_range(*ranges[0])
            for f in futures:
                f.result()
    n = np.array([len(x) for x in sets], dtype=np.float64)[:, None]
    means /= n
    variances -= n * means * means
    variances /= n - 1
    return means, variances


def boot_moments_np(x, n_boot, seed):
    """Bootstrap (mean, unbiased variance) pairs of one sample set."""
    return tuple(a[0] for a in boot_moments_sets([x], n_boot, [seed]))


def hbt_counts(cdf, eta, split, dark, seed, start, stop):
    return hbt_counts_np(
        np.ascontiguousarray(cdf, dtype=np.float64),
        float(eta), float(split), float(dark), int(seed), int(start), int(stop),
    )


def boot_moments(x, n_boot, seed):
    return tuple(a[0] for a in boot_moments_sets([x], n_boot, [seed]))
