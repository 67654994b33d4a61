"""Hot numeric kernels: numba @njit versions with pure-numpy fallbacks.

Backend selection: numba is used when importable unless the environment
variable WIGG2_NO_NUMBA is set to 1/true/yes.  Both backends implement
identical arithmetic on a counter-based RNG (splitmix64-style), so every
per-window decision (and hence every integer count) is bit-identical
across backends and independent of how the index range is partitioned
across workers.  Floating-point bootstrap moments may differ in the last
ulp between backends (summation order only).

The numpy bootstrap `boot_moments_np` splits its members into one
contiguous range per CPU in the process's affinity mask: one range runs
on the calling thread, the others on a thread pool, and each member
writes its own output slot, so the result does not depend on the number
of ranges.  Worker threads call only underscore-prefixed helpers, never
a public function (a tracer may wrap those, and a span opened on a
worker thread would have no parent).  Each range hashes its stream
indices in place, _BLOCK at a time, in buffers allocated once per call:
several members share a block when n < _BLOCK, and a member spans
several blocks when n > _BLOCK.  Smaller blocks would make the threads
contend for the GIL, which every numpy call takes and drops, more than
the extra CPUs gain.  The gather `np.take` runs once per group of
members, into a buffer of the range.  Sums of squares use `np.einsum`,
not BLAS (`np.dot`), so the moments do not depend on BLAS threading
either.  The numba bootstrap stays serial.

The numpy HBT kernel works in chunks of 65,536 windows, which bounds its
working set; counts do not depend on the chunk size.

Per-window draw layout for the HBT simulator (2 uniforms per window,
4 with dark counts):
    u0 -> photon number n from the state's cdf
    u1 -> click pattern given n, cut at the per-n no-click probabilities
          qb = (1-eta)^n, q2 = (1-eta(1-split))^n, q1 = (1-eta split)^n:
          [0, qb) none, [qb, q2) detector 1 only,
          [q2, q2 + q1 - qb) detector 2 only, the rest both
    u2, u3 -> dark events on detectors 1 and 2, drawn only when dark > 0
Threshold detectors only see whether each got >= 1 photon, so this is the
exact model (`no_click_probs`, shared with counting.expected_click_g2)
at O(1) cost per window.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError

_DISABLE = os.environ.get("WIGG2_NO_NUMBA", "0").lower() in ("1", "true", "yes")

try:
    if _DISABLE:
        raise ImportError
    import numba

    HAVE_NUMBA = True
except ImportError:
    numba = None
    HAVE_NUMBA = False


def backend_name() -> str:
    return "numba" if HAVE_NUMBA else "numpy"


def check_seed(seed, what: str) -> None:
    """Raise DomainError unless seed is an integer in [0, 2^63).  The
    bound leaves headroom for the offsets callers add to derive
    per-angle and per-row seeds inside the uint64 counter space."""
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**63:
        raise DomainError(f"{what}: seed must be an integer in [0, 2**63), "
                          f"got {seed!r}")


# splitmix64 constants
_PHI = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_STEP = np.uint64(0xD1342543DE82EF95)
_INV53 = 1.0 / 9007199254740992.0  # 2^-53
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))
_MASK64 = 0xFFFFFFFFFFFFFFFF
_BLOCK = 65_536  # stream indices hashed per step of the numpy bootstrap


# ---------------------------------------------------------------------------
# pure-numpy backend


def _mix_np(z, tmp):
    """splitmix64 finaliser of the uint64 array z, in place; tmp is a
    scratch array of the same shape."""
    np.add(z, _PHI, out=z)
    for shift, mult in ((_S30, _C1), (_S27, _C2)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, _S31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def _draw_bits(z, seed, draw, tmp):
    """Turn z = idx * _PHI (mod 2^64) in place into the 53 random bits of
    draw number `draw` for those stream indices."""
    np.bitwise_xor(z, np.uint64(seed), out=z)
    _mix_np(z, tmp)
    if draw:
        np.add(z, np.uint64((int(draw) * int(_STEP)) & _MASK64), out=z)
    _mix_np(z, tmp)
    np.right_shift(z, _S11, out=z)
    return z


def uniforms_np(seed: int, idx: np.ndarray, draw: int) -> np.ndarray:
    """Uniform (0,1) doubles for (stream index, draw number), vectorized
    over idx."""
    z = idx.astype(np.uint64)
    np.multiply(z, _PHI, out=z)
    _draw_bits(z, seed, draw, np.empty_like(z))
    u = z.astype(np.float64)
    u *= _INV53
    return u


def no_click_probs(n_max: int, eta: float, split: float):
    """(qb, q1, q2) for n = 0..n_max photons at a beam splitter feeding
    two threshold detectors of efficiency eta: the probabilities that
    neither detector, detector 1 (fraction `split`) and detector 2 sees
    a photon, (1-eta)^n, (1-eta split)^n and (1-eta(1-split))^n."""
    n = np.arange(n_max + 1, dtype=np.float64)
    return ((1.0 - eta) ** n, (1.0 - eta * split) ** n,
            (1.0 - eta * (1.0 - split)) ** n)


def _pattern_cuts(n_max, eta, split):
    """Per-n cut points (qb, q2, q2 + q1 - qb) of the u1 click-pattern
    draw; see the module docstring."""
    qb, q1, q2 = no_click_probs(n_max, eta, split)
    return qb, q2, q2 + q1 - qb


def hbt_counts_np(cdf, eta, split, dark, seed, start, stop, chunk=65_536):
    """Click/coincidence counts for windows [start, stop) — numpy backend."""
    n1 = n2 = nc = 0
    n_max = len(cdf) - 1
    qb, q2, cut = _pattern_cuts(n_max, eta, split)
    for lo in range(start, stop, chunk):
        idx = np.arange(lo, min(lo + chunk, stop), dtype=np.uint64)
        n = np.searchsorted(cdf, uniforms_np(seed, idx, 0), side="right")
        np.minimum(n, n_max, out=n)
        u1 = uniforms_np(seed, idx, 1)
        c2 = u1 >= q2[n]
        c1 = (u1 >= qb[n]) & ~(c2 & (u1 < cut[n]))
        if dark > 0.0:
            c1 |= uniforms_np(seed, idx, 2) < dark
            c2 |= uniforms_np(seed, idx, 3) < dark
        n1 += int(np.count_nonzero(c1))
        n2 += int(np.count_nonzero(c2))
        nc += int(np.count_nonzero(c1 & c2))
    return n1, n2, nc


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _boot_range(x, seed, row, bufs, lo, hi, means, variances):
    """Moments of bootstrap members [lo, hi) into means and variances.

    Member b draws stream indices b*n .. b*n + n - 1.  A block starting
    at stream index s hashes (s + j) * _PHI = s*_PHI + j*_PHI (mod 2^64),
    so each block adds one scalar to the shared row j*_PHI in place.
    bufs = (z, tmp, ix, xs) is this range's scratch: z and tmp as long
    as row, ix and xs as long as one gather.
    """
    z, tmp, ix, xs = bufs
    n = len(x)
    span = len(row)  # group * n, or _BLOCK when one member spans blocks
    group = max(1, span // n)  # members per gather
    scale = n * _INV53  # exact, so ix rounds once as in (z * _INV53) * n
    for b0 in range(lo, hi, group):
        m = min(group, hi - b0)
        for off in range(0, m * n, span):
            k = min(span, m * n - off)
            zk = z[:k]
            np.add(row[:k], np.uint64(((b0 * n + off) * int(_PHI)) & _MASK64),
                   out=zk)
            _draw_bits(zk, seed, 0, tmp[:k])
            # z < 2^53, so z * scale < n: the cast truncates to an index
            np.multiply(zk.view(np.int64), scale, out=ix[off:off + k],
                        casting="unsafe")
        # every index is in range, and mode="raise" would copy `out` first
        np.take(x, ix[:m * n], out=xs[:m * n], mode="wrap")
        for r in range(m):
            member = xs[r * n:(r + 1) * n]
            s = float(member.sum())
            ss = float(np.einsum("i,i->", member, member))
            mean = s / n
            means[b0 + r] = mean
            variances[b0 + r] = (ss - n * mean * mean) / (n - 1)


def boot_moments_np(x, n_boot, seed):
    """Bootstrap (mean, unbiased variance) pairs via counter-based
    resampling — numpy backend, one contiguous member range per CPU.

    All buffers are allocated here, on the calling thread: memory a
    worker thread frees stays with that thread's malloc arena and would
    add to the process's resident set.
    """
    n = len(x)
    means = np.empty(n_boot)
    variances = np.empty(n_boot)
    w = max(1, min(n_boot, _cpu_count()))
    bounds = [n_boot * i // w for i in range(w + 1)]
    group = max(1, _BLOCK // n)
    row = np.arange(min(group * n, _BLOCK), dtype=np.uint64)
    np.multiply(row, _PHI, out=row)
    z = np.empty((w, len(row)), dtype=np.uint64)
    tmp = np.empty_like(z)
    largest = -(-n_boot // w)  # members in the largest range
    ix = np.empty((w, min(group, largest) * n), dtype=np.int64)
    xs = np.empty(ix.shape)
    ranges = [(x, seed, row, (z[i], tmp[i], ix[i], xs[i]), bounds[i],
               bounds[i + 1], means, variances) for i in range(w)]
    if w == 1:
        _boot_range(*ranges[0])
        return means, variances
    with ThreadPoolExecutor(w - 1) as pool:
        futures = [pool.submit(_boot_range, *r) for r in ranges[1:]]
        _boot_range(*ranges[0])
        for f in futures:
            f.result()
    return means, variances


# ---------------------------------------------------------------------------
# numba backend (same arithmetic, scalar loops)

if HAVE_NUMBA:

    @numba.njit(numba.uint64(numba.uint64), cache=True, nogil=True)
    def _mix_nb(z):
        z = z + numba.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> numba.uint64(30))) * numba.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> numba.uint64(27))) * numba.uint64(0x94D049BB133111EB)
        return z ^ (z >> numba.uint64(31))

    @numba.njit(numba.float64(numba.uint64, numba.uint64, numba.uint64),
                cache=True, nogil=True)
    def _uniform_nb(seed, idx, draw):
        h = _mix_nb(seed ^ (idx * numba.uint64(0x9E3779B97F4A7C15)))
        z = _mix_nb(h + draw * numba.uint64(0xD1342543DE82EF95))
        return (z >> numba.uint64(11)) * (1.0 / 9007199254740992.0)

    @numba.njit(cache=True, nogil=True)
    def hbt_counts_nb(cdf, qb, q2, cut, dark, seed, start, stop):
        n1 = 0
        n2 = 0
        nc = 0
        n_max = len(cdf) - 1
        s = numba.uint64(seed)
        for i in range(start, stop):
            idx = numba.uint64(i)
            u0 = _uniform_nb(s, idx, numba.uint64(0))
            n = np.searchsorted(cdf, u0, side="right")
            if n > n_max:
                n = n_max
            u1 = _uniform_nb(s, idx, numba.uint64(1))
            c2 = u1 >= q2[n]
            c1 = (u1 >= qb[n]) and not (c2 and u1 < cut[n])
            if dark > 0.0:
                c1 = c1 or _uniform_nb(s, idx, numba.uint64(2)) < dark
                c2 = c2 or _uniform_nb(s, idx, numba.uint64(3)) < dark
            if c1:
                n1 += 1
            if c2:
                n2 += 1
            if c1 and c2:
                nc += 1
        return n1, n2, nc

    @numba.njit(cache=True, nogil=True)
    def boot_moments_nb(x, n_boot, seed):
        n = len(x)
        means = np.empty(n_boot)
        variances = np.empty(n_boot)
        s = numba.uint64(seed)
        for b in range(n_boot):
            base = numba.uint64(b) * numba.uint64(n)
            tot = 0.0
            tot2 = 0.0
            for j in range(n):
                u = _uniform_nb(s, base + numba.uint64(j), numba.uint64(0))
                v = x[int(u * n)]
                tot += v
                tot2 += v * v
            mean = tot / n
            means[b] = mean
            variances[b] = (tot2 - n * mean * mean) / (n - 1)
        return means, variances

    def hbt_counts(cdf, eta, split, dark, seed, start, stop):
        cdf = np.ascontiguousarray(cdf, dtype=np.float64)
        return hbt_counts_nb(
            cdf, *_pattern_cuts(len(cdf) - 1, float(eta), float(split)),
            float(dark), np.uint64(seed), np.int64(start), np.int64(stop),
        )

    def boot_moments(x, n_boot, seed):
        return boot_moments_nb(
            np.ascontiguousarray(x, dtype=np.float64), int(n_boot), np.uint64(seed)
        )

else:

    def hbt_counts(cdf, eta, split, dark, seed, start, stop):
        return hbt_counts_np(
            np.ascontiguousarray(cdf, dtype=np.float64),
            float(eta), float(split), float(dark), int(seed), int(start), int(stop),
        )

    def boot_moments(x, n_boot, seed):
        return boot_moments_np(
            np.ascontiguousarray(x, dtype=np.float64), int(n_boot), int(seed)
        )
