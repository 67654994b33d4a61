"""Exception hierarchy shared across the package, the one check of
integer arguments (`check_int`), the one check of real-valued arguments
(`check_float`) and the one conversion of array arguments
(`float_array`).  Domain/guard errors map to CLI exit code 3,
statistical-instability errors to exit code 4.
"""

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class NearVacuumError(DomainError):
    """g2(0) requested for a state whose mean photon number is below the
    divergence guard (numerator and denominator both vanish at vacuum)."""


class NotSqueezedError(DomainError):
    """Loss inference requires g2 > 3 (squeezed-vacuum branch)."""


class InconsistentInputsError(DomainError):
    """Measured inputs contradict each other (e.g. unsqueezed variance
    paired with a squeezed-vacuum g2)."""


class GridTooSmallError(DomainError):
    """Quadrature grid does not capture the distribution; carries the
    normalization deficit."""

    def __init__(self, message, deficit=None):
        super().__init__(message)
        self.deficit = deficit


class TruncationError(DomainError):
    """Photon-number truncation leaves too much tail mass."""

    def __init__(self, message, tail_mass=None, suggested_n_max=None):
        super().__init__(message)
        self.tail_mass = tail_mass
        self.suggested_n_max = suggested_n_max


class IdentifiabilityError(DomainError):
    """Homodyne angle set cannot determine the covariance parameters."""


class FitError(RuntimeError):
    """Nonlinear fit failed to converge; carries the final residual.

    Nothing in the package raises it (the HWP sweep fit is a linear
    least-squares solve); it stays a public name because the benchmark
    harness imports it."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class StatisticalError(RuntimeError):
    """Base for instability/insufficient-data failures (CLI exit code 4)."""


class InsufficientStatisticsError(StatisticalError):
    """Too few counts to form an estimate."""


class UnstableInferenceError(StatisticalError):
    """Bootstrap majority fell into the near-vacuum guard; the inferred
    g2 is not trustworthy."""


def check_int(value, what: str, lo: int, hi=None) -> None:
    """Raise DomainError unless value is an int or numpy integer, never a
    bool, in [lo, hi] (hi None: no upper bound).  An exact int in range
    returns at once; every other value takes the full test."""
    if type(value) is int and lo <= value and (hi is None or value <= hi):
        return
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lo or (hi is not None and value > hi)):
        # the package's large bounds, as powers of two
        top = {2**32: "2**32", 2**63 - 1: "2**63 - 1",
               2**64 - 1: "2**64 - 1"}.get(hi, hi)
        span = f">= {lo}" if hi is None else f"in [{lo}, {top}]"
        raise DomainError(f"{what} must be an integer {span}, got {value!r}")


def check_seed(seed, what: str) -> None:
    """check_int for a seed: [0, 2^63) leaves headroom for the offsets
    callers add to derive per-angle and per-row seeds.  The message is
    formatted only for a seed that takes the full test."""
    if type(seed) is int and 0 <= seed < 2**63:
        return
    check_int(seed, f"{what}: seed", 0, 2**63 - 1)


def check_float(value, what: str, lo=-math.inf, hi=math.inf, ends="()"):
    """Raise DomainError unless value is a real number, never a bool, in
    the interval lo..hi with ends "()" (the default: no +-inf), "[)", "(]"
    or "[]".  NaN is in no interval; an exact float skips the type test."""
    real = type(value) is float or (not isinstance(value, bool)
                                    and isinstance(value, numbers.Real))
    if (real and (lo < value or value == lo and ends[0] == "[")
            and (value < hi or value == hi and ends[1] == "]")):
        return
    kind = "" if not real or -math.inf < value < math.inf else "non-finite "
    raise DomainError(f"{what} must be a real number in {ends[0]}{lo}, "
                      f"{hi}{ends[1]}, got {kind}{value!r}")


def float_array(values, what: str) -> np.ndarray:
    """values as a float array (values itself if it is one), else a
    DomainError naming what: numpy's own error for a non-number or a
    ragged list is a bare ValueError."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be a regular array of numbers: "
                          f"{exc}") from exc
