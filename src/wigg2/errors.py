"""Exception hierarchy shared across the package, and the one check of
integer arguments (float ranges are written `if not lo <= v <= hi`, which
NaN fails).  Domain/guard errors map to CLI exit code 3,
statistical-instability errors to exit code 4.
"""

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
    bool, in [lo, hi] (hi None: no upper bound)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lo or (hi is not None and value > hi)):
        # the package's two large bounds, as powers of two
        top = {2**32: "2**32", 2**63 - 1: "2**63 - 1"}.get(hi, hi)
        span = f">= {lo}" if hi is None else f"in [{lo}, {top}]"
        raise DomainError(f"{what} must be an integer {span}, got {value!r}")


def check_seed(seed, what: str) -> None:
    """check_int for a seed: [0, 2^63) leaves headroom for the offsets
    callers add to derive per-angle and per-row seeds."""
    check_int(seed, f"{what}: seed", 0, 2**63 - 1)
