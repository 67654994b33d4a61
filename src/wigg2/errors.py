"""Exception hierarchy shared across the package.

Domain/guard errors map to CLI exit code 3, statistical-instability
errors to exit code 4.
"""


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
