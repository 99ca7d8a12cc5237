"""Exception and warning types shared across the package.

Numerical routines signal trouble instead of letting NaN or infinity
propagate: a pole hit raises PoleError, an argument or a value outside
double range or a truncation's reach raises DomainError, and so on.
"""


class HypzetaError(Exception):
    """Base class for all package-specific errors."""


class PoleError(HypzetaError):
    """Evaluation requested at (or numerically on top of) a pole."""


class DomainError(HypzetaError):
    """Input outside the region where the operation is defined."""


class MismatchError(HypzetaError):
    """Structurally incompatible inputs (e.g. cusp counts disagree)."""


class FitError(HypzetaError):
    """A numerical fit (slope, extrapolation) did not lock onto its target."""


class SingularFactorError(HypzetaError):
    """A named factor of a composite formula is singular at the input."""

    def __init__(self, factor: str, message: str = ""):
        self.factor = factor
        super().__init__(f"singular factor {factor!r}" + (f": {message}" if message else ""))


class CapacityError(HypzetaError):
    """An enumeration exceeded its configured size limit."""


class EmptySpectrumError(HypzetaError):
    """An operation requires a non-empty length spectrum."""


class DomainWarning(UserWarning):
    """Result computed outside the trusted domain of one of its inputs."""
