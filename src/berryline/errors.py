"""Exception taxonomy shared across the package.

Failure modes carry enough context to diagnose the offending input:
path indices, refinement histories, last values. Callers that need to
distinguish outcomes catch the specific class; ``BerrylineError`` is the
common base so command-line wrappers can map families to exit codes.
"""


class BerrylineError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateSpectrum(BerrylineError):
    """Eigenvalues coalesce within tolerance; eigenvectors are unreliable."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class PathTooCoarse(BerrylineError):
    """Consecutive path samples are too far apart to keep band labels."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SingularParameters(BerrylineError):
    """Parameters sit on the singular set where a derived quantity loses meaning."""


class TrueCrossing(BerrylineError):
    """The two complex energies coincide at the requested momentum."""


class BadResolution(BerrylineError):
    """Loop sample count is not an admissible power of two."""


class NotConverged(BerrylineError):
    """Refinement stalled before reaching the requested tolerance."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class SingularLoop(BerrylineError):
    """The requested loop passes through a singular or defective point."""


class Disagreement(BerrylineError):
    """Two independent evaluation routes disagree beyond tolerance."""

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = values


class GaugeMismatch(BerrylineError):
    """Declared gauge winding differs from the measured increment of f."""


class DomainError(BerrylineError):
    """Argument outside the domain of a special function."""


class OutsideValidityDomain(BerrylineError):
    """Closed-form expression is not valid at these parameters."""


class UndefinedAtTransition(BerrylineError):
    """Quantity has no defined value exactly at the transition point."""


class ClassificationMismatch(BerrylineError):
    """Numeric scan contradicts the analytic region label."""


class StepTooLarge(BerrylineError):
    """One integration step amplified the state beyond the stability guard."""

    def __init__(self, message, step=None, growth=None):
        super().__init__(message)
        self.step = step
        self.growth = growth


class AmplitudeOutOfRange(BerrylineError):
    """An evolved state's norm exp(log_scale) lies outside the floating-point range."""

    def __init__(self, message, log_scale=None):
        super().__init__(message)
        self.log_scale = log_scale


class BandLeakage(BerrylineError):
    """Evolved state leaked into the other band beyond the adiabatic budget."""

    def __init__(self, message, ratio=None):
        super().__init__(message)
        self.ratio = ratio
