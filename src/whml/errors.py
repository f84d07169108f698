"""Shared exception types."""


class DomainError(ValueError):
    """Argument outside the supported domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""


class GammaOverflowError(DomainError):
    """Gamma argument beyond the overflow guard |Re z| > 170."""


class AccuracyError(RuntimeError):
    """A quadrature or panel rule failed to reach its tolerance."""


class ResolutionError(AccuracyError):
    """Grid or refinement budget insufficient for the requested accuracy."""


class NotFredholmError(RuntimeError):
    """Winding number requested for a loop passing too close to the origin."""
