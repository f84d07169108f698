"""Shared exception types, and the integer test of count arguments."""

import numpy as np


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class DomainError(ValueError):
    """Argument outside the supported domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at (or too close to) a pole."""


class GammaOverflowError(DomainError):
    """The base of specfun.AccuracyOverflow, which is raised when a special
    function gives inf or nan on finite input; nothing raises this directly."""


class AccuracyError(RuntimeError):
    """A quadrature or panel rule failed to reach its tolerance."""


class ResolutionError(AccuracyError):
    """Grid or refinement budget insufficient for the requested accuracy."""


class NotFredholmError(RuntimeError):
    """Winding number requested for a loop passing too close to the origin."""
