"""Shared exception types."""


class WeightLabError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(WeightLabError, ValueError):
    """A scalar argument is outside its admissible range."""


class DomainError(WeightLabError, ValueError):
    """A point, interval or evaluation argument leaves the admissible set."""


class InfeasibleTargetError(WeightLabError, ValueError):
    """An extremal target cannot be realized by the requested family."""


class SplitError(WeightLabError, RuntimeError):
    """No admissible dyadic split ratio was found.

    Carries the least-violating cut ratio (best_alpha) and its chord's exact
    peak excess over the q1 domain (best_violation): how close the sweep got.
    """

    def __init__(self, message, best_alpha=None, best_violation=None):
        super().__init__(message)
        self.best_alpha = best_alpha
        self.best_violation = best_violation
