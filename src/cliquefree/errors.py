"""Exception types shared across the package."""


class CliquefreeError(Exception):
    """Base class for package-specific failures."""


class Graph6Error(CliquefreeError, ValueError):
    """Malformed graph6 input."""


class NodeLimitError(CliquefreeError):
    """A bounded search exceeded its node budget.

    Carries whatever partial tallies the search had accumulated so callers
    can report progress instead of discarding work.
    """

    def __init__(self, message: str, nodes: int, partial=None):
        super().__init__(message)
        self.nodes = nodes
        self.partial = partial


class ThresholdChainError(CliquefreeError, ValueError):
    """Threshold bookkeeping produced a non-monotone chain.

    Raised when the computed appearance thresholds cannot be ordered into
    a single sweep a_k <= b_1 <= c_1 <= ... <= c_s = a_{k+1}.  This happens
    only outside the supported parameter regime (very small level k paired
    with a large part count r).
    """
