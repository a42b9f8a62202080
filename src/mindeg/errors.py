"""Shared exception types."""


class MindegError(Exception):
    """Base class for library errors."""


class LimitExceededError(MindegError):
    """An order/size limit was exceeded."""


class NotFittingFree(MindegError):
    """The input group has a nontrivial abelian normal subgroup."""


class HintRequired(MindegError):
    """A recognition hint is needed to decide this case."""


class UnsupportedCase(MindegError):
    """The case is recognized but outside the supported scope."""


class DegreeCheckFailed(MindegError):
    """A computed mu fails a necessary condition, so it is not reported."""
