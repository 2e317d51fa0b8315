"""Exception types shared across the package."""


class LinhypError(Exception):
    """Base class for all package errors."""


class ValidationError(LinhypError, ValueError):
    """Inputs violate a documented precondition (bad n, r, p, config...)."""


class CapExceededError(LinhypError):
    """An enumeration or state-space cap was hit before the work finished.

    `context` carries whatever partial-progress information the caller had
    (e.g. the expansion order reached), so the CLI can report it.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = dict(context)

