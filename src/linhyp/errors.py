"""Exception types shared across the package."""


class LinhypError(Exception):
    """Base class for all package errors."""


class ValidationError(LinhypError, ValueError):
    """Inputs violate a documented precondition (bad n, r, p, config...)."""


class CapExceededError(LinhypError):
    """An enumeration or size cap was hit before the work finished.

    `context` holds the `cap` that was passed, which every raise must give,
    and whatever else the caller had: the count the cap bounds, in the
    cap's unit (`hypergraph.check_count`), or the partial progress of a
    walk (e.g. the expansion order reached), so the CLI can report it.
    """

    def __init__(self, message: str, *, cap: int, **context):
        super().__init__(message)
        self.context = {"cap": cap, **context}
