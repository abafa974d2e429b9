"""Error types shared across the library."""


class GKZError(Exception):
    """Base class for library errors."""


class DimensionMismatchError(GKZError):
    """Vectors or matrices with incompatible dimensions."""


class DomainError(GKZError):
    """Input outside the documented domain of an operation."""


class NonPointedError(GKZError):
    """A membership query whose reduced cone is not pointed."""


class ComputationLimitError(GKZError):
    """An explicit computation budget was exceeded; never a silent wrong answer.

    ``stage`` names the step that hit its budget, ``used`` says how much it
    used and ``limit`` is the budget; each is None when not known.
    """

    def __init__(self, message: str, stage: str | None = None,
                 used: int | None = None, limit: int | None = None):
        self.stage, self.used, self.limit = stage, used, limit
        if stage is not None:
            message = f"{message} (stage {stage}, used {used}, limit {limit})"
        super().__init__(message)


def check_budget(what: str, stage: str, used: int, limit: int) -> None:
    """The one budget rule: raise once `used` exceeds `limit`."""
    if used > limit:
        raise ComputationLimitError(f"{what} exceeded budget", stage=stage, used=used, limit=limit)
