"""Exception types shared across the workbench."""


class FactorbenchError(Exception):
    """Base class for all workbench errors."""


class NotAssociative(FactorbenchError):
    def __init__(self, x, y, z):
        self.triple = (x, y, z)
        super().__init__(f"table is not associative at ({x}, {y}, {z})")


class NoIdentity(FactorbenchError):
    pass


class IndexOutOfRange(FactorbenchError):
    pass


class SizeLimit(FactorbenchError):
    pass


class AlphabetMismatch(FactorbenchError):
    pass


class ExplosionGuard(FactorbenchError):
    """Raised when an enumeration exceeds its configured word cap."""


class CapExceeded(FactorbenchError):
    """Defensive bound on layer-set iteration; never expected on valid input."""


class DichotomyViolation(FactorbenchError):
    """Minimal lengths failed to fill an initial interval; signals a bug."""


class CrossCheckMismatch(FactorbenchError):
    """Two independent decision routes disagreed; signals a bug."""


class BoundViolation(FactorbenchError):
    """A proven bound failed on computed data; signals a bug."""


class ParseError(FactorbenchError):
    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class UnknownGenerator(FactorbenchError):
    pass


class EmptyRelationSide(FactorbenchError):
    pass
