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


class AlphabetMismatch(FactorbenchError):
    pass


class CapExceeded(FactorbenchError):
    """A size or work cap refused the input: an order, a candidate count, the
    cell values of the corpus search, a size flag, the enumeration word cap
    or the layer iteration bound."""


class CrossCheckMismatch(FactorbenchError):
    """Computed data contradicts a second route or a proven fact; signals a bug."""


class ParseError(FactorbenchError):
    def __init__(self, message, location=None):
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class EmptyRelationSide(FactorbenchError):
    pass
