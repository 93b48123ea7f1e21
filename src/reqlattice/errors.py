"""Exception types shared across the package."""


class ReqlatticeError(Exception):
    """Base class for all reqlattice errors."""


class UnknownIdError(ReqlatticeError):
    """An operation referenced an id that does not exist in the catalog."""


class EmptyCatalogError(ReqlatticeError):
    """An operation needs at least one jurisdiction/product but the catalog has none."""


class CatalogInvalidError(ReqlatticeError):
    """An operation requires a catalog that validates with zero errors.

    `report` is the failing ValidationReport: its errors, and no reference
    to the refused catalog.
    """

    def __init__(self, message: str, report) -> None:
        super().__init__(message)
        self.report = report


class ParseError(ReqlatticeError):
    """A catalog document is not well-formed JSON."""


class SchemaError(ReqlatticeError):
    """A catalog document parses as JSON but does not match the strict schema."""


class FocusRequiredError(ReqlatticeError):
    """A graph view needs a focus entity but none was given."""


class FocusForbiddenError(ReqlatticeError):
    """A graph view takes no focus entity but one was given."""
