"""Exception types shared across the package."""


class PatchGridError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRecord(PatchGridError):
    """A text record failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyStructure(PatchGridError):
    """A structure file contained no ATOM records."""


class OutOfExtent(PatchGridError):
    """A point quantized outside the addressable cell range."""


class NoValidFrame(PatchGridError):
    """No residue of the structure yields a valid reference frame."""


class DuplicatePatchId(PatchGridError):
    """A patch id is already registered in the database."""


class CorruptDatabase(PatchGridError):
    """A database's manifest disagrees with itself or with its run files."""


class ParamsMismatch(PatchGridError):
    """Two grids were combined with differing grid parameters."""


class UnknownRefId(PatchGridError):
    """A score-table entry references a structure key missing from patch metadata."""


class CapExceeded(PatchGridError):
    """A baseline-algorithm instance exceeds its configured size cap."""


class UndefinedTP(PatchGridError):
    """TP rate is undefined because the chance ratio R equals I."""
