"""Exception types shared across the package."""


class SumChoiceError(Exception):
    """Base class for all package errors."""


class GraphFormatError(SumChoiceError):
    """Malformed graph6 text (bad header, truncated body, junk bytes)."""


class CapacityError(SumChoiceError):
    """Input exceeds a hard structural limit (order > 32, canonical order > 10, ...)."""


class FamilySpecError(SumChoiceError):
    """Invalid family descriptor (bad parameters or unparseable text form)."""


class SearchBudgetExceeded(SumChoiceError):
    """A search ran out of wall-clock time or nodes.

    The message says where, so the caller can build an honest "unknown"
    outcome instead of guessing.
    """
