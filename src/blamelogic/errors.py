"""Exception types shared across the library."""


class BlamelogicError(Exception):
    """Base class for every error this library raises on bad input."""


class ParseError(BlamelogicError):
    """Malformed formula or proof text.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted at that point.
    """

    def __init__(self, message, offset=None, expected=()):
        super().__init__(message)
        self.offset = offset
        self.expected = frozenset(expected)


class FormulaDepthError(BlamelogicError, ValueError):
    """A formula node built in code would be deeper than syntax.MAX_NODE_DEPTH."""


class FormatError(BlamelogicError):
    """Game document is structurally malformed (wrong types, missing fields)."""


class ValidationError(BlamelogicError):
    """Game document parsed but violates a model invariant."""

    def __init__(self, violations):
        super().__init__("invalid game: " + "; ".join(violations))
        self.violations = tuple(violations)


class UnknownAgentError(BlamelogicError):
    pass


class UnknownStateError(BlamelogicError):
    pass


class PlayNotInGameError(BlamelogicError):
    pass


class AtomBudgetExceededError(BlamelogicError):
    """Tautology check would need a truth table over too many atoms."""


class PhiNotPremiseError(BlamelogicError):
    """Formula to discharge is not among the script's premises."""


class InvalidScriptError(BlamelogicError):
    """Proof script fails checking and cannot be transformed."""
