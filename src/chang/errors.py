"""The library's errors, one hierarchy.

Each class states its `chang` exit code and the label that prefixes its
message on stderr; the CLI reads both from the class and knows nothing
else.  Anything else that escapes a command is a bug in the library and
surfaces as a traceback.

    ChangError
        InputError (also a ValueError)
            ParseError, SemanticError, WindowError
        OutsideTables
            UnclassifiedPair, UntabulatedHom (also a LookupError),
            UnknownComposition
        VerificationFailure
"""

from __future__ import annotations

__all__ = ["ChangError", "InputError", "ParseError", "SemanticError",
           "WindowError", "OutsideTables", "UnclassifiedPair",
           "UntabulatedHom", "UnknownComposition", "VerificationFailure"]


class ChangError(Exception):
    """A refusal the library states on purpose; by default a usage error."""

    exit_code = 2
    label = "error"


class InputError(ChangError, ValueError):
    """A value passed in from outside is malformed or out of range."""


class ParseError(InputError):
    def __init__(self, message: str, offset: int, expected=()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class SemanticError(InputError):
    """Structurally valid expression with out-of-range parameters."""


class WindowError(InputError):
    """No single duality window is consistent with every summand."""


class OutsideTables(ChangError):
    """A well-formed query that the classification does not cover."""

    exit_code = 3
    label = "outside the classified tables"


class UnclassifiedPair(OutsideTables):
    """The pair is outside the classified table; no guess is made."""


class UntabulatedHom(OutsideTables, LookupError):
    """The requested hom group is outside the shipped tables."""


class UnknownComposition(OutsideTables):
    """Neither the relation table nor the letters decide this pair."""


class VerificationFailure(ChangError):
    """A decomposition failed one of its independent cross-checks."""

    exit_code = 1
    label = "verification failure"
