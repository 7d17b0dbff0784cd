"""The toolkit's error types: one ValueError hierarchy keyed by a stable code."""

from __future__ import annotations

__all__ = [
    "DimMismatchError",
    "NotInAError",
    "NotRealError",
    "ParseError",
    "QutritExactError",
    "RingError",
    "UnexpandableError",
    "UnknownMacroError",
]


class QutritExactError(ValueError):
    """Base class; the message is ``CODE`` or ``CODE: message``."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(self.code if not message else f"{self.code}: {message}")


class DimMismatchError(QutritExactError):
    """Raised when two objects that must share a dimension do not."""

    code = "DIM_MISMATCH"


class UnexpandableError(QutritExactError):
    """Raised when a gate has no expansion over the base gate set."""

    code = "UNEXPANDABLE"


class UnknownMacroError(QutritExactError):
    """Raised when a controlled gate names no registered macro."""

    code = "UNKNOWN_MACRO"


class RingError(QutritExactError):
    """Base class for ring-membership and conversion failures."""

    code = "RING_ERROR"


class NotRealError(RingError):
    """Raised when a real-ring operation receives a value with nonzero imaginary part."""

    code = "NOT_REAL"


class NotInAError(RingError):
    """Raised when a real value lies outside the alpha-local ring."""

    code = "NOT_IN_A"


class ParseError(QutritExactError):
    """Text syntax error; the message is ``line L, col C: message`` (1-based)."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        ValueError.__init__(self, f"line {line}, col {col}: {message}")
