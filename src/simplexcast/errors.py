"""Exception types shared across the package."""


class SimplexCastError(Exception):
    """Base class for all package-specific errors."""


class InvalidValue(SimplexCastError, ValueError):
    """An argument, config value or input outside what the package accepts.
    Also a ValueError, so a caller that catches ValueError still catches it;
    the CLI maps it to exit 1, and any other ValueError to exit 2."""


class ParseError(SimplexCastError):
    """Bad input file; the message starts with "line N:" when the line is known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
