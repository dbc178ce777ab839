"""Shared exception types.

A ValueError, each subclass here included, is bad input everywhere: the
CLI exits 2 on it, and bench.run_suite records it as a failed instance
and goes on. A ResourceLimitError exits 3. An AssertionError, such as an
InternalInvariantError, is a bug and exits 4.
"""


class InvalidInstanceError(ValueError):
    """A graph or instance configuration violates a structural precondition."""


class ParseError(ValueError):
    """Malformed input text; the message begins `line N:` when the offending line is known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionError(ValueError):
    """An assignment does not cover the variables it is applied to."""


class ResourceLimitError(RuntimeError):
    """The requested computation exceeds an enumeration guard."""


class InternalInvariantError(AssertionError):
    """An internal consistency check failed; indicates a bug, not bad input."""
