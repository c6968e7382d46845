"""Exception types shared across the package.

Everything derives from ValueError so callers that do not care about the
distinction can catch one base class. A class exists only if some caller
catches it by name or it builds its own message.
"""


class AirPolicyError(ValueError):
    """Base class for all package-specific errors."""


class MalformedInputError(AirPolicyError):
    """An input file is empty, lacks columns, or holds bytes, a row or a
    cell that cannot be read."""

    def __init__(self, path, line, detail):
        where = path if line is None else f"{path}, line {line}"
        super().__init__(f"{where}: {detail}")


class UndefinedCorrelationError(AirPolicyError):
    """Pearson correlation is undefined (zero variance in an input series)."""


class ShapeError(AirPolicyError):
    """Mismatched or invalid array shapes."""


class InsufficientDataError(AirPolicyError):
    """Not enough rows, periods or pixels for the requested operation."""


class DomainError(AirPolicyError):
    """A value outside its documented domain, such as a constant column
    that cannot be scaled."""


class ConfigError(AirPolicyError):
    """Pipeline configuration failed validation."""
