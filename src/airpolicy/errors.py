"""Exception types shared across the package.

Everything derives from ValueError so callers that do not care about the
distinction can catch one base class.
"""


class AirPolicyError(ValueError):
    """Base class for all package-specific errors."""


class AmbiguousInputError(AirPolicyError):
    """Duplicate dates or otherwise ambiguous input rows."""


class EmptyDatasetError(AirPolicyError):
    """A build produced zero usable rows where some were required."""


class EmptyInputError(AirPolicyError):
    """An input file contained no data rows."""


class SchemaError(AirPolicyError):
    """An input file is missing required columns."""

    def __init__(self, missing, path=None):
        self.missing = sorted(missing)
        self.path = path
        where = f" in {path}" if path else ""
        super().__init__(f"missing columns{where}: {', '.join(self.missing)}")


class MalformedInputError(AirPolicyError):
    """An input file holds bytes, a row, a cell or a key that cannot be read."""

    def __init__(self, path, line, detail):
        where = path if line is None else f"{path}, line {line}"
        super().__init__(f"{where}: {detail}")


class NoValidPixelsError(AirPolicyError):
    """Every pixel of a density grid carries the nodata sentinel."""


class DegenerateColumnError(AirPolicyError):
    """A column cannot be scaled because it is constant."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"degenerate (constant) column: {column}")


class UndefinedCorrelationError(AirPolicyError):
    """Pearson correlation is undefined (zero variance in an input series)."""


class ShapeError(AirPolicyError):
    """Mismatched or invalid array shapes."""


class InsufficientDataError(AirPolicyError):
    """Not enough rows for the requested operation."""


class DomainError(AirPolicyError):
    """Scalar argument outside its documented domain."""


class ConfigError(AirPolicyError):
    """Pipeline configuration failed validation."""
