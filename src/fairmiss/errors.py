"""Exception types shared across the package."""


class FairmissError(Exception):
    """Base class for all errors raised by this package."""


class CsvParseError(FairmissError):
    """Malformed CSV content (wrong column count, unparseable cell)."""


class SchemaError(FairmissError):
    """Column roles or column values violate the declared schema."""


class ValidationError(FairmissError):
    """Inputs violate an operation's preconditions."""


class NotFittedError(FairmissError):
    """A transform was requested before the estimator was fitted."""


class ConfigError(FairmissError):
    """Experiment configuration is missing, malformed, or inconsistent."""
