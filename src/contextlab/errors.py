"""Semantic exception hierarchy shared across the package."""


class ContextLabError(Exception):
    """Base class for all errors raised by this package."""


class ModelValidationError(ContextLabError, ValueError):
    """A model table violates its contract (negative/ill-normalized probabilities,
    outcome entries outside {-1, 0, +1}, shape mismatches)."""


class UnknownSettingError(ContextLabError, KeyError):
    """A requested measurement setting is not declared by the model."""

    __str__ = Exception.__str__  # the message as written, not quoted like a key


class UndefinedConditionalError(ContextLabError, ArithmeticError):
    """A conditional expectation was requested but the conditioning event has
    probability zero (no joint detections)."""


class IncompleteDesignError(ContextLabError, ValueError):
    """An analysis needs setting pairs (or defined expectations) that the
    stream does not provide."""


class InsufficientDataError(ContextLabError, ValueError):
    """A statistical test's sample-size or coverage precondition is not met."""


class EmptyUrnError(ContextLabError, ValueError):
    """A draw was requested from an urn with no coins left."""


class StreamFormatError(ContextLabError, ValueError):
    """A stream file or record sequence does not match the declared format."""


class ConfigError(ContextLabError, ValueError):
    """A run configuration is malformed or internally inconsistent."""
