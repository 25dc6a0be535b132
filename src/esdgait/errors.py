"""Exception hierarchy shared across the toolkit.

ValidationError and its subclasses mean the caller handed us something
malformed (CLI exit code 1); everything else under ToolkitError is a
runtime failure (exit code 2).
"""


class ToolkitError(Exception):
    pass


class ValidationError(ToolkitError, ValueError):
    pass


class DomainError(ValidationError):
    """A mathematical precondition is violated (non-positive capacitance, negative frequency)."""


class SingularityError(ToolkitError):
    """Radial distance to the electrode is zero."""


class DegenerateSignalError(ValidationError):
    """Zero-variance signal; the record must be rejected, not silently zeroed."""


class ConfigurationError(ValidationError):
    """Inconsistent configuration values."""


class EncodingError(ValidationError):
    """A categorical value has no entry in the supplied code map."""


class StreamError(ToolkitError):
    """Stream chunks arrived out of order or overlapping."""
