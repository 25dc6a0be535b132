"""Exception hierarchy shared across the toolkit.

ValidationError and its subclasses mean the caller handed us something
malformed (CLI exit code 1); everything else under ToolkitError is a
runtime failure (exit code 2). A message prints an input value by `shown`.
"""

import itertools
import reprlib


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


class StreamError(ToolkitError):
    """Stream chunks arrived out of order or overlapping."""


class _Shown(reprlib.Repr):
    """repr() as an error message prints a value: exactly repr() for a value
    of ordinary size, else cut down to _SHOWN's limits."""

    def repr1(self, x, level):  # a dict in its own order, as repr() gives it; reprlib sorts
        if type(x) is not dict or not x or level <= 0:
            return super().repr1(x, level)
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
                  for k, v in itertools.islice(x.items(), self.maxdict)]
        return "{" + ", ".join(pieces + [self.fillvalue] * (len(x) > self.maxdict)) + "}"


# at most 100 characters of a string or number (its two ends around "..."),
# the first 12 items of a list, tuple or dict, and the outer 6 levels of a nest
_SHOWN = _Shown()
_SHOWN.maxstring = _SHOWN.maxlong = _SHOWN.maxother = 100
_SHOWN.maxlist = _SHOWN.maxtuple = _SHOWN.maxdict = 12
_SHOWN_LIMIT = 600  # characters of any one shown value, whatever its nesting


def shown(value) -> str:
    """`value` as an error message prints it: bounded by _SHOWN, then `cut`
    to _SHOWN_LIMIT characters, so a huge input makes no huge line."""
    return cut(_SHOWN.repr(value), _SHOWN_LIMIT)


def cut(text: str, limit: int = _SHOWN.maxstring) -> str:
    """`text` as it is, or its two ends around "..." if over `limit`
    characters: how a message prints input text as it stands, such as a
    key in a key path."""
    half = limit // 2 - 2
    return text if len(text) <= limit else text[:half] + "..." + text[-half:]
