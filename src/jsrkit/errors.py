"""Exception hierarchy shared across the package, and the checks that turn
a malformed JSON document into an ``InputError``."""

import numbers


class JsrkitError(Exception):
    """Base class for all package errors."""


class InputError(JsrkitError):
    """Malformed or inconsistent user input (CLI exit code 2)."""


class ResourceCapError(JsrkitError):
    """An enumeration or iteration budget was exceeded (CLI exit code 3)."""


class NumericalError(JsrkitError):
    """A numerical routine failed or produced an ambiguous answer (CLI exit code 4).

    Carries the offending operand when available so the caller can inspect it.
    """

    def __init__(self, message, operand=None):
        super().__init__(message)
        self.operand = operand


class InconsistencyError(NumericalError):
    """A construction that is guaranteed nonempty at exact values came out
    empty, signalling that the supplied growth rate or tolerance is off."""


def require_fields(doc, what: str, *keys) -> list:
    """The values of ``keys`` in the JSON object ``doc``, else ``InputError``."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object")
    missing = [repr(k) for k in keys if k not in doc]
    if missing:
        raise InputError(f"{what} needs {' and '.join(missing)}")
    return [doc[k] for k in keys]


def require_int(value, name: str) -> int:
    """``value`` as an int, else ``InputError`` (a bool is no integer)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, not {value!r}")
    return int(value)
