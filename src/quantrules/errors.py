"""Shared exception types, and the value checks of the documents the package
reads: the config, rules files and reports."""

INT64_MAX = 2**63 - 1


class QuantrulesError(Exception):
    """Base class for errors raised by this package."""


class ParseError(QuantrulesError):
    """Malformed input document; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TypeMismatchError(QuantrulesError):
    """A value or column has the wrong kind for the requested operation."""


class ResolutionError(QuantrulesError):
    """A name (statistic, column) could not be resolved."""


class EmptyStatisticError(QuantrulesError):
    """A rule produced no statistic values (all rows missing or filtered)."""


class DivergenceError(QuantrulesError):
    """Adaptation hit a non-finite loss or gradient; .trace holds rows up to failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


def is_int(value):
    """Whether a parsed JSON or YAML value is an integer; a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value):
    return is_int(value) or isinstance(value, float)


def check_fields(obj, where, keys):
    """``obj``, if it is an object with exactly ``keys``; else ParseError
    naming ``where`` and the key."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object, got {obj!r}")
    for key in obj:
        if key not in keys:
            raise ParseError(f"{where}: unknown key {key!r}")
    for key in keys:
        if key not in obj:
            raise ParseError(f"{where}: missing key {key!r}")
    return obj


def check_count(obj, key, where):
    """``obj[key]``, if it is an integer in [0, INT64_MAX]; else ParseError
    naming ``where`` and ``key``."""
    value = obj[key]
    if type(value) is not int or value < 0:
        raise ParseError(f"{where}: {key} must be a non-negative integer, got {value!r}")
    if value > INT64_MAX:
        raise ParseError(f"{where}: {key} {value} exceeds the int64 maximum {INT64_MAX}")
    return value
