"""Exception types shared across the package, and the config key, integer
and float checks."""

from numbers import Integral, Real


class ContradistError(Exception):
    """Base class for all package errors."""


class ValidationError(ContradistError):
    """Invalid argument, configuration, or dataset."""


class ShapeError(ContradistError):
    """Array shape inconsistent with the model or the batch."""


class NumericError(ContradistError):
    """A computation degenerated (zero denominator, non-finite value)."""


class CsvParseError(ContradistError):
    """Malformed dataset CSV; the message names the offending data row."""


class CheckpointError(ContradistError):
    """Unreadable or corrupt checkpoint file."""


def check_keys(obj, known, where: str) -> None:
    """Fail unless obj is a dict whose keys all lie in known; names the key."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValidationError(
            f"unknown {where} key {unknown[0]!r}; known keys: {', '.join(known)}"
        )


def as_int(value) -> int:
    """An int from an integer or a decimal-integer string.

    Booleans, floats (even integral ones) and other types raise ValueError
    instead of being truncated.
    """
    if isinstance(value, str):
        return int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_float(value) -> float:
    """A float from a real number or a decimal string.

    Booleans and other types raise ValueError instead of turning into 1.0
    or 0.0.
    """
    if isinstance(value, str):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)
