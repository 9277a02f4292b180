"""Exception types shared across the toolkit, and the field-type check of the
configuration dataclasses."""
from dataclasses import fields


class MarketGraphError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(MarketGraphError):
    """Operands have incompatible or invalid shapes."""


class TapeError(MarketGraphError):
    """Misuse of a gradient tape (re-entry, unrecorded loss, non-scalar loss)."""


class DomainError(MarketGraphError):
    """A value is outside an operation's mathematical domain."""


class DataError(MarketGraphError):
    """Malformed or unusable input data."""


class ConfigError(MarketGraphError):
    """Invalid configuration value or unknown configuration key."""


class TrainingDiverged(MarketGraphError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


# What a field annotated with each of these names accepts, and how to say so.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "None": ((type(None),), "null"),
}


def check_field_types(cls, values, where: str = "") -> None:
    """ConfigError unless every entry of `values` (a mapping) that names a field
    of the dataclass `cls` holds that field's declared type.

    The type is read from the annotation: `int`, `float`, `bool`, `str` and
    unions of them with `None`. A bool counts only for a `bool` field, and
    a `float` field also takes an int. Fields of other types are not checked.
    `where` prefixes the field name in the message.
    """
    for f in fields(cls):
        text = getattr(f.type, "__name__", str(f.type))
        parts = [part.strip() for part in text.split("|")]
        if f.name not in values or not all(part in _FIELD_TYPES for part in parts):
            continue
        value = values[f.name]
        allowed = tuple(t for part in parts for t in _FIELD_TYPES[part][0])
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            name = f"{where}.{f.name}" if where else f.name
            wanted = " or ".join(_FIELD_TYPES[part][1] for part in parts)
            raise ConfigError(f"{name} must be {wanted}, got {value!r}")
