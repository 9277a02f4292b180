"""Exception types shared across the toolkit, the field type and bound check
of the configuration dataclasses, and the depth rules of dilated convolution
stacks."""
import sys
from collections.abc import Iterator
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

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"non-finite loss at epoch {epoch}")


# What a field annotated with each of these names accepts, and how to say so.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "None": ((type(None),), "null"),
}

# Field metadata that `check_fields` reads, as (text, test): a value the test
# refuses "must be <text>". NaN passes no comparison, so every bound refuses it.
# A finite bound ends at the largest float, so an int too large for one fails it.
POSITIVE = {"bound": ("positive", lambda v: v > 0)}
NONNEGATIVE = {"bound": ("nonnegative", lambda v: v >= 0)}
AT_LEAST_2 = {"bound": ("at least 2", lambda v: v >= 2)}
POSITIVE_FINITE = {"bound": ("positive and finite", lambda v: 0 < v <= sys.float_info.max)}
NONNEGATIVE_FINITE = {"bound": ("nonnegative and finite", lambda v: 0 <= v <= sys.float_info.max)}
UNIT_INTERVAL = {"bound": ("in [0, 1]", lambda v: 0 <= v <= 1)}
PROBABILITY = {"bound": ("in [0, 1)", lambda v: 0 <= v < 1)}


def dilations(depth: int) -> Iterator[int]:
    """The dilation of each of `depth` stacked causal convolutions, lazily: 1, 2, 4, ..."""
    return (2 ** i for i in range(depth))


def receptive_field(kernel_size: int, depth: int) -> int:
    """Input steps that one output step of `dilations(depth)` convolutions of
    width `kernel_size` reads: 1 + (K - 1) * (1 + 2 + ... + 2**(depth-1))."""
    return 1 + (kernel_size - 1) * (2 ** depth - 1)


def check_depth(window: int, depth: int, kernel_size: int, unit: str) -> None:
    """ConfigError unless `window` steps cover the receptive field of `depth`
    dilated `unit` (layers, blocks) of width `kernel_size`.

    The receptive field is at least 2**depth, so a depth of at least the
    window's bit length is refused before the field is computed.
    """
    if depth >= window.bit_length() or window < receptive_field(kernel_size, depth):
        raise ConfigError(f"input window {window} is shorter than the receptive field "
                          f"of {depth} {unit}; widen the window or drop {unit}")


def check_fields(cls, values, prefix: str = "", bounds: bool = True) -> None:
    """ConfigError unless every entry of `values` (a mapping) that names a field
    of the dataclass `cls` holds that field's declared type and, if `bounds`,
    lies within the bound its metadata declares (`POSITIVE`, ...).

    The type is read from the annotation: `int`, `float`, `bool`, `str` and
    unions of them with `None`. A bool counts only for a `bool` field, and
    a `float` field also takes an int. Fields of other types are not checked.
    The message names the field as `prefix` followed by its name.
    """
    for f in fields(cls):
        if f.name not in values:
            continue
        value, name = values[f.name], prefix + f.name
        text = getattr(f.type, "__name__", str(f.type))
        parts = [part.strip() for part in text.split("|")]
        if all(part in _FIELD_TYPES for part in parts):
            allowed = tuple(t for part in parts for t in _FIELD_TYPES[part][0])
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                wanted = " or ".join(_FIELD_TYPES[part][1] for part in parts)
                raise ConfigError(f"{name} must be {wanted}, got {value!r}")
        if bounds and "bound" in f.metadata:
            wanted, holds = f.metadata["bound"]
            if not holds(value):
                raise ConfigError(f"{name} must be {wanted}, got {value}")


class Checked:
    """Base of the config dataclasses: constructing one runs `check_fields`
    on every field. A subclass with checks that span fields or are not
    bounds runs them after `super().__post_init__()`. One that sets
    `check_bounds = False` is checked for types only; whoever uses it then
    checks the bounds it needs."""

    check_bounds = True

    def __post_init__(self):
        check_fields(type(self), vars(self), bounds=self.check_bounds)
