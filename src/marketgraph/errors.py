"""Exception types shared across the toolkit, and the integer-field check of the
configuration dataclasses."""


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


def check_int_fields(obj, *names: str) -> None:
    """ConfigError unless each named field of `obj` is an int (a bool is not)."""
    for name in names:
        if type(getattr(obj, name)) is not int:
            raise ConfigError(f"{name} must be an integer, got {getattr(obj, name)!r}")
