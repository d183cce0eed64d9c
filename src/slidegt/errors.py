"""Error types shared across the package, and the config field type check.

Everything derives from ValueError/RuntimeError so callers that do not care
about the distinction can catch the built-in bases.
"""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """A documented precondition was violated (bad labels, non-scalar loss, ...)."""


class ConfigError(ValueError):
    """A configuration value is out of range or inconsistent."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf showed up where only finite values are allowed."""


class ParseError(ValueError):
    """A binary file failed validation; message names the byte offset."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CheckpointError(ValueError):
    """A checkpoint is structurally valid but does not match the model."""


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss or gradient and was aborted."""


def check_types(config, kind, names, owner):
    """Reject fields not exactly of type kind (a JSON 4.0 or 0 included)."""
    what = {int: "an integer", bool: "a bool"}[kind]
    for name in names:
        value = getattr(config, name)
        if type(value) is not kind:
            raise ConfigError(f"{owner} field {name!r} must be {what}, got {value!r}")
