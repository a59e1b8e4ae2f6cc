"""Exception types shared across the package, and the type and range checks
that the config dataclasses raise ConfigError from."""

import math
from numbers import Integral, Real

import numpy as np


class AngleAttnError(Exception):
    """Base class for all library errors."""


class DimensionError(AngleAttnError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(AngleAttnError, ValueError):
    """A configuration value is out of range or inconsistent."""


class ContractError(AngleAttnError, ValueError):
    """A documented precondition of an operation was violated."""


class NumericError(AngleAttnError, ValueError):
    """Non-finite values where finite ones are required."""


class FormatError(AngleAttnError, ValueError):
    """A file on disk does not match the expected binary layout."""


class SplitError(AngleAttnError, ValueError):
    """A labeled dataset cannot be partitioned as requested."""


class LabelError(AngleAttnError, ValueError):
    """A class id is outside the configured range."""


class EvalError(AngleAttnError, ValueError):
    """Evaluation was requested on an empty or malformed sample set."""


def check_int(name, value, low):
    """Raise ConfigError unless ``value`` is an integer >= ``low``; a bool is not one."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= low):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def check_indexable(fields, what, shape):
    """Raise ConfigError naming ``fields`` (the config values that set ``shape``)
    unless a float64 or int64 array of ``shape`` has no more bytes than numpy
    can index; numpy refuses a larger one with a ValueError before it touches
    memory."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise ConfigError(f"{fields}: {what} would have more bytes than numpy can index")


def check_real(name, value, ok, want):
    """Raise ConfigError unless ``value`` is a real number, not a bool, that ``ok``
    accepts; ``want`` says in words what ``ok`` accepts. NaN fails every comparison."""
    if isinstance(value, bool) or not (isinstance(value, Real) and ok(value)):
        raise ConfigError(f"{name} must be {want}, got {value!r}")
