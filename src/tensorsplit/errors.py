"""Exception hierarchy shared across the package.

Every error carries a distinct process exit code so the CLI can map
failures to stable, scriptable statuses.
"""

import math
from contextlib import contextmanager, suppress


class TensorsplitError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigInvalid(TensorsplitError):
    exit_code = 2


class OracleUnavailable(TensorsplitError):
    """An infinite sum was requested from a model that cannot certify it."""

    exit_code = 4


class NormDegenerate(TensorsplitError):
    """The redundant-splitting seminorm is not a norm for these weights.

    The witness is the constant function 1, whose seminorm collapses to
    zero when the inverse weights are not summable.
    """

    exit_code = 5

    def __init__(self, message="inverse weights not summable", unit_seminorm=0.0):
        super().__init__(message)
        self.unit_seminorm = unit_seminorm


class NotCompact(TensorsplitError):
    """The threshold index set cannot be certified finite."""

    exit_code = 6


class EnumerationCap(TensorsplitError):
    exit_code = 7


class OrderOutOfRange(TensorsplitError):
    exit_code = 8


class NormInfinite(TensorsplitError):
    """A decomposition component falls outside the weighted space."""

    exit_code = 9


class DegenerateDenominator(TensorsplitError):
    exit_code = 10


class GammaL1Violated(TensorsplitError):
    exit_code = 11


class QTildeOutOfRange(TensorsplitError):
    exit_code = 12


class TailUnavailable(TensorsplitError):
    exit_code = 13


class KernelAsymmetric(TensorsplitError):
    exit_code = 14


class SolveFailed(TensorsplitError):
    exit_code = 15


class NoCertificate(TensorsplitError):
    """Equivalence conditions could not be certified (not a disproof)."""

    exit_code = 16


def check_keys(obj: dict, where: str, required: set, optional: set = frozenset()):
    """Reject keys outside ``required | optional`` and missing required keys."""
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigInvalid(f"unknown keys {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ConfigInvalid(f"missing keys {sorted(missing)} in {where}")


def config_number(value, kind, name: str):
    """A JSON number as ``kind`` (float or int); anything else is ``ConfigInvalid``.

    A bool or a string is not a number. An int must be integral (2 or 2.0,
    not 2.7), and a float must be finite: Python's ``json`` reads the bare
    tokens ``NaN`` and ``Infinity``, which are not numbers here.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float:
            try:
                x = float(value)
            except OverflowError:  # an int beyond the float range
                x = math.inf
            if math.isfinite(x):
                return x
        elif isinstance(value, int) or (math.isfinite(value) and value.is_integer()):
            return int(value)
    raise ConfigInvalid(f"{name} must be {'an integer' if kind is int else 'a number'}, "
                        f"got {value!r}")


def config_coordinate(key, name: str) -> int:
    """A coordinate key of a JSON object, in canonical decimal form.

    ``"12"`` is 12; ``"012"``, ``"+1"``, ``" 2"`` and ``"1_0"``, which
    ``int`` would also read, are ``ConfigInvalid``.
    """
    if isinstance(key, str):
        with suppress(ValueError):  # not an integer, or too many digits
            k = int(key)
            if str(k) == key:
                return k
    raise ConfigInvalid(f"{name} must be a decimal integer key, got {key!r}")


def config_numbers(value, kind, name: str) -> list:
    """A JSON list of numbers, each converted by ``config_number``."""
    if not isinstance(value, list):
        raise ConfigInvalid(f"{name} must be a list of numbers, got {value!r}")
    return [config_number(v, kind, name) for v in value]


def config_bool(value, name: str) -> bool:
    """A JSON bool; anything else (``"no"``, 0, 1) is ``ConfigInvalid``."""
    if isinstance(value, bool):
        return value
    raise ConfigInvalid(f"{name} must be true or false, got {value!r}")


@contextmanager
def config_errors(where: str):
    """Re-raise a conversion error inside the block as ``ConfigInvalid``.

    Wraps the parsing of one spec, so a malformed value (``float("x")``,
    ``int(1e400)``, a missing key, a list where an object belongs) exits 2
    instead of 1.
    """
    try:
        yield
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
        raise ConfigInvalid(f"bad {where}: {exc}") from exc
