"""Exception hierarchy shared across the package, and the one numeric argument check.

Each class's ``exit_code`` is the CLI's exit code for it, set here and
nowhere else: schema problems (malformed or unrecognized file content)
exit 1, domain/invariant violations exit 2, usage errors exit 3.
``cli.main`` exits 1 for an OSError as well.

Python API inputs (`number`): a real parameter takes Python or numpy
integers and floats; an integer parameter takes integers only, read as an
int through ``operator.index``. ``bool``, ``str``, ``None`` and containers
are refused everywhere. A refused value, or one past the parameter's bound,
is a `DomainError` or `UsageError` naming the parameter. The elements of
hand-built ``Columns``, ``SyntheticScene.receivers`` and
``simulate_guided_multi``'s cells are trusted.
"""

import operator
import sys

import numpy as np


class RbcScanError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(RbcScanError, ValueError):
    """A file is structurally invalid: bad syntax, wrong type, unknown field."""

    exit_code = 1


class DomainError(RbcScanError, ValueError):
    """A value lies outside the domain an operation or type accepts."""

    exit_code = 2


class InvariantError(DomainError):
    """A parsed file is well-formed but violates a documented invariant."""


class UsageError(RbcScanError, ValueError):
    """The caller invoked an operation in an unsupported way."""

    exit_code = 3


_FLOAT_MAX = sys.float_info.max
#: The bounds a numeric parameter may carry, each with its test. "finite"
#: excludes NaN, the infinities and integers too large for a float.
_BOUNDS = {
    "": lambda v: True,
    "finite": lambda v: -_FLOAT_MAX <= v <= _FLOAT_MAX,
    "finite and >= 0": lambda v: 0 <= v <= _FLOAT_MAX,
    "finite and > 0": lambda v: 0 < v <= _FLOAT_MAX,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    "within [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def number(value, name: str, error: type[RbcScanError], bound: str = "", integral: bool = False):
    """``value`` once it is a number within ``bound``, a key of `_BOUNDS`;
    ``error`` naming ``name`` otherwise. With ``integral`` it must be an
    integer and comes back as an int. A tuple is checked element by element
    and named whole.
    """
    values = value if type(value) is tuple else (value,)
    kinds, kind = (_INTEGERS, "an integer") if integral else (_REALS, "a number")
    if not all(isinstance(v, kinds) and not isinstance(v, bool) for v in values):
        raise error(f"{name} must be {kind}, got {value!r}")
    if integral:
        values = tuple(map(operator.index, values))
    if not all(map(_BOUNDS[bound], values)):
        raise error(f"{name} must be {bound}, got {value!r}")
    return values if type(value) is tuple else values[0]
