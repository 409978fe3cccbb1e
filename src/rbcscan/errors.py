"""Exception hierarchy shared across the package, the one numeric argument
check, and the decorator every checked record shares.

Each class's ``exit_code`` is the CLI's exit code for it, set here and
nowhere else: schema problems (malformed or unrecognized file content)
exit 1, domain/invariant violations exit 2, usage errors exit 3.
``cli.main`` exits 1 for an OSError as well.

Python API inputs (`number`): a real parameter takes Python or numpy
integers and floats; an integer parameter takes integers only, read as an
int through ``operator.index``. numpy's scalar types are recognised once
numpy is loaded: no numpy scalar exists before that, so this module does
not import numpy, and neither does ``import rbcscan``. ``bool``, ``str``,
``None`` and containers are refused everywhere. A "finite" bound takes
exactly the numbers that ``float()`` turns into a finite float (`finite`),
so an int passes below ``2**1024 - 2**970`` in magnitude. A refused value,
or one past the parameter's bound, is a `DomainError` or `UsageError`
naming the parameter. A plain int or float within its bound passes on a
fast path, so the common call costs one bound test. The elements of
hand-built ``Columns``, ``SyntheticScene.receivers`` and
``simulate_guided_multi``'s cells are trusted. Messages show a caller's
value through `shown`, so an integer too long for ``str`` still gives a
short message, not a bare ValueError.

Records (`checked`): every record is one ``NamedTuple`` class that declares
each field, its type and its default once. One whose fields are checked
also defines ``_new(cls, <fields>)``, which checks them and builds the
tuple; ``NamedTuple`` forbids ``__new__`` and ``_make`` in a class body, so
the `checked` decorator installs ``_new`` as ``__new__``, with the fields'
defaults, and gives the record a ``_make``, which ``_replace`` calls, that
goes through it.
"""

import math
import operator
import sys
from typing import Callable


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


#: The least int that float() rounds up to infinity and refuses.
_INT_FLOAT_END = 2**1024 - 2**970


def finite(value) -> bool:
    """Whether ``float(value)`` is a finite float. An int is finite below
    ``2**1024 - 2**970`` in magnitude, past which ``float()`` refuses it."""
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


#: The bounds a numeric parameter may carry, each with its test.
_BOUNDS = {
    "": lambda v: True,
    "finite": finite,
    "finite and >= 0": lambda v: finite(v) and v >= 0,
    "finite and > 0": lambda v: finite(v) and v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    # A float passes, NaN and the infinities too; an int must convert to one.
    "within float range": lambda v: not isinstance(v, int) or -_INT_FLOAT_END < v < _INT_FLOAT_END,
    "within [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


def shown(value, text: Callable[[object], str] = repr) -> str:
    """``text(value)``, except that an integer past Python's ``str()`` digit
    limit, alone or in a tuple or list, shows as its size in bits."""
    try:
        return text(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        if isinstance(value, int):
            return f"an integer of {value.bit_length()} bits"
        if type(value) not in (tuple, list):
            raise
        items = ", ".join(map(shown, value))
        return f"[{items}]" if type(value) is list else f"({items}{',' * (len(value) == 1)})"


def number(value, name: str, error: type[RbcScanError], bound: str = "", integral: bool = False):
    """``value`` once it is a number within ``bound``, a key of `_BOUNDS`;
    ``error`` naming ``name`` otherwise. With ``integral`` it must be an
    integer and comes back as an int. A tuple is checked element by element
    and named whole. A plain ``int``, or a plain ``float`` when not
    ``integral``, within ``bound`` comes back at once, without the type tests.
    """
    if (type(value) is int or type(value) is float and not integral) and _BOUNDS[bound](value):
        return value
    values = value if type(value) is tuple else (value,)
    kinds, kind = ((int,), "an integer") if integral else ((int, float), "a number")
    np = sys.modules.get("numpy")  # no numpy scalar exists before numpy is loaded
    if np is not None:
        kinds += (np.integer,) if integral else (np.integer, np.floating)
    if not all(isinstance(v, kinds) and not isinstance(v, bool) for v in values):
        raise error(f"{name} must be {kind}, got {shown(value)}")
    if integral:
        values = tuple(map(operator.index, values))
    if not all(map(_BOUNDS[bound], values)):
        raise error(f"{name} must be {bound}, got {shown(value)}")
    return values if type(value) is tuple else values[0]


def _checked_make(cls, iterable):
    """namedtuple's ``_make``, through the record's own ``__new__`` and its checks."""
    values = tuple(iterable)
    if len(values) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
    return cls(*values)


def checked(cls):
    """``cls``, a ``NamedTuple`` class, with its ``_new`` as ``__new__`` and the
    fields' defaults, and with a ``_make``, which ``_replace`` calls, through it."""
    cls._new.__defaults__ = tuple(cls._field_defaults.values())
    cls.__new__ = staticmethod(cls._new)
    cls._make = classmethod(_checked_make)
    return cls
