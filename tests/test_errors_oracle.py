"""``errors.number`` against its pre-fast-path version in ``legacy_errors``.

For every bound, with ``integral`` true and false, the two must return the
same value of the same type, or raise the same class with the same message,
on plain ints and floats at and around each bound, bools, an ``IntEnum``
member, a float subclass, numpy scalars, non-numbers and tuples of these.
A static check keeps every literal bound under ``src/`` a key of
``_BOUNDS``: a misspelt one would be a ``KeyError`` only when its line runs.
"""

import ast
import enum
import sys
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import legacy_errors
from rbcscan import errors
from rbcscan.errors import _BOUNDS, _INT_FLOAT_END, DomainError, UsageError, shown

SRC = Path(__file__).resolve().parents[1] / "src" / "rbcscan"


class Level(enum.IntEnum):
    ONE = 1


class Real(float):
    pass


INTS = [0, 1, -1, 2, _INT_FLOAT_END - 1, _INT_FLOAT_END, _INT_FLOAT_END + 1, 10**5000]
INTS += [-v for v in INTS if v]
FLOATS = [0.0, 0.5, 1.0, 1.0000000000000002, 5e-324, sys.float_info.max, float("inf")]
FLOATS += [-v for v in FLOATS] + [float("nan")]
NUMPY = [
    np.float64("nan"), np.float64(0.5), np.int64(3), np.int64(-1), np.float32(0.25),
    np.uint64(2**64 - 1), np.bool_(True),
]
OTHERS = [True, False, Level.ONE, Real(0.5), Real(-1.0), "1", None]
VALUES = INTS + FLOATS + NUMPY + OTHERS
BOUNDS = sorted(_BOUNDS)


def _outcome(number, value, bound, integral, error=DomainError):
    try:
        return "returned", number(value, "x", error, bound, integral)
    except Exception as e:
        return "raised", type(e), str(e)


def _same(a, b):
    """Equal values of the same type: -0.0 is not 0.0, and NaN matches NaN."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    return shown(a) == shown(b)


def _assert_agrees(value, bound, integral, error=DomainError):
    new = _outcome(errors.number, value, bound, integral, error)
    old = _outcome(legacy_errors.number, value, bound, integral, error)
    call = f"number({shown(value)}, bound={bound!r}, integral={integral})"
    assert new[0] == old[0], f"{call}: {new} but the oracle gives {old}"
    if new[0] == "raised":
        assert new[1:] == old[1:], call
    else:
        assert _same(new[1], old[1]), f"{call}: {new[1]!r} but the oracle gives {old[1]!r}"


def test_every_value_and_bound_agrees_with_the_oracle():
    for bound in BOUNDS:
        for integral in (False, True):
            for value in VALUES:
                _assert_agrees(value, bound, integral)


@given(
    values=st.lists(st.sampled_from(VALUES), max_size=3).map(tuple),
    bound=st.sampled_from(BOUNDS),
    integral=st.booleans(),
    error=st.sampled_from([DomainError, UsageError]),
)
def test_tuples_agree_with_the_oracle(values, bound, integral, error):
    _assert_agrees(values, bound, integral, error)


def _literal_bounds():
    """(file, line, bound) for each ``number(...)`` call under ``src/`` with a literal bound."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "number"):
                continue
            bounds = node.args[3:4] + [k.value for k in node.keywords if k.arg == "bound"]
            for b in bounds:
                if isinstance(b, ast.Constant):
                    yield path.name, node.lineno, b.value


def test_every_literal_bound_is_a_key_of_the_bound_table():
    found = list(_literal_bounds())
    assert len(found) > 40, found
    unknown = [f"{name}:{line} {bound!r}" for name, line, bound in found if bound not in _BOUNDS]
    assert not unknown, unknown
