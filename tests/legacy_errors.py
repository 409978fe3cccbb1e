"""``errors.number`` as it was before its fast path for plain ints and floats.

Kept verbatim as a test oracle: every value, plain or not, goes through the
type tests and then the bound. ``rbcscan.errors.number`` must return the
same value, of the same type, or raise the same class with the same
message, for every value and bound.
"""

import operator
import sys

from rbcscan.errors import _BOUNDS, RbcScanError, shown


def number(value, name: str, error: type[RbcScanError], bound: str = "", integral: bool = False):
    """``value`` once it is a number within ``bound``, a key of `_BOUNDS`;
    ``error`` naming ``name`` otherwise. With ``integral`` it must be an
    integer and comes back as an int. A tuple is checked element by element
    and named whole.
    """
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
