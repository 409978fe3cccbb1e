"""Exception hierarchy shared across the package.

Each class's ``exit_code`` is the CLI's exit code for it, set here and
nowhere else: schema problems (malformed or unrecognized file content)
exit 1, domain/invariant violations exit 2, usage errors exit 3.
``cli.main`` exits 1 for an OSError as well.
"""

import operator


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


def integer(value: object, name: str, error: type[RbcScanError]) -> int:
    """``value`` as an int through ``operator.index``, so that numpy integers
    pass and 2.5, 2.0 or "2" do not; ``error`` naming ``name`` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
