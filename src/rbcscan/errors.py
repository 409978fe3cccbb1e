"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: schema problems (malformed or
unrecognized file content) exit 1, domain/invariant violations exit 2,
usage errors exit 3.
"""


class RbcScanError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(RbcScanError, ValueError):
    """A file is structurally invalid: bad syntax, wrong type, unknown field."""


class DomainError(RbcScanError, ValueError):
    """A value lies outside the domain an operation or type accepts."""


class InvariantError(DomainError):
    """A parsed file is well-formed but violates a documented invariant."""


class UsageError(RbcScanError, ValueError):
    """The caller invoked an operation in an unsupported way."""
