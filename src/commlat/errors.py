"""Exception hierarchy.

Everything raised on bad *input* is an :class:`InputError`, which is a
:class:`ValueError`; a failed internal mathematical cross-check raises
:class:`VerificationError`.  The CLI maps the former to exit status 2 and
the latter to exit status 3 (a verification failure always indicates a
bug, never bad data).  No refusal has a class of its own: the message says
what was wrong.
"""


class CommlatError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CommlatError, ValueError):
    """The caller supplied an invalid object (lattice, table, map, file,
    ...)."""


class VerificationError(CommlatError):
    """A mathematical cross-check failed: two routes to the same verdict
    disagreed, or a construction broke an invariant it is guaranteed to
    satisfy.  This signals an implementation bug."""
