"""Exception hierarchy.

Everything raised on bad *input* derives from :class:`InputError`; a failed
internal mathematical cross-check raises :class:`VerificationError`.  The CLI
maps the former to exit status 2 and the latter to exit status 3 (a
verification failure always indicates a bug, never bad data).
"""


class CommlatError(Exception):
    """Base class for all errors raised by this package."""


class InputError(CommlatError):
    """The caller supplied an invalid object (lattice, table, map, ...)."""


class CycleDetected(InputError):
    """The cover relation contains a directed cycle."""


class RedundantCover(InputError):
    """A cover pair is already implied transitively by the others."""


class NotALattice(InputError):
    """Some pair of elements lacks a meet or a join."""


class NotACongruence(InputError):
    """A partition does not satisfy the lattice congruence property."""


class NotAHomomorphism(InputError):
    """A map does not preserve binary meets and joins."""


class NotASublattice(InputError):
    """A subset is not closed under binary meet and join."""


class EmptySublattice(InputError):
    """A sublattice operation was given an empty member family."""


class NotModular(InputError):
    """An operation requiring modularity received a nonmodular lattice."""


class NotASplittingPair(InputError):
    """The given (delta, epsilon) does not split the lattice."""


class CongruenceMissingSeed(InputError):
    """The congruence handed to the splitting construction does not relate
    (epsilon, top)."""


class InvalidTable(InputError):
    """A commutator table violates one of the defining axioms."""


class LatticeTooLarge(InputError):
    """A size guard was exceeded (exhaustive search would blow up)."""


class FileFormatError(InputError):
    """An on-disk document is malformed."""


class VerificationError(CommlatError):
    """A mathematical cross-check failed: two routes to the same verdict
    disagreed, or a construction broke an invariant it is guaranteed to
    satisfy.  This signals an implementation bug."""
