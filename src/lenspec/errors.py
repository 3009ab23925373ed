"""Exception types shared across the package."""


class LenspecError(Exception):
    """Base class for all lenspec errors."""


class InvalidParameters(LenspecError):
    """A space, lattice or query parameter is out of range or inconsistent."""


class DimensionMismatch(LenspecError):
    """Two objects of different rank were combined."""


class InternalError(LenspecError):
    """Two exact computations that must agree did not: a defect, not bad input."""


class NegativeOrderTerm(InternalError):
    """A series expansion has a nonzero coefficient at a negative power."""


class NotDominant(LenspecError):
    """A highest weight was not given in dominant form."""
