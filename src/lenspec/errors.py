"""Exception types shared across the package, and the one work limit.

Every stage of a call whose work grows with its input counts that work
before it starts, in one unit, and hands it to :func:`admit`: a word step
is one 64-bit word shifted, added or multiplied, and an interpreted loop
step costs :data:`_STEP_WORDS` of them besides the words it moves.  This
module is loaded by every call, so the limit costs no import of its own.
"""

# Largest work one stage may take, in word steps.  The box count runs at
# about 1.2 ns a word step on a 2-core Xeon VM, so a stage at the limit
# takes about 0.6 s there, 1-2 s on a slow day.
WORK_LIMIT = 5 * 10**8
# Words one interpreted loop step costs besides the words it moves: the
# interpreter's overhead of a step takes about as long as shifting and adding
# that many words.
_STEP_WORDS = 190


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


def admit(work: int, what: str) -> int:
    """Return ``work``, the word steps of the stage ``what``, or raise
    InvalidParameters when it exceeds :data:`WORK_LIMIT`.  A count that stops
    once it is past the limit passes a lower bound, hence "at least"."""
    if work > WORK_LIMIT:
        raise InvalidParameters(f"{what}: at least {work} word steps, above the limit of {WORK_LIMIT}")
    return work
