"""Congruence lattices of finite torus subgroups, and their box counts.

A finite subgroup of the block-rotation torus in SO(2n) is given by generator
pairs (q_i, s_i): the generator rotates coordinate plane j by 2*pi*s_{i,j}/q_i.
Its congruence lattice is the set of integer vectors a with
sum_j a_j s_{i,j} = 0 mod q_i for every generator, so one record,
:class:`CongruenceLattice`, holds both and derives every other datum.  All
spectral data of the quotient depends on the lattice only through the box
count kept here: phi_l counts the vectors of the open box |a_i| < E, E the
exponent, with l zero entries by one-norm (see :mod:`lenspec.genfun`), and
:func:`lenspec.weights.shell_table` certifies it by direct enumeration.  No
production path tests a vector for membership or decides whether the action
is free; the tests keep brute-force references for both.
"""

import math
from collections import namedtuple
from functools import cached_property

from . import _kernels
from .errors import DimensionMismatch, InvalidParameters
from .polyseries import LaurentPolynomial


def lattice_from_lens(q: int, s) -> "CongruenceLattice":
    """Congruence lattice of the lens parameters (q; s_1, ..., s_n): the
    cyclic group of order q rotating coordinate plane j by 2*pi*s_j/q."""
    s = tuple(int(x) for x in s)
    if q < 1:
        raise InvalidParameters("q must be >= 1")
    if math.gcd(q, *s) != 1:
        raise InvalidParameters(f"gcd(q, s_1, ..., s_n) must be 1, got parameters ({q}; {s})")
    return CongruenceLattice(len(s), [(q, s)])


def lens_label(q: int, s) -> str:
    """The text L(q;s_1,...,s_n) of lens parameters."""
    return f"L({q};{','.join(map(str, s))})"


# n: int, congruences: tuple of (q, s) with s a tuple of n ints
_LatticeFields = namedtuple("_LatticeFields", ("n", "congruences"))


class CongruenceLattice(_LatticeFields):
    """Sublattice of Z^n cut out by the congruences of a torus subgroup.

    ``CongruenceLattice(n, congruences)`` takes generator pairs (q_i, s_i) and
    normalizes them: exponents are reduced mod the order, a common factor
    with the order is divided out, and generators of order 1 are dropped.
    A vector a lies in the lattice iff every congruence
    sum_j a_j s_{i,j} = 0 mod q_i holds.  The fields ``n`` and
    ``congruences`` are a named tuple's, read-only and hashed, so generator
    data that normalizes alike gives equal lattices; as a subclass without
    ``__slots__`` it keeps a ``__dict__`` for its cached box count.
    """

    def __new__(cls, n: int, congruences):
        if n < 2:
            raise InvalidParameters("rank n must be >= 2")
        normalized = []
        for q, s in congruences:
            if q < 1:
                raise InvalidParameters(f"generator order {q} must be >= 1")
            s = tuple(int(x) for x in s)
            if len(s) != n:
                raise DimensionMismatch(f"generator has {len(s)} exponents, expected {n}")
            s = tuple(x % q for x in s)
            g = math.gcd(q, *s)
            q //= g
            s = tuple(x // g for x in s)
            if q > 1:
                normalized.append((q, s))
        return super().__new__(cls, n, tuple(normalized))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: normalize there too
        return cls(*iterable)

    @property
    def exponent(self) -> int:
        """Least m with g^m = 1 for every group element: the lcm of the moduli.
        Membership is periodic with this period in every coordinate."""
        return math.lcm(*(q for q, _ in self.congruences))

    # -- counting ------------------------------------------------------------

    @cached_property
    def _phi(self) -> tuple[LaurentPolynomial, ...]:
        # each filtered dict becomes the polynomial's own, not a copy that
        # LaurentPolynomial() would filter again
        return tuple(
            LaurentPolynomial._wrap({k: c for k, c in enumerate(counts) if c})
            for counts in _kernels.box_table(self.congruences, self.n)
        )

    def phi_polynomials(self) -> tuple[LaurentPolynomial, ...]:
        """Box-count generating polynomials, one per zero-entry count.

        Entry ``ell`` counts the lattice vectors of the open box
        |a_i| < exponent with ``ell`` zero entries by one-norm; it has degree
        at most (n - ell) * (exponent - 1), and entry n is the constant 1
        coming from the zero vector.
        """
        return self._phi

    def label(self) -> str:
        if not self.congruences:
            return f"Z^{self.n}"
        if len(self.congruences) == 1:
            return lens_label(*self.congruences[0])
        gens = "|".join(f"{q}:{','.join(map(str, s))}" for q, s in self.congruences)
        return f"G({gens})"
