"""Congruence lattices of finite torus subgroups, and their box counts.

A finite subgroup of the block-rotation torus in SO(2n) is given by generator
pairs (q_i, s_i): the generator rotates coordinate plane j by 2*pi*s_{i,j}/q_i.
Its congruence lattice is the set of integer vectors a with
sum_j a_j s_{i,j} = 0 mod q_i for every generator, so one record,
:class:`CongruenceLattice`, holds both; every other datum is derived from the
generators.  All spectral data of the quotient depends on the lattice only
through the counts of vectors with a given one-norm and a given number of zero
entries.  Those counts follow from the finite box count kept here (see
:mod:`lenspec.genfun`); :func:`lenspec.weights.shell_table` enumerates them
directly to certify that route.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from . import _kernels
from .errors import DimensionMismatch, InvalidParameters
from .polyseries import LaurentPolynomial


def _subgroup_order(rows, m: int) -> int:
    """Order of the subgroup of Z_m^n spanned by ``rows``.

    Echelon form over Z, entries mod m: Euclid's steps on column j leave one
    pivot, whose entry spans the projection to column j of the rows zero
    before j, an image of m / gcd(m, entry) elements; that multiple of the
    pivot is zero in column j and joins the remaining rows.
    """
    order = 1
    for j in range(len(rows[0]) if rows else 0):
        pivot, rest = None, []
        for r in rows:
            if pivot is None and r[j]:
                pivot = r
                continue
            while r[j]:
                k = pivot[j] // r[j]
                pivot, r = r, [(x - k * y) % m for x, y in zip(pivot, r)]
            rest.append(r)
        if pivot is not None:
            step = m // math.gcd(m, pivot[j])
            order *= step
            rest.append([x * step % m for x in pivot])
        rows = rest
    return order


def lattice_from_lens(q: int, s) -> "CongruenceLattice":
    """Congruence lattice of the lens parameters (q; s_1, ..., s_n): the
    cyclic group of order q rotating coordinate plane j by 2*pi*s_j/q."""
    s = tuple(int(x) for x in s)
    if q < 1:
        raise InvalidParameters("q must be >= 1")
    if math.gcd(q, *s) != 1:
        raise InvalidParameters(f"gcd(q, s_1, ..., s_n) must be 1, got parameters ({q}; {s})")
    return CongruenceLattice(len(s), [(q, s)])


# n: int, congruences: tuple of (q, s) with s a tuple of n ints
_LatticeFields = namedtuple("_LatticeFields", ("n", "congruences"))


class CongruenceLattice(_LatticeFields):
    """Sublattice of Z^n cut out by the congruences of a torus subgroup.

    ``CongruenceLattice(n, congruences)`` takes generator pairs (q_i, s_i) and
    normalizes them: exponents are reduced mod the order, a common factor
    with the order is divided out, and generators of order 1 are dropped.
    Membership is exact: a is in the lattice iff every congruence
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
            s = tuple((x // g) % q for x in s)
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

    def acts_freely(self) -> bool:
        """True when no nontrivial element fixes a point of the sphere.

        As rotation exponents mod the exponent E, the group is the subgroup
        of Z_E^n its generators span, and it acts freely exactly when every
        coordinate projection is injective: when the image E / gcd(E, column
        j) of each coordinate j has as many elements as the group.
        """
        big = self.exponent
        rows = [[x * (big // q) % big for x in s] for q, s in self.congruences]
        order = _subgroup_order(rows, big)
        return all(big // math.gcd(big, *column) == order for column in zip(*rows))

    def member(self, a) -> bool:
        # every congruence is tested directly; a Smith-normal-form reduction of
        # stacked congruences would be the natural fast path if this ever
        # dominates, but moduli and ranks stay desk-scale here
        a = tuple(a)
        if len(a) != self.n:
            raise DimensionMismatch(f"vector has length {len(a)}, expected {self.n}")
        return all(
            sum(x * c for x, c in zip(a, s)) % q == 0 for q, s in self.congruences
        )

    # -- counting ------------------------------------------------------------

    @cached_property
    def _phi(self) -> tuple[LaurentPolynomial, ...]:
        table = _kernels.box_table(self.congruences, self.n, self.exponent - 1)
        return tuple(LaurentPolynomial(dict(enumerate(column))) for column in zip(*table))

    def phi_polynomials(self) -> tuple[LaurentPolynomial, ...]:
        """Box-count generating polynomials, one per zero-entry count.

        Entry ``ell`` counts the lattice vectors of the open box
        |a_i| < exponent with ``ell`` zero entries by one-norm; it has degree
        at most (n - ell) * (exponent - 1), and entry n is the constant 1
        coming from the zero vector.
        """
        return self._phi

    def reduced_count(self, k: int, zeros: int) -> int:
        """Lattice vectors of the open box |a_i| < exponent with one-norm k
        and ``zeros`` zero entries: coefficient k of phi_zeros."""
        return self._phi[zeros].coeffs.get(k, 0)

    def label(self) -> str:
        if not self.congruences:
            return f"Z^{self.n}"
        if len(self.congruences) == 1:
            q, s = self.congruences[0]
            return f"L({q};{','.join(str(x) for x in s)})"
        gens = "|".join(
            f"{q}:{','.join(str(x) for x in s)}" for q, s in self.congruences
        )
        return f"G({gens})"
