"""Finite torus subgroups, their congruence lattices and box counts.

A finite subgroup of the block-rotation torus in SO(2n) is described by
generator exponent vectors.  Its congruence lattice is the set of integer
vectors a with sum_j a_j s_{i,j} = 0 mod q_i for every generator (q_i, s_i);
all spectral data of the quotient depends on the lattice only through the
counts of vectors with a given one-norm and a given number of zero entries.
Those counts follow from the finite box count kept here (see
:mod:`lenspec.genfun`); :func:`lenspec.weights.shell_table` enumerates them
directly to certify that route.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from . import _kernels
from .errors import DimensionMismatch, InvalidParameters
from .polyseries import LaurentPolynomial

_FREENESS_LIMIT = 2_000_000


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


class TorusSubgroup(NamedTuple):
    """Finite subgroup of the standard torus, given by generator exponents.

    Each generator is a pair (order q_i, exponents s_i mod q_i).  Use
    :func:`torus_subgroup` or :func:`lens_group` to construct normalized
    instances.
    """

    n: int
    generators: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def exponent(self) -> int:
        """Least m with g^m = 1 for every group element."""
        return math.lcm(*(q for q, _ in self.generators)) if self.generators else 1

    def acts_freely(self) -> bool:
        """True when no nontrivial element fixes a point of the sphere.

        As rotation exponents mod the exponent E, the group is the subgroup
        of Z_E^n its generators span, and it acts freely exactly when every
        coordinate projection is injective: when the image E / gcd(E, column
        j) of each coordinate j has as many elements as the group.
        """
        if math.prod(q for q, _ in self.generators) > _FREENESS_LIMIT:
            raise InvalidParameters("group too large to check for freeness")
        big = self.exponent
        rows = [[x * (big // q) % big for x in s] for q, s in self.generators]
        order = _subgroup_order(rows, big)
        return all(big // math.gcd(big, *column) == order for column in zip(*rows))

    def lattice(self) -> "CongruenceLattice":
        return CongruenceLattice(
            n=self.n,
            congruences=self.generators,
            exponent=self.exponent,
            is_manifold=self.acts_freely(),
        )


def torus_subgroup(n: int, generators) -> TorusSubgroup:
    """Normalize and validate generator data for a torus subgroup.

    Exponents are reduced mod the order, a common factor with the order is
    divided out, and generators of order 1 are dropped.
    """
    if n < 2:
        raise InvalidParameters("rank n must be >= 2")
    normalized = []
    for q, s in generators:
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
    return TorusSubgroup(n=n, generators=tuple(normalized))


def lens_group(q: int, s) -> TorusSubgroup:
    """Cyclic group of order q rotating coordinate plane j by 2*pi*s_j/q."""
    s = tuple(int(x) for x in s)
    if q < 1:
        raise InvalidParameters("q must be >= 1")
    if math.gcd(q, *s) != 1:
        raise InvalidParameters(f"gcd(q, s_1, ..., s_n) must be 1, got parameters ({q}; {s})")
    return torus_subgroup(len(s), [(q, s)])


def lattice_from_lens(q: int, s) -> "CongruenceLattice":
    """Congruence lattice of the lens parameters (q; s_1, ..., s_n)."""
    return lens_group(q, s).lattice()


class _LatticeFields(NamedTuple):
    n: int
    congruences: tuple[tuple[int, tuple[int, ...]], ...]
    exponent: int
    is_manifold: bool


class CongruenceLattice(_LatticeFields):
    """Sublattice of Z^n cut out by modular congruences.

    Membership is exact: a is in the lattice iff every congruence
    sum_j a_j s_{i,j} = 0 mod q_i holds.  ``exponent`` is the lcm of the
    moduli; membership is periodic with that period in every coordinate.
    Fields ``n``, ``congruences``, ``exponent`` and ``is_manifold`` are a
    named tuple's, read-only and hashed; as a subclass without ``__slots__``
    it keeps a ``__dict__`` for its cached box count.
    """

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
    def _reduced(self) -> list[tuple[int, ...]]:
        return _kernels.box_table(self.congruences, self.n, self.exponent - 1)

    def reduced_counts(self) -> tuple[tuple[int, ...], ...]:
        """Counts restricted to the open box |a_i| < exponent, as rows by norm.

        Row k lists the counts by zero entries; rows run from norm 0 to
        n*(exponent-1), beyond which every count vanishes.
        """
        return tuple(self._reduced)

    def reduced_count(self, k: int, zeros: int) -> int:
        table = self._reduced
        if k < 0 or k >= len(table):
            return 0
        return table[k][zeros]

    @cached_property
    def _phi(self) -> tuple[LaurentPolynomial, ...]:
        return tuple(LaurentPolynomial(dict(enumerate(column))) for column in zip(*self._reduced))

    def phi_polynomials(self) -> tuple[LaurentPolynomial, ...]:
        """Box-count generating polynomials, one per zero-entry count.

        Entry ``ell`` has degree at most (n - ell) * (exponent - 1); entry n
        is the constant 1 coming from the zero vector.
        """
        return self._phi

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
