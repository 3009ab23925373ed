"""Certification route: closed-form weight multiplicities summed over an
enumeration of lattice shells.

The multiplicity of a weight in the harmonic family representations of
so(2n) depends only on the weight's one-norm and its number of zero entries.
The closed form below evaluates it directly; summing it against lattice
shell counts gives the dimension of the invariant subspace, which is exactly
an eigenvalue multiplicity of the quotient.

The eigenvalue pairing is ``mult(lambda_{k, p-1}) = m_gamma(L, k, p)`` and
``mult(lambda_{k, p}) = m_gamma(L, k, p+1)``, certified against the
Freudenthal oracle in the test suite.  Production reads the same numbers off
the series of :mod:`lenspec.genfun`; this module serves ``verify`` and the
tests, and its shell enumeration shares no code with the box count behind
those series.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatch, InvalidParameters
from .lattice import CongruenceLattice
from .polyseries import binom

# Lattices whose shell tables stay cached; the least recently used is dropped first.
_SHELL_LATTICES = 512
# Largest ball of integer points, by one-norm, that one enumeration may cover.
_SHELL_POINT_LIMIT = 10**8
# Integer points generated per vectorized batch.
_SHELL_BATCH = 1 << 20

_shell_tables: OrderedDict[CongruenceLattice, np.ndarray] = OrderedDict()


def _ball_size(d: int, k: int) -> int:
    """Number of integer vectors in Z^d with one-norm <= k."""
    if k < 0:
        return 0
    return sum((1 << i) * math.comb(d, i) * math.comb(k, i) for i in range(d + 1))


def _count_shells(L: CongruenceLattice, firsts, lo: int, hi: int) -> np.ndarray:
    """Flat counts [(k - lo) * (n+1) + zeros] of the lattice vectors with
    lo <= one-norm k <= hi whose first coordinate lies in ``firsts``.

    Vectors are built one coordinate at a time, carrying the one-norm, the
    number of zero entries and the residue of every congruence; coordinate j
    takes every value keeping the norm <= hi, and the last one also reaches
    norm >= lo, so each vector of the shells is generated exactly once.
    """
    import numpy as np

    n = L.n
    values = np.asarray(firsts, dtype=np.int64)
    norm = np.abs(values)
    zeros = (values == 0).astype(np.int64)
    residues = [values * s[0] % q for q, s in L.congruences]
    for j in range(1, n):
        # each partial vector takes the magnitudes low..span at coordinate j
        span = hi - norm
        low = np.maximum(lo - norm, 0) if j == n - 1 else np.zeros_like(norm)
        count = np.maximum(span - low + 1, 0)
        parent = np.repeat(np.arange(norm.size), count)
        starts = np.repeat(np.cumsum(count) - count, count)
        size = np.arange(parent.size, dtype=np.int64) - starts + low[parent]
        signed = size > 0
        parent = np.concatenate([parent, parent[signed]])
        values = np.concatenate([size, -size[signed]])
        norm = norm[parent] + np.abs(values)
        zeros = zeros[parent] + (values == 0)
        residues = [
            (r[parent] + values * s[j]) % q for r, (q, s) in zip(residues, L.congruences)
        ]
    member = np.ones(norm.size, dtype=bool)
    for r in residues:
        member &= r == 0
    keys = (norm[member] - lo) * (n + 1) + zeros[member]
    return np.bincount(keys, minlength=(hi - lo + 1) * (n + 1))


def _enumerate_shells(L: CongruenceLattice, lo: int, hi: int) -> np.ndarray:
    """int64 table [k - lo, zeros] of lattice vectors with lo <= one-norm k <= hi."""
    import numpy as np

    n = L.n
    out = np.zeros((hi - lo + 1) * (n + 1), dtype=np.int64)
    batch: list[int] = []
    points = 0
    for first in range(-hi, hi + 1):
        tail = _ball_size(n - 1, hi - abs(first))
        if batch and points + tail > _SHELL_BATCH:
            out += _count_shells(L, batch, lo, hi)
            batch, points = [], 0
        batch.append(first)
        points += tail
    out += _count_shells(L, batch, lo, hi)
    return out.reshape(hi - lo + 1, n + 1)


def shell_table(L: CongruenceLattice, kmax: int) -> np.ndarray:
    """Read-only int64 table N[k, zeros] of lattice vectors with one-norm k,
    for 0 <= k <= kmax, by brute-force enumeration.

    Every integer vector of each shell is generated and tested against every
    congruence.  A lattice's table grows on demand, enumerating only the
    shells not yet counted; the last ``_SHELL_LATTICES`` lattices used keep
    their tables.
    """
    if kmax < 0:
        raise InvalidParameters("kmax must be >= 0")
    points = _ball_size(L.n, kmax)
    if points > _SHELL_POINT_LIMIT:
        raise InvalidParameters(
            f"shell enumeration to one-norm {kmax} in rank {L.n} covers {points}"
            f" points, above the limit of {_SHELL_POINT_LIMIT}"
        )
    if kmax * L.exponent >= 1 << 62:
        raise InvalidParameters("congruence residues exceed the exact int64 range")
    import numpy as np

    table = _shell_tables.pop(L, None)
    have = -1 if table is None else table.shape[0] - 1
    if kmax > have:
        grown = _enumerate_shells(L, have + 1, kmax)
        table = grown if table is None else np.concatenate([table, grown])
        table.setflags(write=False)
    _shell_tables[L] = table
    while len(_shell_tables) > _SHELL_LATTICES:
        _shell_tables.popitem(last=False)
    return table[: kmax + 1]


@dataclass(frozen=True)
class WeightClass:
    """A Weyl-invariant class of weights: one-norm, zero entries, rank."""

    norm: int
    zeros: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameters("rank n must be >= 2")
        if not 0 <= self.zeros <= self.n:
            raise InvalidParameters("zero count must lie in 0..n")
        if self.norm < self.n - self.zeros or (self.norm == 0) != (self.zeros == self.n):
            raise InvalidParameters(
                f"no weight has one-norm {self.norm} with {self.zeros} zeros in rank {self.n}"
            )


@dataclass(frozen=True)
class RepIndex:
    """Index (k, p) of a harmonic family representation of so(2n).

    p = 0 names the zero representation; p = n names the reducible sum of the
    two mirror components.
    """

    k: int
    p: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameters("rank n must be >= 2")
        if self.k < 0:
            raise InvalidParameters("k must be >= 0")
        if not 0 <= self.p <= self.n:
            raise InvalidParameters(f"p must lie in 0..{self.n}")


@lru_cache(maxsize=1 << 16)
def _class_multiplicity(n: int, k: int, p: int, norm: int, zeros: int) -> int:
    """Multiplicity of any weight with the given (norm, zeros) in family (k, p)."""
    gap = k + p - norm
    if gap < 0 or gap % 2:
        return 0
    r = gap // 2
    total = 0
    for j in range(1, p + 1):
        sign = -1 if j % 2 == 0 else 1
        for t in range((p - j) // 2 + 1):
            c_t = binom(n - p + j + 2 * t, t)
            if c_t == 0:
                continue
            for beta in range(p - j - 2 * t + 1):
                c_b = (
                    (1 << (p - j - 2 * t - beta))
                    * binom(n - zeros, beta)
                    * binom(zeros, p - j - 2 * t - beta)
                )
                if c_b == 0:
                    continue
                for alpha in range(beta + 1):
                    c_a = binom(beta, alpha)
                    if c_a == 0:
                        continue
                    tail = 0
                    for i in range(j):
                        tail += binom(r - i - p + alpha + t + j + n - 2, n - 2)
                    total += sign * c_t * c_b * c_a * tail
    return total


def weight_multiplicity(idx: RepIndex, w: WeightClass) -> int:
    """Exact weight multiplicity for the class ``w`` in the representation ``idx``."""
    if idx.n != w.n:
        raise DimensionMismatch(f"rank mismatch: {idx.n} vs {w.n}")
    if idx.p < 1:
        raise InvalidParameters("weight multiplicities require p >= 1")
    return _class_multiplicity(idx.n, idx.k, idx.p, w.norm, w.zeros)


def m_gamma(L: CongruenceLattice, k: int, p: int) -> int:
    """Invariant dimension of family (k-1, p), summed over the lattice.

    Equals the multiplicity of the eigenvalue paired with (k, p-1) on
    (p-1)-forms of the quotient.  Returns 0 for p = 0.
    """
    n = L.n
    if k < 1:
        raise InvalidParameters("k must be >= 1")
    if not 0 <= p <= n:
        raise InvalidParameters(f"p must lie in 0..{n}")
    if p == 0:
        return 0
    top = k - 1 + p
    table = shell_table(L, top)
    total = 0
    for r in range(top // 2 + 1):
        norm = top - 2 * r
        for zeros in range(n + 1):
            count = int(table[norm, zeros])
            if count:
                total += count * _class_multiplicity(n, k - 1, p, norm, zeros)
    return total


def invariant_dimension(L: CongruenceLattice, idx: RepIndex) -> int:
    """Dimension of the lattice-invariant subspace of the representation ``idx``."""
    if idx.n != L.n:
        raise DimensionMismatch(f"rank mismatch: {idx.n} vs {L.n}")
    if idx.p < 1:
        raise InvalidParameters("invariant dimensions are defined for p >= 1")
    return m_gamma(L, idx.k + 1, idx.p)
