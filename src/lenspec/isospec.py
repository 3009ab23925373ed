"""Isometry classification and isospectrality search for lens parameters.

Two lens parameter vectors give isometric quotients exactly when one is
carried to the other by a unit multiplier mod q together with coordinate
permutations and sign flips; :func:`canonical_key` minimizes over that whole
action, so key equality decides isometry.  :func:`isometry_classes` lists the
keys themselves, the sorted sign-folded tuples that no unit lowers, rather
than keying every parameter vector; its candidate count is bounded before it
starts.  The isospectrality tests compare exact rational series, never
truncations.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice

from .errors import DimensionMismatch, InternalError, InvalidParameters
from .genfun import f_rational, moment_series, theta_ell_rational
from .lattice import CongruenceLattice, lattice_from_lens

# bound on the entries of the candidate keys isometry_classes checks,
# n * C(values + n - 1, n); the largest search of the benchmark and of the
# q-range gates (q = 151, n = 3, orbifolds) needs 228228
MAX_CLASS_WORK = 10**6


@dataclass(frozen=True, order=True)
class LensKey:
    """Canonical isometry key of lens parameters: equal keys <=> isometric."""

    n: int
    q: int
    exponents: tuple[int, ...]

    def label(self) -> str:
        return f"L({self.q};{','.join(str(x) for x in self.exponents)})"

    def lattice(self) -> CongruenceLattice:
        return lattice_from_lens(self.q, self.exponents)


def _folded(q: int, s: tuple[int, ...], t: int) -> tuple[int, ...]:
    # t * s with every entry folded to its sign-orbit representative in
    # [0, q // 2], sorted
    return tuple(sorted([min(v, q - v) for v in [t * x % q for x in s]]))


def canonical_key(q: int, s) -> LensKey:
    """Minimize (t * s_i mod q) over units t, signs and coordinate order.

    Each coordinate is folded to its sign-orbit representative in
    [0, q // 2]; sorting handles permutations and the minimum over all units
    handles the residual equivalence.
    """
    s = tuple(int(x) for x in s)
    n = len(s)
    if n < 2:
        raise InvalidParameters("rank n must be >= 2")
    if q < 1:
        raise InvalidParameters("q must be >= 1")
    if math.gcd(q, *s) != 1:
        raise InvalidParameters(f"gcd(q, s_1, ..., s_n) must be 1, got ({q}; {s})")
    best = min(_folded(q, s, t) for t in range(1, q + 1) if math.gcd(t, q) == 1)
    return LensKey(n=n, q=q, exponents=best)


def _check_pair(L1: CongruenceLattice, L2: CongruenceLattice) -> None:
    if L1.n != L2.n:
        raise DimensionMismatch(f"rank mismatch: {L1.n} vs {L2.n}")


def p_isospectral(L1: CongruenceLattice, L2: CongruenceLattice, p: int) -> bool:
    """Exact equality of the p-form spectra of the two quotients.

    Decided by equality of the two encoding series F^(p-1) and F^p of each
    space; F^(-1) is zero, so p = 0 compares F^0 alone.
    """
    _check_pair(L1, L2)
    if not 0 <= p <= L1.n - 1:
        raise InvalidParameters(f"p must lie in 0..{L1.n - 1}")
    return all(f_rational(L1, j) == f_rational(L2, j) for j in range(max(p - 1, 0), p + 1))


def isospectral_range(L1: CongruenceLattice, L2: CongruenceLattice, p0: int) -> bool:
    """True iff the quotients are p-isospectral for every 0 <= p <= p0.

    Equivalent to equality of the zero-count moment series of orders
    0 .. p0, which is a finite exact test.
    """
    _check_pair(L1, L2)
    return moment_series(L1, p0) == moment_series(L2, p0)


def norm_star_isospectral(L1: CongruenceLattice, L2: CongruenceLattice) -> bool:
    """True iff every refined count series theta^(ell) agrees; equivalent to
    p-isospectrality for all p."""
    _check_pair(L1, L2)
    n = L1.n
    return all(
        theta_ell_rational(L1, ell) == theta_ell_rational(L2, ell)
        for ell in range(n + 1)
    )


# -- search ---------------------------------------------------------------------


@dataclass(frozen=True)
class IsospectralFamily:
    """A maximal set of >= 2 isometry classes sharing all spectra up to p0."""

    q: int
    n: int
    p0: int
    members: tuple[LensKey, ...]
    fingerprint: str


def isometry_classes(q: int, n: int, mode: str = "manifolds") -> list[LensKey]:
    """All isometry classes of lens parameters with modulus q and rank n, sorted.

    ``manifolds`` lists the free actions only (every s_i a unit mod q);
    ``orbifolds`` lists every valid parameter vector, the manifold ones
    included.  Each class is listed once, by its key, and no other vector is
    visited: the candidates are the sorted tuples c over [0, q // 2] (units
    only, for manifolds) with gcd(q, *c) = 1, and c is kept when no unit
    multiplier folds it to a smaller tuple, so the list comes out sorted.
    Raises InvalidParameters, before any candidate is built, when the
    candidates hold more than :data:`MAX_CLASS_WORK` entries
    (n * C(values + n - 1, n)).
    """
    if q < 1:
        raise InvalidParameters("q must be >= 1")
    if n < 2:
        raise InvalidParameters("rank n must be >= 2")
    if mode not in ("manifolds", "orbifolds"):
        raise InvalidParameters(f"mode must be 'manifolds' or 'orbifolds', got {mode!r}")
    values = (x for x in range(q // 2 + 1) if mode == "orbifolds" or math.gcd(x, q) == 1)
    # C(m + n - 1, n) >= m, so no more values are read than the bound can admit
    values = list(islice(values, MAX_CLASS_WORK // n + 1))
    if n * math.comb(len(values) + n - 1, n) > MAX_CLASS_WORK:
        raise InvalidParameters(
            f"listing the classes of q={q}, n={n} ({mode}) takes more than "
            f"{MAX_CLASS_WORK} candidate entries"
        )
    # t and q - t fold alike, and t = 1 leaves a candidate unchanged
    units = [t for t in range(2, q // 2 + 1) if math.gcd(t, q) == 1]
    # units carry s_i to every residue with the same gcd with q, so the least
    # entry of a key is the least gcd(c_i, q), read as 0 for c_i = 0
    return [
        LensKey(n=n, q=q, exponents=c)
        for c in combinations_with_replacement(values, n)
        if math.gcd(q, *c) == 1
        and c[0] == min(math.gcd(x, q) % q for x in c)
        and all(_folded(q, c, t) >= c for t in units)
    ]


def numerator_fingerprint(series) -> tuple:
    """Each series' numerator as sorted (exponent, coefficient) pairs, which
    decide equality between series on one denominator."""
    return tuple(tuple(sorted(r.numerator.coeffs.items())) for r in series)


def _moment_fingerprint(L: CongruenceLattice, p0: int):
    # all classes with the same (q, n) land on the identical denominator
    # (1 - z^q)^n, so tuples compare exactly
    return numerator_fingerprint(moment_series(L, p0))


def fingerprint_digest(data) -> str:
    return hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def search(q: int, n: int, p0: int, mode: str = "manifolds") -> list[IsospectralFamily]:
    """Group the isometry classes with modulus q into families that are
    p-isospectral for all p <= p0; families of size >= 2 are returned.

    Classes are bucketed by the exact moment-series fingerprint of one
    lattice per class, dropped right after; members of a bucket are checked
    against its first by equality of F^p for every p <= p0, so the result
    rests on both exact criteria, not on hashing.
    """
    if not 0 <= p0 <= n - 1:
        raise InvalidParameters(f"p0 must lie in 0..{n - 1}")
    keys = isometry_classes(q, n, mode)
    buckets: dict[tuple, list[LensKey]] = {}
    for key in keys:
        fp = _moment_fingerprint(key.lattice(), p0)
        buckets.setdefault(fp, []).append(key)
    families = []
    for fp, members in buckets.items():
        if len(members) < 2:
            continue
        base, *others = (key.lattice() for key in members)
        for L in others:
            if not all(p_isospectral(base, L, p) for p in range(p0 + 1)):
                raise InternalError("fingerprint bucket failed exact verification")
        families.append(
            IsospectralFamily(
                q=q,
                n=n,
                p0=p0,
                members=tuple(members),
                fingerprint=fingerprint_digest(fp),
            )
        )
    families.sort(key=lambda fam: fam.members)
    return families
