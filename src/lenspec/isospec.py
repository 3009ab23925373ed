"""Isometry classification and isospectrality search for lens parameters.

Two lens parameter vectors give isometric quotients exactly when one is
carried to the other by a unit multiplier mod q together with coordinate
permutations and sign flips; :func:`canonical_key` minimizes over that whole
action, so key equality decides isometry.  :func:`isometry_classes` lists the
keys themselves, the sorted sign-folded tuples that no unit lowers, rather
than keying every parameter vector; its candidate count is bounded before it
starts.  :func:`search` buckets the classes by character sums mod a prime at
one point, which need no lattice and are taken in one walk over the sorted
keys that shares the products of their common leading entries, and builds
exact series only for classes that share a bucket.  The isospectrality tests
compare exact rational series, never truncations.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import combinations_with_replacement, islice
from operator import mul

from ._kernels import _STEP_WORDS, BOX_WORK_LIMIT
from .errors import DimensionMismatch, InternalError, InvalidParameters
from .genfun import _weight_set, check_weight_work, f_rational, moment_series, theta_ell_rational
from .lattice import CongruenceLattice, lattice_from_lens

# bound on the entries of the candidate keys isometry_classes checks,
# n * C(values + n - 1, n), or n * C(values + n - 2, n - 1) for manifolds,
# whose keys start with 1; the largest search of the benchmark and of the
# q-range gates (q = 151, n = 3, orbifolds) needs 228228, and q = 251, n = 3
# (manifolds) 23625
MAX_CLASS_WORK = 10**6


class LensKey(namedtuple("LensKey", ("n", "q", "exponents"))):
    """Canonical isometry key of lens parameters: equal keys <=> isometric.

    ``exponents`` is the sorted tuple of the n folded exponents.
    """

    __slots__ = ()

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


IsospectralFamily = namedtuple("IsospectralFamily", ("q", "n", "p0", "members", "fingerprint"))
IsospectralFamily.__doc__ = """A maximal set of >= 2 isometry classes sharing all spectra up to p0.

``members`` is the sorted tuple of their :class:`LensKey`, ``fingerprint``
the digest of their moment numerators.
"""


def _reaching_units(q: int, x: int) -> set[int]:
    """The units t in [2, q // 2] with t * x = +-g (mod q), g = gcd(x, q).

    With x = g x' and q = g q', those are t = +-x'^(-1) (mod q'): the lifts
    of both residues to [2, q // 2] that are units mod q, at O(g) cost.
    """
    g = math.gcd(x, q)
    q1 = q // g
    r = pow(x // g, -1, q1)
    return {t for start in (r, q1 - r) for t in range(start, q // 2 + 1, q1) if t > 1 and math.gcd(t, q) == 1}


def _check_q_n(q: int, n: int) -> None:
    if q < 1:
        raise InvalidParameters("q must be >= 1")
    if n < 2:
        raise InvalidParameters("rank n must be >= 2")


def isometry_classes(q: int, n: int, mode: str = "manifolds") -> list[LensKey]:
    """All isometry classes of lens parameters with modulus q and rank n, sorted.

    ``manifolds`` lists the free actions only (every s_i a unit mod q);
    ``orbifolds`` lists every valid parameter vector, the manifold ones
    included.  Each class is listed once, by its key, and no other vector is
    visited: the candidates are the sorted tuples c over [0, q // 2] (units
    only, for manifolds) with gcd(q, *c) = 1, and c is kept when no unit
    multiplier folds it to a smaller tuple, so the list comes out sorted.

    A unit carries x to every residue with the same gcd with q, so the least
    nonzero entry g of a key is the least gcd(c_i, q) over its nonzero
    entries, and a manifold key (q >= 2) starts with 1.  A unit t can fold c
    lower only if it carries some entry x with gcd(x, q) = g to +-g; every
    other unit leaves that slot above g.  So only those units are tried
    (:func:`_reaching_units`, at most n of them for a manifold), not every
    unit in [2, q // 2].  Raises InvalidParameters, before any candidate is
    built, when the candidates hold more than :data:`MAX_CLASS_WORK` entries:
    n * C(values + n - 1, n), or n * C(values + n - 2, n - 1) for manifolds.
    """
    _check_q_n(q, n)
    if mode not in ("manifolds", "orbifolds"):
        raise InvalidParameters(f"mode must be 'manifolds' or 'orbifolds', got {mode!r}")
    # a manifold key (q >= 2) is (1,) + a sorted (n - 1)-tuple of units
    free = mode == "manifolds" and q >= 2
    k = n - 1 if free else n
    values = (x for x in range(q // 2 + 1) if mode == "orbifolds" or math.gcd(x, q) == 1)
    # C(m + k - 1, k) >= m, so no more values are read than the bound can admit
    values = list(islice(values, MAX_CLASS_WORK // n + 1))
    if n * math.comb(len(values) + k - 1, k) > MAX_CLASS_WORK:
        raise InvalidParameters(
            f"listing the classes of q={q}, n={n} ({mode}) takes more than "
            f"{MAX_CLASS_WORK} candidate entries"
        )
    gcds = {x: math.gcd(x, q) for x in values}
    reach = {x: _reaching_units(q, x) for x in values if x}
    candidates = combinations_with_replacement(values, k)
    if free:
        candidates = ((1, *c) for c in candidates)
    keys = []
    for c in candidates:
        if math.gcd(q, *c) != 1:
            continue
        nonzero = c[c.count(0):]  # empty only for q = 1
        if nonzero:
            g = nonzero[0]
            if any(gcds[x] < g for x in nonzero):
                continue
            trials = {t for x in nonzero if gcds[x] == g for t in reach[x]}
            if not all(_folded(q, c, t) >= c for t in trials):
                continue
        keys.append(LensKey(n=n, q=q, exponents=c))
    return keys


def numerator_fingerprint(series) -> tuple:
    """Each series' numerator as sorted (exponent, coefficient) pairs, which
    decide equality between series on one denominator."""
    return tuple(tuple(sorted(r.numerator.coeffs.items())) for r in series)


def _moment_fingerprint(L: CongruenceLattice, p0: int):
    # all classes with the same (q, n) land on the identical denominator
    # (1 - z^q)^n, so tuples compare exactly
    return numerator_fingerprint(moment_series(L, p0))


def fingerprint_digest(data) -> str:
    """The first 16 hex digits of the sha256 of ``repr(data)``."""
    return _builtin_sha256()(repr(data).encode()).hexdigest()[:16]


def _builtin_sha256():
    # the interpreter's builtin sha256 (_sha2 from Python 3.12, _sha256 before
    # it) loads in well under a millisecond; hashlib loads OpenSSL's _hashlib,
    # about ten times as long, and is only the fallback
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


# -- character sums ---------------------------------------------------------------

# Evaluation point of the moment numerators, reduced mod P: the first 64
# fraction bits of pi.  Two different numerators of degree d agree at it with
# chance at most d / P, and such a collision costs only an exact fingerprint.
_POINT = 0x243F6A8885A308D3


def _is_prime(m: int) -> bool:
    # Miller-Rabin on the first twelve prime bases, exact below 3 * 10^24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2 or any(m % b == 0 for b in bases):
        return m in bases
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class _CharacterSums:
    """Moment numerators of the lens classes of one (q, n), evaluated mod a
    61-bit prime P = 1 (mod q) at one fixed point z (:data:`_POINT`).

    A class (q; s) has box-count polynomial phi(z, w) = sum_m phi_m(z) w^m,
    by Ikeda's finite Fourier form (1/q) sum_t prod_j (w + H(t s_j)) with
    H(u) = sum_{r=1}^{q-1} omega^(u r) (z^r + z^(q-r)), omega a primitive
    q-th root of unity mod P; H(-u) = H(u), so t and q - t pair up.  The
    moment numerator of order h is sum_m phi_m(z) W_m(z), W_m the weights
    (w_l = l^h) that :func:`lenspec.genfun.moment_series` uses, the same
    cached set per (q, n, h); this route and the box count differ only in
    how phi_m is obtained.  ``table`` holds w + H(u) at z packed as one int
    per u, and ``weights`` the W_m(z); both are built once, and
    :func:`_phi_sums` walks the classes over them.  Raises
    InvalidParameters, before either is built, when the weights exceed
    :data:`lenspec.genfun.MAX_WEIGHT_WORK` or the sums over ``classes``
    classes exceed :data:`lenspec._kernels.BOX_WORK_LIMIT`.
    """

    def __init__(self, q: int, n: int, p0: int, classes: int):
        check_weight_work(n, p0 + 1)
        # field width of the packed polynomials in w: a product of n factors
        # w + H, summed over at most q values of t, fits in it
        width = 62 * n + q.bit_length() + 1
        # per class and t the product of j factors, j fields, takes one more
        # factor: its 64-bit word products plus the overhead of a step, the
        # unit of the box counts these sums stand in for; shared prefixes only
        # save some of these products
        words = sum(-(-j * width // 64) * -(-width // 64) + _STEP_WORDS for j in range(1, n))
        work = classes * (q // 2 + 1) * words
        if work > BOX_WORK_LIMIT:
            raise InvalidParameters(
                f"the character sums of {classes} classes of q={q}, n={n} take {work}"
                f" word steps, above the limit of {BOX_WORK_LIMIT}"
            )
        P = (1 << 60) // q * q + 1
        while P < 1 << 60 or not _is_prime(P):
            P += q
        primes = {d for d in range(2, q + 1) if q % d == 0 and _is_prime(d)}
        g = 2
        while any(pow(g, (P - 1) // d, P) == 1 for d in primes):
            g += 1
        omega = pow(g, (P - 1) // q, P)
        z = _POINT % P
        while pow(z, q, P) == 1:  # H's closed form needs z^q != 1
            z += 1
        zq = pow(z, q, P)
        table = []
        x = 1  # omega^u
        for _ in range(q // 2 + 1):
            # geometric sums over r = 1..q-1, with x^q = 1
            h = (zq - x * z) * pow(x * z - 1, -1, P) + (z - x * zq) * pow(x - z, -1, P)
            table.append((1 << width) + h % P)
            x = x * omega % P
        table += table[(q + 1) // 2 - 1 : 0 : -1]  # H(q - u) = H(u)
        self.q, self.n, self.P, self.width, self.z, self.table = q, n, P, width, z, table
        self.q_inverse = pow(q, -1, P)
        self.weights = [[_at(w, z, P) for w in _weight_set(q, n, "moment", h)] for h in range(p0 + 1)]

    def moment_values(self, phi: list[int]) -> tuple[int, ...]:
        """The moment numerators of orders 0..p0 mod P of the class whose
        phi_m(z) are ``phi``.  Equal numerators give equal values."""
        return tuple(sum(map(mul, row, phi)) % self.P for row in self.weights)


def _at(poly, z: int, P: int) -> int:
    # poly(z) mod P
    return sum(c * pow(z, e, P) for e, c in poly.coeffs.items()) % P


def _phi_sums(sums: _CharacterSums, classes: list[tuple[int, ...]]) -> Iterator[list[int]]:
    """phi_m(z) mod P for m = 0..n of each class (q; s), s in ``classes``, by
    the character sum, in one walk over the classes.

    The row of an entry x, w + H(t x) for t = 0..q // 2, is built once; it
    refers to the ints of ``sums.table``, so the rows cost one pointer per
    (x, t).  A stack keeps the products of the rows of a class's first
    entries, each t weighted by 2 unless t = -t (mod q), and a class reuses
    the products of the entries it shares with the class before it; the
    sorted keys of :func:`isometry_classes` share most of them.  So a class
    mostly costs one product of the stack's top and the row of its last
    entry.  Any order of ``classes`` gives the same values.
    """
    q, P, width, table = sums.q, sums.P, sums.width, sums.table
    mask = (1 << width) - 1
    shifts = [m * width for m in range(sums.n + 1)]
    half = range(q // 2 + 1)
    rows: dict[int, list[int]] = {}
    prefixes = [[1 if 2 * t % q == 0 else 2 for t in half]]
    previous: tuple[int, ...] = ()
    for s in classes:
        for x in s:
            if x not in rows:
                rows[x] = [table[t * x % q] for t in half]
        shared = 0
        while shared < len(previous) and s[shared] == previous[shared]:
            shared += 1
        del prefixes[shared + 1 :]
        for x in s[shared:-1]:
            prefixes.append(list(map(mul, prefixes[-1], rows[x])))
        total = sum(map(mul, prefixes[-1], rows[s[-1]]))
        yield [(total >> shift & mask) * sums.q_inverse % P for shift in shifts]
        previous = s[:-1]


def _check_phi_sums(sums: _CharacterSums, key: LensKey, L: CongruenceLattice) -> None:
    # the box count of one class certifies the table of a search: its phi
    # polynomials evaluated at the point against the walk over that class
    exact = [_at(phi, sums.z, sums.P) for phi in L.phi_polynomials()]
    if exact != next(_phi_sums(sums, [key.exponents])):
        raise InternalError(f"character sums disagree with the box count of {key.label()}")


def search(q: int, n: int, p0: int, mode: str = "manifolds") -> list[IsospectralFamily]:
    """Group the isometry classes with modulus q into families that are
    p-isospectral for all p <= p0; families of size >= 2 are returned.

    Classes are first bucketed by their moment numerators evaluated mod a
    prime at one point through a character sum (:class:`_CharacterSums`),
    in one walk over the sorted keys that shares the products of common
    leading entries (:func:`_phi_sums`) and costs no box count; equal series
    give equal values, so no family is split.  Only members of a bucket of
    two or more get a lattice: they are split by the exact moment-series
    fingerprint, and each is checked against the first of its group by
    equality of F^p for every p <= p0.  The result rests on both exact
    criteria, not on the values.  The box count of one class (a bucket
    member, else the first class) checks the character sums through the same
    walk; a disagreement raises InternalError.  The class listing, the
    weights and the character sums are each bounded before they start
    (InvalidParameters).
    """
    _check_q_n(q, n)  # before p0, whose range depends on n
    if not 0 <= p0 <= n - 1:
        raise InvalidParameters(f"p0 must lie in 0..{n - 1}")
    keys = isometry_classes(q, n, mode)
    sums = _CharacterSums(q, n, p0, len(keys))
    buckets: dict[tuple, list[LensKey]] = {}
    for key, phi in zip(keys, _phi_sums(sums, [key.exponents for key in keys])):
        buckets.setdefault(sums.moment_values(phi), []).append(key)
    shared = [members for members in buckets.values() if len(members) > 1]
    # the table is checked on the first class that gets a box count, or on
    # the first class when none does
    probe = (shared[0] if shared else keys)[0]
    if not shared:
        _check_phi_sums(sums, probe, probe.lattice())
    families = []
    for members in shared:
        groups: dict[tuple, list[tuple[LensKey, CongruenceLattice]]] = {}
        for key in members:
            L = key.lattice()
            if key is probe:
                _check_phi_sums(sums, key, L)
            groups.setdefault(_moment_fingerprint(L, p0), []).append((key, L))
        for fp, group in groups.items():
            if len(group) < 2:
                continue
            # p-isospectral for every p <= p0 exactly when F^0..F^p0 agree
            base = [f_rational(group[0][1], j) for j in range(p0 + 1)]
            for _, L in group[1:]:
                if not all(f_rational(L, j) == F for j, F in enumerate(base)):
                    raise InternalError("fingerprint bucket failed exact verification")
            families.append(
                IsospectralFamily(
                    q=q,
                    n=n,
                    p0=p0,
                    members=tuple(key for key, _ in group),
                    fingerprint=fingerprint_digest(fp),
                )
            )
    families.sort(key=lambda fam: fam.members)
    return families
