"""Isometry classification and isospectrality search for lens parameters.

Two lens parameter vectors give isometric quotients exactly when one is
carried to the other by a unit multiplier mod q together with coordinate
permutations and sign flips.  A class's key is the least sorted sign-folded
exponent tuple over that whole action, so key equality decides isometry.
:func:`isometry_classes` lists the keys themselves, the tuples that no unit
lowers, head by head in both modes: the zero entries, then the least gcd of
an entry with q, then entries whose gcd with q is no smaller.  It keys no
parameter vector, and its candidate count is bounded before it starts.
:func:`search` buckets the classes by their moment numerators mod a prime
at one point, from the box-count polynomials there, which character sums
give with no lattice in one walk over the sorted keys that shares the
products of their common leading entries, and from the moment weights,
built once.  It builds exact moment numerators, with the same weights, only
for classes that share a bucket: a search with no shared bucket runs no box
count, and the walk is checked against the box count by the tests, not at
run time.  :func:`compare_spaces` says for every p up to p0 whether two
spaces are p'-isospectral for all p' <= p, by the moment criterion alone as
the search does, and where their series (F^p for ``direct``) first differ;
it admits its moment series and both box counts before either count, and
``direct`` admits its F^p at the first row that differs.  Every test
compares exact series, never truncations.
"""

import math
import sys
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator
from itertools import combinations_with_replacement, islice
from operator import mul

from ._kernels import admit_box, box_work
from .errors import _STEP_WORDS, WORK_LIMIT, DimensionMismatch, InvalidParameters, admit
from .genfun import _moment_weights, _phi_sum, check_series_work, f_rational
from .lattice import CongruenceLattice, lattice_from_lens
from .polyseries import RationalSeries


def _folded(q: int, s: tuple[int, ...], t: int) -> tuple[int, ...]:
    # t * s with every entry folded to its sign-orbit representative in
    # [0, q // 2], sorted
    return tuple(sorted([min(v, q - v) for v in [t * x % q for x in s]]))


def compare_spaces(
    L1: CongruenceLattice, L2: CongruenceLattice, p0: int | None = None, method: str = "range"
) -> list[tuple]:
    """Up to which p the quotients are p-isospectral, and where they differ.

    One pair (isospectral_upto_p, detail) per p = 0..p0 (default n - 1).
    The moment series decide every row in both methods: the quotients are
    p'-isospectral for every p' <= p exactly when those of orders <= p agree,
    as F^0..F^p do (a_laurent(P, ell, n) has degree P - 1 in ell and the
    unit +-z^(-P) (1 - z^2)^(P - 1) as its coefficient of C(ell, P - 1)).
    While the spaces agree, detail is the digest of the first space's moment
    numerators compared so far; afterwards it is the ``first_difference`` of
    the two series of order p, None when those agree: the moment series
    (``range``) or F^p (``direct``, which builds moment series only up to the
    first differing row).  Each order's weights are built once per exponent.
    Raises DimensionMismatch for spaces of different rank; InvalidParameters
    for p0 outside 0..n-1 or, before either box count, when either box count
    or the p0 + 1 moment series are refused, and for ``direct`` when
    F^p..F^p0 are refused at the first differing row p, before either is
    built (:func:`lenspec.genfun.check_series_work`, in the larger exponent).
    """
    if L1.n != L2.n:
        raise DimensionMismatch(f"rank mismatch: {L1.n} vs {L2.n}")
    if method not in ("range", "direct"):
        raise InvalidParameters(f"method must be 'range' or 'direct', got {method!r}")
    n = L1.n
    if p0 is None:
        p0 = n - 1
    if not 0 <= p0 <= n - 1:
        raise InvalidParameters(f"p0 must lie in 0..{n - 1}")
    direct, exponent = method == "direct", max(L1.exponent, L2.exponent)
    check_series_work(n, exponent, moments=p0 + 1)
    for L in (L1, L2):
        admit_box(L.congruences, n)
    weights = {q: _moment_weights(q, n, p0) for q in {L1.exponent, L2.exponent}}
    rows, same, fingerprint = [], True, ()
    for p in range(p0 + 1):
        if same or not direct:
            w = {q: next(sets) for q, sets in weights.items()}
            a, b = (RationalSeries(_phi_sum(L.phi_polynomials(), w[L.exponent]), ((L.exponent, n),)) for L in (L1, L2))
            same = same and a == b
            if direct and not same:
                # F^p..F^p0 of both spaces, built from the first differing row on
                check_series_work(n, exponent, range(p, p0 + 1))
        if same:
            fingerprint += numerator_fingerprint([a.numerator])
        elif direct:
            a, b = f_rational(L1, p), f_rational(L2, p)
        rows.append((same, fingerprint_digest(fingerprint) if same else a.first_difference(b)))
    return rows


# -- search ---------------------------------------------------------------------


IsospectralFamily = namedtuple("IsospectralFamily", ("q", "n", "p0", "members", "fingerprint"))
IsospectralFamily.__doc__ = """A maximal set of >= 2 isometry classes sharing all spectra up to p0.

``members`` is the sorted tuple of their keys, the exponent tuples s of
:func:`isometry_classes` (``lens_label(q, s)`` is the text of one),
``fingerprint`` the digest of their moment numerators.
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


def isometry_classes(q: int, n: int, mode: str = "manifolds") -> list[tuple[int, ...]]:
    """All isometry classes of lens parameters with modulus q and rank n, sorted.

    ``manifolds`` lists the free actions only (every s_i a unit mod q);
    ``orbifolds`` lists every valid parameter vector, the manifold ones
    included.  Each class is listed once, by its key, the sorted tuple over
    [0, q // 2] that no unit multiplier folds lower; no other vector is
    visited.  A unit carries x to every residue with the same gcd with q, so
    a key (q >= 2) is its zero entries, then its head g, the least gcd(x, q)
    over its nonzero entries and so a divisor of q, then entries of the pool
    of g: the x in [g, q // 2] with gcd(x, q) >= g.  A manifold pool holds
    units only, so 1 is the one head and no key has a zero.  The candidates
    of a head are the sorted (n - 1)-tuples over its pool and 0 (orbifolds
    only), with g put after the zeros; one is kept when gcd(q, *c) = 1 and
    no unit folds it lower.  A unit can fold it lower only if it carries
    some entry x with gcd(x, q) = g to +-g, so only those units are tried
    (:func:`_reaching_units`, at most n of them for a manifold), not every
    unit in [2, q // 2].

    A head whose pool holds m values, 0 included, has C(m + n - 2, n - 1)
    candidates of n entries, each gcd-checked and folded by up to 2n units:
    2n + 1 steps of one word an entry, in either mode.  That work is
    admitted before any candidate is built, and the scan of [0, q // 2], a
    gcd step a value, before any value is read (InvalidParameters); no more
    values are read than the candidates' count can admit.
    """
    _check_q_n(q, n)
    if mode not in ("manifolds", "orbifolds"):
        raise InvalidParameters(f"mode must be 'manifolds' or 'orbifolds', got {mode!r}")
    what = f"listing the classes of q={q}, n={n} ({mode})"
    # the scan of [0, q // 2] takes a gcd step a value in either mode
    admit((q // 2 + 1) * (_STEP_WORDS + 1), what)
    step = (2 * n + 1) * (_STEP_WORDS + 1)
    values = (x for x in range(q // 2 + 1) if mode == "orbifolds" or math.gcd(x, q) == 1)
    # every value read is in the pool of the head 1, and C(m + n - 2, n - 1)
    # >= m, so no more are read than the limit can admit
    ranked = sorted((math.gcd(x, q), x) for x in islice(values, WORK_LIMIT // (n * step) + 1))
    # the heads, the divisors g of q read (0 has gcd q), each with the start
    # of its pool in ranked.  One candidate at least is counted: q = 1 has no
    # head and the one key (0, ..., 0), and a read that stops at 0 is over the
    # limit with one
    heads = {g: bisect_left(ranked, (g,)) for d, g in ranked if d == g}
    candidates = max(1, sum(math.comb(len(ranked) - i + n - 2, n - 1) for i in heads.values()))
    admit(n * candidates * step, what)
    keys = [(0,) * n] if q == 1 else []
    for g, i in heads.items():
        reach = {x: _reaching_units(q, x) for d, x in ranked[i:] if d == g}
        for c in combinations_with_replacement(sorted(x for _, x in ranked[i:]), n - 1):
            if math.gcd(q, g, *c) != 1:
                continue
            z = c.count(0)
            c = (*c[:z], g, *c[z:])
            trials = {t for x in c if x in reach for t in reach[x]}
            if all(_folded(q, c, t) >= c for t in trials):
                keys.append(c)
    return sorted(keys)


def numerator_fingerprint(numerators) -> tuple:
    """Each numerator polynomial as sorted (exponent, coefficient) pairs,
    which decide equality between series on one denominator."""
    return tuple(tuple(sorted(num.coeffs.items())) for num in numerators)


def _moment_fingerprint(L: CongruenceLattice, weight_sets) -> tuple:
    # the moment numerators sum_m phi_m W_m of L, one per set of weights W_m;
    # all classes with the same (q, n) share the denominator (1 - z^q)^n, so
    # the tuples compare exactly
    return numerator_fingerprint(_phi_sum(L.phi_polynomials(), weights) for weights in weight_sets)


def fingerprint_digest(data) -> str:
    """The first 16 hex digits of the sha256 of ``repr(data)``."""
    return _builtin_sha256()(repr(data).encode()).hexdigest()[:16]


def _builtin_sha256():
    # the interpreter's builtin sha256 (_sha2 from Python 3.12, _sha256 before
    # it) loads in well under a millisecond; hashlib loads OpenSSL's _hashlib,
    # about ten times as long, and is only the fallback
    try:
        return __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:
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
    """Box-count polynomials of the lens classes of one (q, n), evaluated mod a
    61-bit prime P = 1 (mod q) at one fixed point z (:data:`_POINT`).

    A class (q; s) has box-count polynomial phi(z, w) = sum_m phi_m(z) w^m,
    by Ikeda's finite Fourier form (1/q) sum_t prod_j (w + H(t s_j)) with
    H(u) = sum_{r=1}^{q-1} omega^(u r) (z^r + z^(q-r)), omega a primitive
    q-th root of unity mod P; H(-u) = H(u), so t and q - t pair up.  Every
    series of the chain is sum_m phi_m W_m over a known denominator, W_m
    depending on (q, n) and the series alone, so its numerator at z is
    sum_m phi_m(z) W_m(z), with W_m(z) from :meth:`at`; this route and the
    box count differ only in how phi_m is obtained.  ``table`` holds w + H(u)
    at z packed as one int per u, built once, and :func:`_phi_sums` walks the
    classes over it.  Raises InvalidParameters, before it is built, when the
    work limit refuses the sums over ``classes`` classes.
    """

    def __init__(self, q: int, n: int, classes: int):
        # field width of the packed polynomials in w: a product of n factors
        # w + H, summed over at most q values of t, fits in it
        width = 62 * n + q.bit_length() + 1
        # per class and t the product of j factors, j fields, takes one more
        # factor: its 64-bit word products plus the overhead of a step, the
        # unit of the box counts these sums stand in for; shared prefixes only
        # save some of these products
        words = sum(-(-j * width // 64) * -(-width // 64) + _STEP_WORDS for j in range(1, n))
        admit(classes * (q // 2 + 1) * words, f"the character sums of {classes} classes of q={q}, n={n}")
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

    def at(self, poly) -> int:
        """poly(z) mod P, for any Laurent polynomial."""
        z, P = self.z, self.P
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


def search(q: int, n: int, p0: int, mode: str = "manifolds") -> list[IsospectralFamily]:
    """Group the isometry classes with modulus q into families that are
    p-isospectral for all p <= p0; families of size >= 2 are returned.

    Classes are first bucketed by their moment numerators evaluated mod a
    prime at one point: the phi_m(z) of every class by a character sum
    (:class:`_CharacterSums`), in one walk over the sorted keys that shares
    the products of common leading entries (:func:`_phi_sums`) and costs no
    box count, and the moment weights W_m of orders 0..p0, built once here,
    at z.  Equal series give equal values, so no family is split.  Only
    members of a bucket of two or more get a lattice, and their exact moment
    numerators, taken with the same weights (:func:`_moment_fingerprint`),
    decide each family: the quotients are p-isospectral for every p <= p0
    exactly when their moment series of orders 0..p0 agree.  The result
    rests on that exact criterion, not on the values; a search with no
    shared bucket runs no box count.  The tests certify the walk's phi_m(z)
    against the box count.  Each stage that runs is admitted before it
    starts, in this order: the class listing, the moment series, the
    character sums, and the sum of the bucket members' box counts
    (InvalidParameters).
    """
    _check_q_n(q, n)  # before p0, whose range depends on n
    if not 0 <= p0 <= n - 1:
        raise InvalidParameters(f"p0 must lie in 0..{n - 1}")
    keys = isometry_classes(q, n, mode)
    check_series_work(n, q, moments=p0 + 1)
    sums = _CharacterSums(q, n, len(keys))
    weight_sets = list(_moment_weights(q, n, p0))
    weights = [[sums.at(w) for w in weight_set] for weight_set in weight_sets]
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for s, phi in zip(keys, _phi_sums(sums, keys)):
        buckets.setdefault(tuple(sum(map(mul, row, phi)) % sums.P for row in weights), []).append(s)
    shared = [s for members in buckets.values() if len(members) > 1 for s in members]
    admit(
        sum(box_work(((q, s),), n) for s in shared),
        f"the box counts of {len(shared)} classes of q={q}, n={n}",
    )
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for s in shared:
        groups.setdefault(_moment_fingerprint(lattice_from_lens(q, s), weight_sets), []).append(s)
    families = [
        IsospectralFamily(q=q, n=n, p0=p0, members=tuple(group), fingerprint=fingerprint_digest(fp))
        for fp, group in groups.items()
        if len(group) > 1
    ]
    families.sort(key=lambda fam: fam.members)
    return families
