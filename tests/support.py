"""Brute-force references and hypothesis strategies shared by the tests."""

import math
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product

from hypothesis import strategies as st

from lenspec import CongruenceLattice, theta_ell_rational
from lenspec.errors import DimensionMismatch, InvalidParameters, NotDominant
from lenspec.oracle import _dominant_multiplicities, dominant_representative, is_dominant


def member(L, a) -> bool:
    """Whether the vector a lies in the lattice L: every congruence is tested
    directly."""
    a = tuple(a)
    if len(a) != L.n:
        raise DimensionMismatch(f"vector has length {len(a)}, expected {L.n}")
    return all(sum(x * c for x, c in zip(a, s)) % q == 0 for q, s in L.congruences)


def brute_group(n, generators):
    """Every element of the group, as rotation exponents over the common
    exponent, by enumerating all products of generator powers."""
    big = math.lcm(*(q for q, _ in generators))
    return {
        tuple(sum(m * s[j] * (big // q) for m, (q, s) in zip(powers, generators)) % big for j in range(n))
        for powers in product(*(range(q) for q, _ in generators))
    }


def acts_freely(L) -> bool:
    """True when no nontrivial element of L's group fixes a point of the
    sphere: every element that moves some coordinate plane moves all of
    them."""
    return all(all(rot) for rot in brute_group(L.n, L.congruences) if any(rot))


def canonical_key(q: int, s) -> tuple[int, ...]:
    """The key of the class of (q; s) by brute force: the least sorted tuple
    of t * s_i mod q, each folded to its sign-orbit representative in
    [0, q // 2], over every unit t, sharing no code with the listing."""
    s = tuple(int(x) for x in s)
    if math.gcd(q, *s) != 1:
        raise InvalidParameters(f"gcd(q, s_1, ..., s_n) must be 1, got ({q}; {s})")
    best = min(sorted(min(t * x % q, -t * x % q) for x in s) for t in range(1, q + 1) if math.gcd(t, q) == 1)
    return tuple(best)


def weight_table(lam, n) -> dict:
    """Every weight of the irreducible so(2n)-module of highest weight lam,
    with its multiplicity: the oracle's Freudenthal table on dominant weights
    spread over each Weyl orbit, the signed permutations of a dominant mu
    whose dominant representative is mu."""
    lam = tuple(lam)
    if not is_dominant(lam, n):
        raise NotDominant(f"{lam} is not dominant for rank {n}")
    table = {}
    for mu, mult in _dominant_multiplicities(lam, n).items():
        for perm in set(permutations(mu)):
            for signs in product((1, -1), repeat=n):
                w = tuple(s * x for s, x in zip(signs, perm))
                if dominant_representative(w) == mu:
                    table[w] = mult
    return table


def monomial_counts(kind, degree, n) -> Counter:
    """The weights of the degree-th exterior ("ext") or symmetric ("sym")
    power of the standard so(2n)-module: how many subsets or multisets of
    degree of its weights +-e_i sum to each."""
    standard = [tuple(sign * (i == j) for j in range(n)) for i in range(n) for sign in (1, -1)]
    chooser = combinations if kind == "ext" else combinations_with_replacement
    return Counter(tuple(sum(e[j] for e in combo) for j in range(n)) for combo in chooser(standard, degree))


def norm_star_isospectral(L1, L2) -> bool:
    """True iff every refined count series theta^(ell) agrees; equivalent to
    p-isospectrality for all p."""
    return all(theta_ell_rational(L1, ell) == theta_ell_rational(L2, ell) for ell in range(L1.n + 1))


def brute_box(congruences, n, radius):
    """Filter every vector of the box by every congruence, sharing no code
    with the kernel."""
    out = [[0] * (n + 1) for _ in range(n * radius + 1)]
    for a in product(range(-radius, radius + 1), repeat=n):
        if all(sum(x * c for x, c in zip(a, s)) % q == 0 for q, s in congruences):
            out[sum(abs(x) for x in a)][a.count(0)] += 1
    return [tuple(row) for row in out]


@st.composite
def small_lattices(draw):
    """Cyclic groups and groups with a second generator, of rank n <= 4 and
    exponent <= 12."""
    n = draw(st.integers(2, 4))
    q = draw(st.integers(2, 12))
    orders = [q] + draw(st.lists(st.sampled_from([d for d in range(2, q + 1) if q % d == 0]), max_size=1))
    generators = [
        (order, tuple(draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n))))
        for order in orders
    ]
    return CongruenceLattice(n, generators)
