"""Brute-force references and hypothesis strategies shared by the tests."""

from itertools import product

from hypothesis import strategies as st

from lenspec import CongruenceLattice


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
