import pytest

from lenspec import lattice_from_lens
from lenspec.errors import InvalidParameters
from lenspec.oracle import oracle_weight_multiplicity
from lenspec.weights import _class_multiplicity, class_representative, invariant_dimensions, weight_classes
from support import member, monomial_counts


def test_multiplicity_examples():
    # (n, k, p, norm, zeros)
    assert _class_multiplicity(3, 0, 2, 2, 1) == 1
    assert _class_multiplicity(3, 0, 2, 0, 3) == 3
    assert _class_multiplicity(3, 1, 1, 0, 3) == 2
    # odd parity gap vanishes
    assert _class_multiplicity(3, 1, 1, 1, 2) == 0


def test_exterior_power_identity():
    # k = 0 multiplicities count subsets of the standard weights
    for n in (2, 3):
        for p in range(1, n + 1):
            ext = monomial_counts("ext", p, n)
            for norm, zeros in weight_classes(n, p):
                mu = class_representative(n, norm, zeros)
                assert _class_multiplicity(n, 0, p, norm, zeros) == ext[mu]


def test_symmetric_power_identity():
    # p = 1 multiplicities are differences of consecutive symmetric powers
    for n in (2, 3):
        for k in range(5):
            traceless = monomial_counts("sym", k + 1, n)
            if k >= 1:
                traceless.subtract(monomial_counts("sym", k - 1, n))
            for norm, zeros in weight_classes(n, k + 3):
                mu = class_representative(n, norm, zeros)
                assert _class_multiplicity(n, k, 1, norm, zeros) == traceless[mu]


# m_gamma(L, k, p), the paper's multiplicity, is the entry k - 1 of row p - 1
# of invariant_dimensions(L, order)


def test_invariant_dimensions_trivial_sphere():
    L = lattice_from_lens(1, (0, 0))
    rows = invariant_dimensions(L, 4)
    assert rows[0][1] == 9
    assert rows[1][0] == 6
    assert rows[0][:5] == [(k + 1) ** 2 for k in range(1, 6)]


def test_invariant_dimensions_validation():
    L = lattice_from_lens(1, (0, 0))
    with pytest.raises(InvalidParameters):
        invariant_dimensions(L, -1)
    assert len(invariant_dimensions(L, 0)) == 2


def test_invariant_dimension_examples():
    L3 = lattice_from_lens(1, (0, 0, 0))
    rows = invariant_dimensions(L3, 0)
    assert rows[1][0] == 15
    assert rows[2][0] == 20
    L = lattice_from_lens(4, (1, 1))
    assert invariant_dimensions(L, 0)[0][0] == 0


def test_invariant_dimension_is_lattice_weight_sum():
    # directly sum oracle multiplicities over lattice vectors (finite support)
    from itertools import product

    L = lattice_from_lens(3, (1, 2))
    rows = invariant_dimensions(L, 2)
    for p in (1, 2):
        want = []
        for k in range(3):
            reach = k + p
            total = 0
            for a in product(range(-reach, reach + 1), repeat=2):
                if sum(map(abs, a)) <= reach and member(L, a):
                    total += oracle_weight_multiplicity(k, p, a, 2)
            want.append(total)
        assert rows[p - 1] == want, p


def test_invariant_dimensions_walk_the_shells_once(monkeypatch):
    from lenspec import weights

    walks = []
    enumerate_shells = weights._enumerate_shells

    def counted(L, hi):
        walks.append(hi)
        return enumerate_shells(L, hi)

    monkeypatch.setattr(weights, "_enumerate_shells", counted)
    L = lattice_from_lens(7, (1, 2, 3))
    rows = invariant_dimensions(L, 6)
    assert walks == [6 + 3]
    assert [len(row) for row in rows] == [7, 7, 7]
