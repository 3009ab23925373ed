import pytest

from lenspec import lattice_from_lens
from lenspec.errors import DimensionMismatch, InvalidParameters
from lenspec.oracle import monomial_weight_count, oracle_weight_multiplicity, weyl_dimension
from lenspec.polyseries import binom
from lenspec.weights import (
    RepIndex,
    WeightClass,
    _class_multiplicity,
    invariant_dimensions,
    weight_multiplicity,
)
from support import member


def feasible_classes(n, max_norm):
    for norm in range(max_norm + 1):
        for zeros in range(n + 1):
            if norm == 0 and zeros != n:
                continue
            if norm > 0 and (zeros == n or norm < n - zeros):
                continue
            yield norm, zeros


def representative(n, norm, zeros):
    nonzeros = n - zeros
    if nonzeros == 0:
        return (0,) * n
    return (norm - (nonzeros - 1),) + (1,) * (nonzeros - 1) + (0,) * zeros


def class_size(n, norm, zeros):
    if norm == 0:
        return 1 if zeros == n else 0
    nonzeros = n - zeros
    if nonzeros == 0:
        return 0
    return binom(n, zeros) * 2**nonzeros * binom(norm - 1, nonzeros - 1)


def test_weight_class_validation():
    WeightClass(norm=0, zeros=3, n=3)
    with pytest.raises(InvalidParameters):
        WeightClass(norm=1, zeros=3, n=3)
    with pytest.raises(InvalidParameters):
        WeightClass(norm=0, zeros=2, n=3)
    with pytest.raises(InvalidParameters):
        WeightClass(norm=2, zeros=0, n=3)


def test_rep_index_validation():
    RepIndex(k=0, p=0, n=2)
    RepIndex(k=3, p=2, n=2)
    with pytest.raises(InvalidParameters):
        RepIndex(k=-1, p=1, n=2)
    with pytest.raises(InvalidParameters):
        RepIndex(k=0, p=3, n=2)


def test_multiplicity_examples():
    assert weight_multiplicity(RepIndex(0, 2, 3), WeightClass(2, 1, 3)) == 1
    assert weight_multiplicity(RepIndex(0, 2, 3), WeightClass(0, 3, 3)) == 3
    assert weight_multiplicity(RepIndex(1, 1, 3), WeightClass(0, 3, 3)) == 2
    # odd parity gap vanishes
    assert weight_multiplicity(RepIndex(1, 1, 3), WeightClass(1, 2, 3)) == 0


def test_multiplicity_rank_mismatch():
    with pytest.raises(DimensionMismatch):
        weight_multiplicity(RepIndex(0, 1, 3), WeightClass(1, 1, 2))


def test_multiplicity_requires_positive_p():
    with pytest.raises(InvalidParameters):
        weight_multiplicity(RepIndex(0, 0, 2), WeightClass(0, 2, 2))


def test_closed_form_matches_freudenthal_midscale():
    checked = 0
    for n in (2, 3):
        for p in range(1, n + 1):
            for k in range(5):
                for norm, zeros in feasible_classes(n, k + p + 2):
                    lhs = _class_multiplicity(n, k, p, norm, zeros)
                    rhs = oracle_weight_multiplicity(k, p, representative(n, norm, zeros), n)
                    assert lhs == rhs, (n, k, p, norm, zeros)
                    checked += 1
    assert checked > 300


def test_dimension_sums_midscale():
    for n in (2, 3):
        for p in range(1, n + 1):
            for k in range(5):
                total = sum(
                    class_size(n, norm, zeros) * _class_multiplicity(n, k, p, norm, zeros)
                    for norm, zeros in feasible_classes(n, k + p)
                )
                expected = weyl_dimension((k + 1,) + (1,) * (p - 1) + (0,) * (n - p), n)
                if p == n:
                    expected += weyl_dimension((k + 1,) + (1,) * (n - 2) + (-1,), n)
                assert total == expected, (n, k, p)


def test_exterior_power_identity():
    # k = 0 multiplicities count subsets of the standard weights
    for n in (2, 3):
        for p in range(1, n + 1):
            for norm, zeros in feasible_classes(n, p):
                mu = representative(n, norm, zeros)
                assert _class_multiplicity(n, 0, p, norm, zeros) == monomial_weight_count(
                    "ext", p, mu, n
                )


def test_symmetric_power_identity():
    # p = 1 multiplicities are differences of consecutive symmetric powers
    for n in (2, 3):
        for k in range(5):
            for norm, zeros in feasible_classes(n, k + 3):
                mu = representative(n, norm, zeros)
                expected = monomial_weight_count("sym", k + 1, mu, n)
                if k >= 1:
                    expected -= monomial_weight_count("sym", k - 1, mu, n)
                assert _class_multiplicity(n, k, 1, norm, zeros) == expected


# m_gamma(L, k, p), the paper's multiplicity, is the entry k - 1 of row p - 1
# of invariant_dimensions(L, order)


def test_m_gamma_trivial_sphere():
    L = lattice_from_lens(1, (0, 0))
    rows = invariant_dimensions(L, 4)
    assert rows[0][1] == 9
    assert rows[1][0] == 6
    assert rows[0][:5] == [(k + 1) ** 2 for k in range(1, 6)]


def test_m_gamma_validation():
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
