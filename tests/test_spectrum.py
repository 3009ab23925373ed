import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenspec import (
    eigenvalue,
    f_rational,
    lattice_from_lens,
    spectrum_table,
)
from lenspec.errors import InvalidParameters
from lenspec.weights import invariant_dimensions
from support import small_lattices


def test_eigenvalue_formula():
    assert eigenvalue(1, 0, 3) == 5
    # (1+1)(1+2*2-2-1): the first eigenvalue of the upper family on the 3-sphere
    assert eigenvalue(1, 1, 2) == 4


def test_eigenvalue_validation():
    with pytest.raises(InvalidParameters):
        eigenvalue(0, 0, 2)
    with pytest.raises(InvalidParameters):
        eigenvalue(1, 2, 2)
    with pytest.raises(InvalidParameters):
        eigenvalue(2, -1, 2)


def test_families_p_minus_1_and_p_share_no_eigenvalue():
    # with a = k+p-1, b = k'+p and m = n-p >= 1 the eigenvalues are a(a+2m)
    # and b(b+2m-2); they agree iff (a-b+1)(a+b+2m-1) = 2m-1, impossible since
    # a+b+2m-1 > 2m-1 > 0, so every table entry is one (k, family) coefficient
    for n in range(2, 9):
        for p in range(1, n):
            low = {eigenvalue(k, p - 1, n) for k in range(1, 301)}
            assert low.isdisjoint(eigenvalue(k, p, n) for k in range(1, 301)), (n, p)


def test_no_zero_eigenvalue_on_middle_forms():
    for L in (lattice_from_lens(1, (0, 0)), lattice_from_lens(5, (1, 2, 3))):
        for p in range(1, L.n):
            table = spectrum_table(L, p, 6)
            assert all(e.eigenvalue > 0 for e in table)


def test_one_form_low_family_is_standard_module():
    first = spectrum_table(lattice_from_lens(1, (0, 0)), 1, 3)[0]
    assert first == (3, 4, 1, 0)  # the k = 1 member of family 0


def test_entries_strictly_increasing_and_positive():
    for L in (lattice_from_lens(4, (1, 1)), lattice_from_lens(11, (1, 2, 3))):
        for p in range(L.n):
            table = spectrum_table(L, p, 10)
            eigs = [e.eigenvalue for e in table]
            assert eigs == sorted(set(eigs))
            assert all(e.multiplicity > 0 for e in table)


def test_generating_function_consistency():
    # coefficient k of the encoding series equals the (k+1)-st upper-family multiplicity
    L = lattice_from_lens(7, (1, 2))
    for p in range(L.n):
        coeffs = f_rational(L, p).expand(9)
        by_source = {(e.k, e.family): e.multiplicity for e in spectrum_table(L, p, 10)}
        for k in range(10):
            assert by_source.get((k + 1, p), 0) == coeffs[k]


def test_cross_p_consistency():
    # the family-p coefficients are shared between the p and p+1 tables
    L = lattice_from_lens(8, (1, 3, 5))
    for p in range(L.n - 1):
        c1 = {(e.k, e.multiplicity) for e in spectrum_table(L, p, 8) if e.family == p and e.k >= 1}
        c2 = {(e.k, e.multiplicity) for e in spectrum_table(L, p + 1, 8) if e.family == p}
        assert c1 == c2


def test_multiplicities_match_invariant_dimensions():
    L = lattice_from_lens(4, (1, 2))
    rows = invariant_dimensions(L, 5)
    for e in spectrum_table(L, 1, 6):
        # family p - 1 reads row p - 1 of the invariant dimensions, family p row p
        assert e.multiplicity == rows[e.family][e.k - 1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(L=small_lattices(), k_max=st.integers(1, 20))
def test_table_matches_certification_route(L, k_max):
    rows = invariant_dimensions(L, k_max - 1)
    for p in range(L.n):
        table = spectrum_table(L, p, k_max)
        eigs = [e.eigenvalue for e in table]
        assert all(a < b for a, b in zip(eigs, eigs[1:]))
        by_source = {(e.k, e.family): e.multiplicity for e in table}
        assert len(by_source) == len(table)
        for k in range(1, k_max + 1):
            assert by_source.pop((k, p - 1), 0) == (rows[p - 1][k - 1] if p else 0), (L.label(), p, k)
            assert by_source.pop((k, p), 0) == rows[p][k - 1], (L.label(), p, k)
        assert by_source == ({(0, 0): 1} if p == 0 else {})


def test_p_range_validation():
    L = lattice_from_lens(5, (1, 1))
    with pytest.raises(InvalidParameters):
        spectrum_table(L, 2, 5)
    with pytest.raises(InvalidParameters):
        spectrum_table(L, -1, 5)
