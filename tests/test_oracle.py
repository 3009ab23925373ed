import time
from itertools import permutations, product

import pytest

import lenspec.cli
import lenspec.verify
from lenspec import errors
from lenspec.errors import _STEP_WORDS, InvalidParameters, NotDominant
from lenspec.oracle import (
    _dominant_below,
    dominant_representative,
    family_highest_weights,
    freudenthal_weights,
    monomial_weight_count,
    oracle_weight_multiplicity,
    weyl_dimension,
)
from lenspec.verify import check_verify_work


def test_standard_representation_rank2():
    table = freudenthal_weights((1, 0), 2)
    assert sum(table.values()) == 4
    for mu in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert table.get(mu, 0) == 1


def test_adjoint_rank3():
    table = freudenthal_weights((1, 1, 0), 3)
    assert sum(table.values()) == 15
    assert table.get((0, 0, 0), 0) == 3
    assert table.get((1, 0, 1), 0) == 1


def test_traceless_symmetric_square_rank3():
    table = freudenthal_weights((2, 0, 0), 3)
    assert sum(table.values()) == 20
    assert table.get((0, 0, 0), 0) == 2


def test_not_dominant_raises():
    with pytest.raises(NotDominant):
        freudenthal_weights((0, 1), 2)
    with pytest.raises(NotDominant):
        weyl_dimension((1, 2, 0), 3)
    with pytest.raises(NotDominant):
        weyl_dimension((1, 1, -2), 3)


def test_weyl_dimensions():
    assert weyl_dimension((1, 0, 0), 3) == 6
    assert weyl_dimension((1, 1, 0), 3) == 15
    assert weyl_dimension((1, 1, 1), 3) == 10
    assert weyl_dimension((1, 1, -1), 3) == 10
    assert family_highest_weights(2, 1, 3) == ((3, 0, 0),)
    assert family_highest_weights(0, 3, 3) == ((1, 1, 1), (1, 1, -1))


def test_weight_tables_sum_to_weyl_dimension():
    for n in (2, 3):
        for lam in [(2, 1) + (0,) * (n - 2), (3, 1) + (1,) * (n - 2), (2,) + (1,) * (n - 1)]:
            assert sum(freudenthal_weights(lam, n).values()) == weyl_dimension(lam, n)


def test_weyl_symmetry_of_tables():
    table = freudenthal_weights((2, 1, 0), 3)
    for mu, mult in table.items():
        for perm in permutations(mu):
            assert table[perm] == mult
        # even sign flips
        flipped = (-mu[0], -mu[1], mu[2])
        assert table[flipped] == mult


def test_dominant_representative():
    assert dominant_representative((0, -2, 1)) == (2, 1, 0)
    assert dominant_representative((-1, -1, -1)) == (1, 1, -1)
    assert dominant_representative((-3, 2)) == (3, -2)


def test_monomial_counts_sym():
    assert monomial_weight_count("sym", 2, (0, 0, 0), 3) == 3
    assert monomial_weight_count("sym", 0, (0, 0), 2) == 1
    # degree 3 reaching (1,0): {+e1,+e2,-e2} and {+e1,+e1,-e1}
    assert monomial_weight_count("sym", 3, (1, 0), 2) == 2


def test_monomial_counts_ext():
    assert monomial_weight_count("ext", 2, (1, 1, 0), 3) == 1
    assert monomial_weight_count("ext", 2, (2, 0, 0), 3) == 0
    # each factor raises the norm by at most one
    for p in range(4):
        assert monomial_weight_count("ext", p, (p + 1, 0, 0), 3) == 0


def test_monomial_kind_validation():
    with pytest.raises(InvalidParameters):
        monomial_weight_count("bad", 2, (0, 0), 2)


def test_oracle_multiplicity_examples():
    assert oracle_weight_multiplicity(0, 2, (0, 0, 0), 3) == 3
    assert oracle_weight_multiplicity(1, 1, (0, 0, 0), 3) == 2
    assert oracle_weight_multiplicity(0, 3, (1, 1, 1), 3) == 1
    assert oracle_weight_multiplicity(0, 3, (1, 1, -1), 3) == 1


def test_oracle_vs_exterior_powers():
    # the k = 0 family is the p-th exterior power of the standard module
    for n in (2, 3):
        for p in range(1, n + 1):
            for mu in product(range(-2, 3), repeat=n):
                assert oracle_weight_multiplicity(0, p, mu, n) == monomial_weight_count(
                    "ext", p, mu, n
                ), (n, p, mu)


def test_oracle_vs_symmetric_powers():
    # the p = 1 family is the traceless part of the (k+1)-st symmetric power
    for n in (2, 3):
        for k in range(4):
            for mu in product(range(-3, 4), repeat=n):
                expected = monomial_weight_count("sym", k + 1, mu, n)
                if k >= 1:
                    expected -= monomial_weight_count("sym", k - 1, mu, n)
                assert oracle_weight_multiplicity(k, 1, mu, n) == expected, (n, k, mu)


def test_combined_table_at_top_degree_full_sign_symmetry():
    # at p = n the two mirror components together are invariant under all sign flips
    n = 3
    for k in (0, 1):
        for mu in product(range(-2, 3), repeat=n):
            for signs in product((1, -1), repeat=n):
                flipped = tuple(s * x for s, x in zip(signs, mu))
                assert oracle_weight_multiplicity(k, n, mu, n) == oracle_weight_multiplicity(
                    k, n, flipped, n
                )


@pytest.mark.parametrize("n, kmax", [(2, 0), (2, 5), (3, 6), (4, 3), (5, 2)])
def test_verify_work_is_the_freudenthal_table_steps(monkeypatch, n, kmax):
    # the count, exactly at the limit and one word step above, against the
    # dominant weights the Freudenthal tables scan times their root strings,
    # each step moving one word
    steps = sum(
        sum(1 for _ in _dominant_below(m, k + p)) * m * (m - 1) * (k + p)
        for m in range(2, n + 1)
        for p in range(1, m + 1)
        for k in range(kmax + 1)
    )
    work = steps * (_STEP_WORDS + 1)
    monkeypatch.setattr(errors, "WORK_LIMIT", work)
    assert check_verify_work(n, kmax) == work
    monkeypatch.setattr(errors, "WORK_LIMIT", work - 1)
    with pytest.raises(InvalidParameters):
        check_verify_work(n, kmax)
    # the CLI refuses it before the first check runs
    monkeypatch.setattr(lenspec.verify, "random", None)
    assert lenspec.cli.main(["verify", "--n", str(n), "--kmax", str(kmax)]) == 2


def test_verify_work_bound_admits_the_documented_scales():
    for n, kmax in ((3, 6), (2, 3), (7, 6), (3, 22), (9, 2)):
        check_verify_work(n, kmax)
    for n, kmax in ((3, 23), (8, 6), (10, 2), (3, 1000), (1000, 6), (10**12, 10**12)):
        start = time.perf_counter()
        with pytest.raises(InvalidParameters):
            check_verify_work(n, kmax)
        assert time.perf_counter() - start < 1.0, (n, kmax)
