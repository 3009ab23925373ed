import math
import random

import pytest

from lenspec import LaurentPolynomial, RationalSeries, binom
from lenspec import errors
from lenspec.errors import _STEP_WORDS, InvalidParameters, NegativeOrderTerm
from lenspec.polyseries import one_minus_z


def test_binom_standard_value():
    assert binom(5, 2) == 10


def test_binom_out_of_range_is_zero():
    assert binom(1, 3) == 0
    assert binom(4, -1) == 0
    assert binom(-1, 0) == 0
    assert binom(-3, -3) == 0


def test_binom_matches_factorials():
    for b in range(31):
        for a in range(b + 1):
            assert binom(b, a) == math.factorial(b) // (math.factorial(a) * math.factorial(b - a))


def poly(d):
    return LaurentPolynomial(d)


def test_laurent_product():
    # (z^-1 + 1)(1 - z) = z^-1 - z
    left = poly({-1: 1, 0: 1}) * poly({0: 1, 1: -1})
    assert left == poly({-1: 1, 1: -1})


def test_laurent_shift():
    assert poly({0: 1, 1: 1}).shift(-2) == poly({-2: 1, -1: 1})


def test_laurent_add_identity():
    p = poly({-2: 3, 5: -1})
    assert p + LaurentPolynomial() == p
    assert p + 0 == p


def test_neither_class_hashes():
    # both define __eq__ and no __hash__, so Python leaves them unhashable
    with pytest.raises(TypeError):
        hash(RationalSeries(1))
    with pytest.raises(TypeError):
        hash(LaurentPolynomial())


def test_laurent_int_coercion():
    p = poly({0: 1, 1: 1})
    assert p * 2 == poly({0: 2, 1: 2})
    assert one_minus_z(2, 2) == poly({0: 1, 2: -2, 4: 1})


def test_operands_outside_each_ring_are_refused():
    # a polynomial takes ints and polynomials, a series only series: any
    # other operand raises TypeError under + and * and compares unequal
    p = poly({0: 1, 1: 1})
    with pytest.raises(TypeError):
        p + "z"
    with pytest.raises(TypeError):
        p * "z"
    assert (p == "z") is False
    with pytest.raises(TypeError):
        RationalSeries(1) + 1
    assert (RationalSeries(3) == 3) is False


def test_one_minus_z_is_the_product_of_its_factors():
    for a in range(1, 6):
        product = poly({0: 1})
        for b in range(13):
            assert one_minus_z(a, b) == product, (a, b)
            product = product * poly({0: 1, a: -1})


def test_laurent_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(300):
        f, g, h = (
            poly({rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(4)})
            for _ in range(3)
        )
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_expand_binomial_series():
    r = RationalSeries(poly({0: 1}), ((1, 3),))
    assert r.expand(3) == [1, 3, 6, 10]


def test_expand_square_series():
    # (1+z)/(1-z)^3 has coefficient (k+1)^2: sum of consecutive triangular binomials
    r = RationalSeries(poly({0: 1, 1: 1}), ((1, 3),))
    assert r.expand(6) == [(k + 1) ** 2 for k in range(7)]


def test_expand_cancelled_negative_exponent():
    # z^-1 (1+z) - z^-1 collapses to the constant 1 before expansion
    num = poly({-1: 1}) * poly({0: 1, 1: 1}) + poly({-1: -1})
    assert num == poly({0: 1})
    assert RationalSeries(num).expand(4) == [1, 0, 0, 0, 0]


def test_expand_rejects_negative_order():
    with pytest.raises(NegativeOrderTerm):
        RationalSeries(poly({-1: 1}), ((1, 2),)).expand(3)


def test_equal_non_reduced_forms():
    # (1-z^2) / (1-z)(1+z): the denominator product is exactly (1-z^2)
    r1 = RationalSeries(poly({0: 1, 2: -1}), ((2, 1),))
    assert r1 == RationalSeries(poly({0: 1}))


def test_equal_distinguishes_series():
    assert RationalSeries(poly({0: 1}), ((1, 1),)) != RationalSeries(
        poly({0: 1}), ((2, 1),)
    )


def test_equal_implies_expansions_agree():
    rng = random.Random(77)
    for _ in range(50):
        num = poly({rng.randint(0, 5): rng.randint(-6, 6) for _ in range(3)})
        fac = tuple((rng.randint(1, 4), rng.randint(1, 2)) for _ in range(2))
        r1 = RationalSeries(num, fac)
        a = rng.randint(1, 4)
        r2 = RationalSeries(num * one_minus_z(a), fac + ((a, 1),))
        assert r1 == r2
        assert r1.expand(50) == r2.expand(50)
        assert r1.first_difference(r2) is None
        _check_difference_at(r1, r2, rng.randint(0, 30), rng.choice((-2, -1, 1, 2)))
    # a late difference, on denominators of different factors and degrees
    r1 = RationalSeries(poly({0: 1, 3: -2}), ((1, 2), (3, 1)))
    _check_difference_at(r1, RationalSeries(r1.numerator * one_minus_z(7, 2), r1.denominator + ((7, 2),)), 1000, 5)


def _check_difference_at(r1, r2, e, c):
    # r2 equals r1; adding c z^e to its numerator changes the expansion first
    # at z^e
    r3 = RationalSeries(r2.numerator + LaurentPolynomial.term(c, e), r2.denominator)
    k, x, y = r1.first_difference(r3)
    e1, e3 = r1.expand(k), r3.expand(k)
    assert k == e and e1[:k] == e3[:k] and (e1[k], e3[k]) == (x, y)


def _no_product(self, other):
    raise AssertionError("a series on the common denominator was multiplied")


def test_comparison_on_one_denominator_takes_no_product(monkeypatch):
    # series on the same denominator are compared by their numerators as
    # they are; the answers are those of the expansions
    rng = random.Random(21)
    cases = []
    for _ in range(40):
        den = tuple((rng.randint(1, 4), rng.randint(1, 2)) for _ in range(rng.randint(0, 2)))
        n1 = poly({rng.randint(0, 12): rng.randint(-3, 3) for _ in range(4)})
        n2 = n1 if rng.random() < 0.3 else n1 + LaurentPolynomial.term(rng.choice((-1, 1)), rng.randint(0, 12))
        cases.append((RationalSeries(n1, den), RationalSeries(n2, den)))
    monkeypatch.setattr(LaurentPolynomial, "__mul__", _no_product)
    for r1, r2 in cases:
        e1, e2 = r1.expand(30), r2.expand(30)
        diff = r1.first_difference(r2)
        assert (r1 == r2) == (diff is None) == (e1 == e2)
        if diff is not None:
            k, a, b = diff
            assert e1[:k] == e2[:k] and (e1[k], e2[k]) == (a, b)


def test_first_difference_takes_the_least_exponent_in_any_order():
    # dicts filled from the top exponent down, and a set of 16 and 3 that
    # iterates 16 first: the answer is still the least differing exponent
    den = ((1, 1), (2, 1))
    r1 = RationalSeries(poly({20: 1, 16: 2, 7: 1, 3: 4, 0: 1}), den)
    r2 = RationalSeries(poly({20: 1, 16: 5, 7: 1, 3: 1, 0: 1}), den)
    assert list(r1.numerator.coeffs) == [20, 16, 7, 3, 0]
    e1, e2 = r1.expand(3), r2.expand(3)
    assert r1.first_difference(r2) == (3, e1[3], e2[3])
    assert e1[:3] == e2[:3] and e1[3] - e2[3] == 3


def test_first_difference_of_equal_series_is_none():
    # equal as written, equal over different denominators, and equal with a
    # negative power, which is never expanded
    r = RationalSeries(poly({4: 1, 0: 1}), ((1, 1),))
    assert r.first_difference(RationalSeries(poly({4: 1, 0: 1}), ((1, 1),))) is None
    assert RationalSeries(one_minus_z(2), ((1, 1), (3, 1))).first_difference(
        RationalSeries(poly({0: 1, 1: 1}), ((3, 1),))
    ) is None
    assert RationalSeries(poly({-3: 2}), ((2, 1),)).first_difference(RationalSeries(poly({-3: 2}), ((2, 1),))) is None


def test_series_arithmetic_matches_expansion():
    rng = random.Random(13)
    for _ in range(30):
        n1 = poly({rng.randint(0, 4): rng.randint(-5, 5) for _ in range(3)})
        n2 = poly({rng.randint(0, 4): rng.randint(-5, 5) for _ in range(3)})
        r1 = RationalSeries(n1, ((rng.randint(1, 3), 1),))
        r2 = RationalSeries(n2, ((rng.randint(1, 3), 1),))
        s = (r1 + r2).expand(30)
        e1, e2 = r1.expand(30), r2.expand(30)
        assert s == [a + b for a, b in zip(e1, e2)]


def _fail_if_called(*args):
    raise AssertionError("a series was expanded before its work was admitted")


def test_first_difference_past_a_million_terms():
    # 1 / (1 - z) against (1 - z^(10^6 + 1)) / (1 - z): equal up to z^(10^6)
    k = 10**6 + 1
    assert RationalSeries(1, ((1, 1),)).first_difference(RationalSeries(one_minus_z(k), ((1, 1),))) == (k, 1, 0)


def test_first_difference_bounds_its_sum_and_refuses_negative_powers(monkeypatch):
    # z^50 / (1-z)(1-z^2)(1-z^3) against 0: both coefficients at z^50 are
    # read off the expansions to z^50
    r = RationalSeries(LaurentPolynomial.term(1, 50), ((1, 1), (2, 1), (3, 1)))
    assert r.first_difference(RationalSeries(0)) == (50, 1, 0)
    assert RationalSeries(0).first_difference(RationalSeries(r.numerator, r.denominator + ((1, 1),))) == (50, 0, 1)
    r2 = RationalSeries(LaurentPolynomial.term(1, 9) + LaurentPolynomial.term(3, 50), r.denominator)
    assert r2.first_difference(RationalSeries(LaurentPolynomial.term(1, 9), r.denominator)) == (
        50, r2.expand(50)[50], r2.expand(50)[50] - 3,
    )
    # expanding r to z^50 over its three factors takes 51 * 4 = 204 steps of
    # one word each (check_expand_work): admitted exactly at that work,
    # refused one word step below it before the expansion reads the numerator
    work = 204 * (_STEP_WORDS + 1)
    assert work == 38964
    monkeypatch.setattr(errors, "WORK_LIMIT", work)
    assert r.first_difference(RationalSeries(0)) == (50, 1, 0)
    monkeypatch.setattr(errors, "WORK_LIMIT", work - 1)
    monkeypatch.setattr(LaurentPolynomial, "min_exp", _fail_if_called)
    with pytest.raises(InvalidParameters, match=f"order 50: at least {work} word steps"):
        r.first_difference(RationalSeries(0))
    monkeypatch.undo()
    with pytest.raises(NegativeOrderTerm):
        RationalSeries(poly({-1: 1}), ((1, 2),)).first_difference(RationalSeries(0))
    with pytest.raises(NegativeOrderTerm):
        RationalSeries(0).first_difference(RationalSeries(poly({-1: 1}), ((1, 2),)))


def test_first_difference_refuses_a_difference_far_past_a_sparse_numerator(monkeypatch):
    # z^(10^9) against 0 differ first at z^(10^9): reading that coefficient
    # takes an expansion to it, refused before anything is allocated
    monkeypatch.setattr(LaurentPolynomial, "min_exp", _fail_if_called)
    with pytest.raises(InvalidParameters, match=f"expanding 1 series to order {10**9}: at least"):
        RationalSeries(LaurentPolynomial.term(1, 10**9)).first_difference(RationalSeries(0))


def test_text_round_shapes():
    r = RationalSeries(poly({0: 1, 1: 2, 2: 1}), ((1, 2),))
    assert r.to_text() == "1*z^0 + 2*z^1 + 1*z^2 | (1-z^1)^2"
    assert RationalSeries(LaurentPolynomial()).to_text() == "0 | 1"
    assert poly({-2: -3, 1: 4}).to_text() == "-3*z^-2 + 4*z^1"
