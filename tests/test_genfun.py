import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenspec import (
    CongruenceLattice,
    LaurentPolynomial,
    RationalSeries,
    a_laurent,
    compare_spaces,
    f_rational,
    lattice_from_lens,
    moment_series,
    theta_ell_rational,
    theta_rational,
)
from lenspec.errors import InvalidParameters
from lenspec import _kernels, genfun
from lenspec.genfun import check_series_work, phi_weights
from lenspec.polyseries import binom
from lenspec.verify import check_central_identity, check_theta_rational, check_zero_form_closed_form
from lenspec.weights import _class_multiplicity, invariant_dimensions
from support import brute_box, small_lattices


SAMPLES = [
    lattice_from_lens(1, (0, 0)),
    lattice_from_lens(2, (1, 1)),
    lattice_from_lens(4, (1, 1)),
    lattice_from_lens(4, (1, 2)),
    lattice_from_lens(7, (1, 2)),
    lattice_from_lens(1, (0, 0, 0)),
    lattice_from_lens(11, (1, 2, 3)),
    lattice_from_lens(6, (1, 2, 3)),
    CongruenceLattice(2, [(2, (1, 1)), (4, (1, 3))]),
]


def test_theta_ell_full_lattice_closed_form():
    # for the full lattice only the top box polynomial survives
    for n in (2, 3):
        L = lattice_from_lens(1, (0,) * n)
        for ell in range(n + 1):
            expected = RationalSeries(
                LaurentPolynomial({n - ell: binom(n, ell) * 2 ** (n - ell)}),
                ((1, n - ell),) if n > ell else (),
            )
            assert theta_ell_rational(L, ell) == expected


def test_theta_ell_top_is_one():
    for L in SAMPLES:
        assert theta_ell_rational(L, L.n) == RationalSeries(1)


def test_theta_ell_matches_shell_counts():
    check_theta_rational(SAMPLES)


# largest expansion order drawn per rank, so the brute-force box stays small
_THETA_TOP_CAP = {2: 40, 3: 16, 4: 8}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(L=small_lattices(), data=st.data())
def test_theta_ell_matches_brute_force(L, data):
    # the box |a_i| <= top holds every vector of one-norm <= top
    top = data.draw(st.integers(0, _THETA_TOP_CAP[L.n]))
    box = brute_box(L.congruences, L.n, top)
    for ell in range(L.n + 1):
        assert theta_ell_rational(L, ell).expand(top) == [row[ell] for row in box[: top + 1]], (L.label(), ell)


def test_theta_rational_full_lattice():
    for n in (2, 3):
        L = lattice_from_lens(1, (0,) * n)
        # (1 + z)^n / (1 - z)^n
        expected = RationalSeries(LaurentPolynomial({k: binom(n, k) for k in range(n + 1)}), ((1, n),))
        assert theta_rational(L) == expected


def test_theta_low_coefficients_lens_4_11():
    got = theta_rational(lattice_from_lens(4, (1, 1))).expand(1)
    assert got == [1, 0]


def test_a_laurent_p1_is_inverse_monomial():
    for n in (2, 3, 4):
        for ell in range(n + 1):
            assert a_laurent(1, ell, n) == LaurentPolynomial({-1: 1})


def test_a_laurent_exponent_window():
    for n in range(2, 6):
        for p in range(1, n + 1):
            for ell in range(n + 1):
                poly = a_laurent(p, ell, n)
                if not poly:
                    continue
                assert poly.min_exp() >= -p
                assert max(poly.coeffs) <= p - 2


def test_a_laurent_validation():
    with pytest.raises(InvalidParameters):
        a_laurent(0, 0, 2)
    with pytest.raises(InvalidParameters):
        a_laurent(3, 0, 2)


def _reference_a_laurent(p, ell, n):
    # the paper's five nested sums over (j, t, beta, alpha, i), which a_laurent
    # collapses to one coefficient of a product
    coeffs = {}
    for j in range(1, p + 1):
        sign = -1 if j % 2 == 0 else 1
        for t in range((p - j) // 2 + 1):
            c_t = binom(n - p + j + 2 * t, t)
            for beta in range(p - j - 2 * t + 1):
                c_b = (1 << (p - j - 2 * t - beta)) * binom(n - ell, beta) * binom(ell, p - j - 2 * t - beta)
                if c_b == 0:
                    continue
                for alpha in range(beta + 1):
                    c = sign * c_t * c_b * binom(beta, alpha)
                    for i in range(j):
                        e = p - 2 * (j + t + alpha - i)
                        coeffs[e] = coeffs.get(e, 0) + c
    return LaurentPolynomial(coeffs)


def test_a_laurent_matches_the_nested_sums():
    for n in range(2, 19):
        for p in range(1, n + 1):
            for ell in range(n + 1):
                assert a_laurent(p, ell, n) == _reference_a_laurent(p, ell, n), (p, ell, n)
    for n in (30, 40):
        for ell in range(n + 1):
            assert a_laurent(n, ell, n) == _reference_a_laurent(n, ell, n), (n, ell)


def test_a_laurent_expands_to_the_class_multiplicities():
    # z^norm a_laurent(p, ell, n) / (1-z^2)^(n-1) generates, over k, the
    # multiplicity in family (k, p) of a weight with that norm and ell zero
    # entries, which weights computes by its own nested sum
    for n in range(2, 9):
        for p in range(1, n + 1):
            for ell in range(n):
                for norm in range(n - ell, n - ell + 6):
                    series = RationalSeries(a_laurent(p, ell, n).shift(norm), ((2, n - 1),))
                    expected = [_class_multiplicity(n, k, p, norm, ell) for k in range(26)]
                    assert series.expand(25) == expected, (n, p, ell, norm)


def _nested_sum_steps(P):
    # innermost steps of _reference_a_laurent(P, ell, n) for one ell, at most
    return sum(
        j * (P - j - 2 * t + 1) * (P - j - 2 * t + 2) // 2 for j in range(1, P + 1) for t in range((P - j) // 2 + 1)
    )


def _refusal(n, exponent, fs=(), moments=0):
    # the refusal of check_series_work, or None when it admits the batch
    try:
        check_series_work(n, exponent, fs, moments)
    except InvalidParameters as exc:
        return str(exc)
    return None


def test_laurent_work_admits_what_the_nested_sum_bound_admitted():
    # the F^p weights were bounded at 10^7 innermost steps of the nested sums;
    # no batch of F^p a caller builds and that bound admitted is refused by
    # the F^p weights: spectrum_table, isospectral --method direct (genfun's
    # range at p0 = n - 1) and one f_rational
    steps = [0] + [_nested_sum_steps(P) for P in range(1, 158)]
    for n in range(2, 158):
        shapes = [range(max(p - 1, 0), p + 1) for p in range(n)]
        shapes += [range(p0 + 1) for p0 in range(n)]
        shapes += [(p,) for p in range(n)]
        for fs in shapes:
            if (n + 1) * sum(steps[p + 1] for p in fs) <= 10**7:
                assert "the F^p weights" not in (_refusal(n, 2, fs) or "")
    # the F^p weights of genfun and isospectral --method direct up to rank 39,
    # of spectrum --p n-1 up to rank 61 and of one F^p up to rank 73
    for n, fs in ((39, range(39)), (61, (59, 60)), (73, (72,))):
        assert "the F^p weights" not in (_refusal(n, 2, fs) or "")
    for n, fs in ((40, range(40)), (62, (60, 61)), (74, (73,))):
        assert _refusal(n, 2, fs).startswith(f"the F^p weights of rank {n}:")


def test_f0_sphere_series():
    got = f_rational(lattice_from_lens(1, (0, 0)), 0).expand(3)
    assert got == [4, 9, 16, 25]


def test_f_matches_direct_zero_form_formula():
    check_zero_form_closed_form(SAMPLES)


def test_f_coefficients_are_invariant_dimensions():
    check_central_identity(SAMPLES[:5], 30)


def test_f_nonnegative_coefficients():
    for L in SAMPLES:
        for p in range(L.n):
            assert all(c >= 0 for c in f_rational(L, p).expand(40))


def test_f_p_validation():
    L = lattice_from_lens(4, (1, 1))
    with pytest.raises(InvalidParameters):
        f_rational(L, 2)
    with pytest.raises(InvalidParameters):
        f_rational(L, -1)


def test_main_identity_all_p_families():
    # the assembled series agrees with the invariant-dimension route for
    # every family index, including the reducible top one; rank 4 included
    cases = [
        (lattice_from_lens(5, (1, 2)), 20),
        (lattice_from_lens(4, (1, 2, 2)), 20),
        (lattice_from_lens(5, (1, 2, 3, 4)), 10),
    ]
    for L, order in cases:
        n = L.n
        rows = invariant_dimensions(L, order)
        for p in range(1, n + 1):
            acc = _merged_sum(L, lambda ell: a_laurent(p, ell, n))
            acc = RationalSeries(acc.numerator, acc.denominator + ((2, n - 1),))
            sign = -1 if p % 2 else 1
            series = acc + RationalSeries(LaurentPolynomial.term(sign, -p))
            assert series.expand(order) == rows[p - 1]


def _merged_sum(L, weight):
    # the theta^(ell) added one at a time by RationalSeries.__add__, which
    # brings each pair of series to their least common denominator
    acc = RationalSeries(0)
    for ell in range(L.n + 1):
        theta = theta_ell_rational(L, ell)
        acc = acc + RationalSeries(theta.numerator * weight(ell), theta.denominator)
    return acc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(L=small_lattices())
@example(L=lattice_from_lens(1, (0, 0, 0)))
@example(L=lattice_from_lens(2, (1, 1, 1)))
def test_one_denominator_sums_match_merged_sums(L):
    # equal text means equal denominators and numerators, so the one-lift
    # sums print exactly what the pairwise merges print
    n = L.n
    for p in range(n):
        P = p + 1
        merged = _merged_sum(L, lambda ell: a_laurent(P, ell, n))
        merged = RationalSeries(merged.numerator, merged.denominator + ((2, n - 1),)) + RationalSeries(LaurentPolynomial.term(-1 if P % 2 else 1, -P))
        assert f_rational(L, p).to_text() == merged.to_text(), (L.label(), p)
    for h, series in enumerate(moment_series(L, n - 1)):
        assert series.to_text() == _merged_sum(L, lambda ell: ell**h).to_text(), (L.label(), h)
    assert theta_rational(L).to_text() == _merged_sum(L, lambda ell: 1).to_text(), L.label()


@pytest.mark.parametrize("q", [1, 2, 7, 12])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_weights_of_ones_closed_form(q, n):
    # all w_ell = 1 gives sum_ell C(m, ell) (2 z^q)^(m - ell) (1 - z^q)^ell = (1 + z^q)^m
    assert phi_weights(q, [1] * (n + 1)) == [
        LaurentPolynomial({q * k: binom(m, k) for k in range(m + 1)}) for m in range(n + 1)
    ]


def test_moment_series_order_range():
    L = lattice_from_lens(7, (1, 2))
    assert len(moment_series(L, 1)) == 2
    for p0 in (-1, 2):
        with pytest.raises(InvalidParameters):
            moment_series(L, p0)


def _fail_if_called(*args, **kwargs):
    raise AssertionError("work started before its bound was checked")


def test_product_count_reads_the_coefficient_width_of_phi():
    # a coefficient of phi_m is at most (2E)^(n-1): at n = 5 and E = 300 it
    # spans 4 * 10 bits, and a product step weighs 192 words (191 with 4 * 9)
    assert check_series_work(5, 300, moments=1) == 2045400


def test_weight_work_rejected_before_any_count(monkeypatch):
    # p0 + 1 sets of scalar weights, about (n + 1)^3 / 2 steps each: in the
    # exponent 2 the moment series of every order below n is admitted up to
    # rank 46, one set up to rank 164
    assert check_series_work(46, 2, moments=46) > 0
    assert check_series_work(164, 2, moments=1) > 0
    for n, moments in ((47, 47), (165, 1)):
        assert _refusal(n, 2, moments=moments).startswith(f"the phi_m weights of rank {n}:")
    monkeypatch.setattr(genfun, "phi_weights", _fail_if_called)
    monkeypatch.setattr(_kernels, "box_table", _fail_if_called)
    L = lattice_from_lens(2, (1,) * 47)
    with pytest.raises(InvalidParameters):
        moment_series(L, 46)
    with pytest.raises(InvalidParameters):
        f_rational(lattice_from_lens(2, (1,) * 165), 0)


def test_f_rational_bounds_its_own_laurent_work(monkeypatch):
    # rank 74 admits a_laurent(P, ell, 74) up to P = 73; F^73 needs P = 74,
    # and a direct comparison up to p = 59 at rank 60 builds F^0..F^59, so
    # both are refused before the box count, without any CLI pre-check
    monkeypatch.setattr(_kernels, "box_table", _fail_if_called)
    with pytest.raises(InvalidParameters, match="F\\^p weights of rank 74"):
        f_rational(lattice_from_lens(2, (1,) * 74), 73)
    L = lattice_from_lens(2, (1,) * 60)
    with pytest.raises(InvalidParameters):
        compare_spaces(L, lattice_from_lens(2, (1,) * 59 + (3,)), 59, method="direct")


def test_box_count_bound_checked_before_any_weight(monkeypatch):
    monkeypatch.setattr(genfun, "phi_weights", _fail_if_called)
    with pytest.raises(InvalidParameters):
        f_rational(lattice_from_lens(100003, (1, 2, 3)), 0)


def test_f_denominator_shape():
    L = lattice_from_lens(4, (1, 1))
    series = f_rational(L, 1)
    assert dict(series.denominator) == {2: 1, 4: 2}
    assert series.numerator.min_exp() >= 0


def test_theta_serialization_example():
    text = theta_rational(lattice_from_lens(1, (0, 0))).to_text()
    assert text == "1*z^0 + 2*z^1 + 1*z^2 | (1-z^1)^2"
