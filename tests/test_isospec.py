import gc
import hashlib
import math
import sys
from itertools import product
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenspec import _kernels, errors, genfun, isospec
from lenspec import (
    CongruenceLattice,
    compare_spaces,
    f_rational,
    isometry_classes,
    lattice_from_lens,
    moment_series,
    search,
    spectrum_table,
    theta_rational,
)
from lenspec.errors import _STEP_WORDS, DimensionMismatch, InvalidParameters
from lenspec.genfun import _moment_weights, a_laurent, check_series_work, phi_weights
from lenspec.isospec import fingerprint_digest, numerator_fingerprint
from lenspec.lattice import lens_label
from lenspec.polyseries import one_minus_z
from support import acts_freely, canonical_key, norm_star_isospectral


def test_canonical_key_unit_multiplier():
    assert canonical_key(7, (1, 2)) == canonical_key(7, (1, 4))


def test_canonical_key_permutation_and_signs():
    assert canonical_key(9, (2, 5)) == canonical_key(9, (5, 2))
    assert canonical_key(9, (2, 5)) == canonical_key(9, (2, -5))


def test_canonical_key_separates():
    assert canonical_key(5, (1, 2)) != canonical_key(5, (1, 1))


def test_canonical_key_validation():
    with pytest.raises(InvalidParameters):
        canonical_key(4, (2, 2))


def test_key_lattice_roundtrip():
    key = canonical_key(7, (1, 4))
    assert lens_label(7, key) == "L(7;1,2)"
    assert lattice_from_lens(7, key).exponent == 7


def _verdicts(L1, L2, p0=None, method="range"):
    return [same for same, _ in compare_spaces(L1, L2, p0, method)]


def test_self_isospectral():
    L = lattice_from_lens(8, (1, 3))
    for method in ("range", "direct"):
        assert _verdicts(L, L, method=method) == [True] * L.n
    assert norm_star_isospectral(L, L)


def test_sphere_vs_lens_differs():
    Z2 = lattice_from_lens(1, (0, 0))
    L = lattice_from_lens(2, (1, 1))
    assert _verdicts(Z2, L, 0) == _verdicts(Z2, L, 0, "direct") == [False]
    assert theta_rational(Z2) != theta_rational(L)


def test_rank_mismatch():
    with pytest.raises(DimensionMismatch):
        compare_spaces(lattice_from_lens(1, (0, 0)), lattice_from_lens(1, (0, 0, 0)), 0)


def test_compare_spaces_rows():
    # a digest while the spaces agree, then the first difference of the
    # series of order p, None when those agree but a lower order differs
    L1, L2 = lattice_from_lens(5, (1, 1)), lattice_from_lens(5, (1, 2))
    assert compare_spaces(L1, L2) == [(False, (2, 2, 0)), (False, None)]
    assert compare_spaces(L1, L2, method="direct") == [(False, (1, 3, 1)), (False, (0, 4, 2))]
    L1, L2 = lattice_from_lens(8, (1, 3)), lattice_from_lens(8, (1, 5))
    fingerprint = numerator_fingerprint(r.numerator for r in moment_series(L1, 1))
    digests = [fingerprint_digest(fingerprint[: p + 1]) for p in range(2)]
    for method in ("range", "direct"):
        assert compare_spaces(L1, L2, method=method) == [(True, digest) for digest in digests]
    with pytest.raises(InvalidParameters):
        compare_spaces(L1, L2, 2)
    with pytest.raises(InvalidParameters):
        compare_spaces(L1, L2, method="moments")


def _refuse(*args):
    raise AssertionError("called where no caller reads it")


def test_direct_comparison_builds_no_digest_for_differing_spaces(monkeypatch):
    # no row agrees, so no moment numerator is fingerprinted for a digest
    L1, L2 = lattice_from_lens(10007, (1, 2)), lattice_from_lens(10007, (1, 3))
    monkeypatch.setattr(isospec, "numerator_fingerprint", _refuse)
    monkeypatch.setattr(isospec, "fingerprint_digest", _refuse)
    assert compare_spaces(L1, L2, method="direct") == [(False, (2, 2, 0)), (False, (1, 2, 0))]


def test_direct_comparison_builds_no_f_series_for_agreeing_spaces(monkeypatch):
    # the moment series decide every row; F^p only details a differing one
    L1, L2 = lattice_from_lens(49, (1, 6, 15)), lattice_from_lens(49, (1, 6, 20))
    monkeypatch.setattr(isospec, "f_rational", _refuse)
    rows = compare_spaces(L1, L2, method="direct")
    assert [same for same, _ in rows] == [True] * 3
    assert rows == compare_spaces(L1, L2)


def test_direct_comparison_checks_p0_and_weights_before_any_count(monkeypatch):
    monkeypatch.setattr(_kernels, "box_table", _refuse)
    L1, L2 = lattice_from_lens(8, (1, 3)), lattice_from_lens(8, (1, 5))
    with pytest.raises(InvalidParameters, match=r"^p0 must lie in 0\.\.1$"):
        compare_spaces(L1, L2, 2, method="direct")
    # the weights of all p0 + 1 moment series, though direct builds them only
    # up to the first differing row: five sets of rank 100 are over the limit
    L1, L2 = lattice_from_lens(3, (1,) * 100), lattice_from_lens(3, (1,) * 99 + (2,))
    with pytest.raises(InvalidParameters, match="phi_m weights of rank 100"):
        compare_spaces(L1, L2, 4, method="direct")
    # both methods count their series in the larger exponent before either
    # box count, whichever space holds it
    small, large = lattice_from_lens(101, (1, 2)), lattice_from_lens(328901, (1, 2))
    for method in ("range", "direct"):
        for L1, L2 in ((small, large), (large, small)):
            with pytest.raises(InvalidParameters, match="products of rank 2 and exponent 328901"):
                compare_spaces(L1, L2, 1, method=method)


def test_comparison_builds_each_weight_set_once(monkeypatch):
    # both methods compare moment series, with one weight set per order for
    # both spaces of one q, and take the digest from the numerators compared;
    # each counts its moment series once before either box count.  Ikeda's
    # pair differs from p = 1 on: direct builds the moment weights of orders 0
    # and 1 alone, counts F^1 and F^2 there, then builds them for both spaces,
    # each with its own weights and count.  The q = 49 pair agrees on every
    # row, so direct builds no F^p
    ikeda = lattice_from_lens(11, (1, 2, 3)), lattice_from_lens(11, (1, 2, 4))
    q49 = lattice_from_lens(49, (1, 6, 15)), lattice_from_lens(49, (1, 6, 20))
    calls = {}
    for module, name in ((genfun, "phi_weights"), (genfun, "check_series_work"), (isospec, "check_series_work"),
                         (isospec, "f_rational"), (genfun, "moment_series")):
        log = calls.setdefault(name, [])
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, log=log, **k: log.append(a) or fn(*a, **k))
    for pair, verdicts, method, expected in (
        (ikeda, [True, False, False], "range", (3, 1, 0)),
        (ikeda, [True, False, False], "direct", (6, 6, 4)),
        (q49, [True] * 3, "range", (3, 1, 0)),
        (q49, [True] * 3, "direct", (3, 1, 0)),
    ):
        for log in calls.values():
            log.clear()
        rows = compare_spaces(*pair, method=method)
        assert [same for same, _ in rows] == verdicts
        counts = tuple(len(calls[name]) for name in ("phi_weights", "check_series_work", "f_rational"))
        assert counts == expected, (pair[0].exponent, method)
        assert calls["moment_series"] == []


def test_range_p0_zero_is_theta_equality():
    pairs = [
        (lattice_from_lens(5, (1, 1)), lattice_from_lens(5, (1, 2))),
        (lattice_from_lens(8, (1, 3)), lattice_from_lens(8, (1, 5))),
        (lattice_from_lens(7, (1, 2)), lattice_from_lens(7, (1, 3))),
    ]
    for L1, L2 in pairs:
        assert _verdicts(L1, L2, 0) == [theta_rational(L1) == theta_rational(L2)]


def test_isometric_parameters_are_isospectral():
    # same isometry class through a unit multiplier
    L1 = lattice_from_lens(7, (1, 2))
    L2 = lattice_from_lens(7, (1, 4))
    assert canonical_key(7, (1, 2)) == canonical_key(7, (1, 4))
    assert norm_star_isospectral(L1, L2)
    assert _verdicts(L1, L2, method="direct") == [True, True]


def test_range_monotonicity():
    keys = isometry_classes(11, 3, "manifolds")
    lattices = [lattice_from_lens(11, s) for s in keys[:6]]
    for i in range(len(lattices)):
        for j in range(i + 1, len(lattices)):
            # a smaller p0 gives the same first rows, and once the spaces
            # differ they differ at every higher p
            rows = compare_spaces(lattices[i], lattices[j], 2)
            assert [compare_spaces(lattices[i], lattices[j], p0)[-1] for p0 in range(3)] == rows
            verdicts = [same for same, _ in rows]
            assert verdicts == sorted(verdicts, reverse=True)


def test_isometry_classes_manifolds_small():
    keys = isometry_classes(5, 2, "manifolds")
    assert keys == [(1, 1), (1, 2)]
    assert set(isometry_classes(4, 2, "orbifolds")) >= set(isometry_classes(4, 2, "manifolds"))


def brute_classes(q, n, mode):
    """Key every valid parameter vector; manifolds as (1, units...)."""
    if mode == "orbifolds":
        vectors = [s for s in product(range(q), repeat=n) if math.gcd(q, *s) == 1]
    elif q == 1:
        vectors = [(0,) * n]
    else:
        units = [t for t in range(1, q) if math.gcd(t, q) == 1]
        vectors = [(1,) + rest for rest in product(units, repeat=n - 1)]
    return sorted({canonical_key(q, s) for s in vectors})


# every q up to this bound, per rank, is checked against the brute force
_BRUTE_Q_MAX = {2: 40, 3: 16, 4: 8}
# and these divisor-rich q above it, where entries with gcd > 1 and zero
# entries widen the set of units the listing tries; q = 20 has the heads
# g = 2, 4 and 5 after the zeros, and q = 27 the heads 3 and 9
_BRUTE_Q_EXTRA = {2: (), 3: (18, 20, 24, 27, 30), 4: (12,)}


@pytest.mark.parametrize("n", sorted(_BRUTE_Q_MAX))
def test_isometry_classes_match_brute_force(n):
    for q in (*range(1, _BRUTE_Q_MAX[n] + 1), *_BRUTE_Q_EXTRA[n]):
        for mode in ("manifolds", "orbifolds"):
            assert isometry_classes(q, n, mode) == brute_classes(q, n, mode), (q, n, mode)


@pytest.mark.parametrize("n", sorted(_BRUTE_Q_MAX))
def test_manifold_classes_are_free_orbifold_classes(n):
    for q in range(1, _BRUTE_Q_MAX[n] + 1):
        free = [s for s in isometry_classes(q, n, "orbifolds") if acts_freely(lattice_from_lens(q, s))]
        assert isometry_classes(q, n, "manifolds") == free, (q, n)


def test_isometry_classes_bounded_before_listing(monkeypatch):
    # n * C(m + n - 2, n - 1) candidate entries per head, m the values of its
    # pool: one candidate of 10^7 entries or the 999 units of q = 1999 in
    # (1, a, b) are refused before any candidate is built, in both modes, and
    # q = 10^12 + 39 by the scan of [0, q // 2]
    built = []
    combinations = isospec.combinations_with_replacement
    monkeypatch.setattr(
        isospec, "combinations_with_replacement", lambda *args: built.append(args) or combinations(*args)
    )
    for q, n in ((2, 10**7), (1999, 3), (10**12 + 39, 3)):
        for mode in ("manifolds", "orbifolds"):
            with pytest.raises(InvalidParameters, match=f"listing the classes of q={q}, n={n} "):
                isometry_classes(q, n, mode)
    assert built == []
    # the largest benchmark and q-range gate inputs stay within it, and
    # q = 251 takes 23625 manifold entries
    assert len(isometry_classes(151, 3, "orbifolds")) == 1015
    assert len(isometry_classes(251, 3, "manifolds")) == 2667


def _fail_if_called(*args):
    raise AssertionError("a value was read before the scan was admitted")


def test_isometry_classes_admit_the_scan_before_reading_a_value(monkeypatch):
    # q = 2 * 3 * 5 * ... * 37 has few units, so capping the values read
    # would still scan far into [0, q // 2]; the scan is refused first, one
    # gcd step a value
    q = 7420738134810
    work = (q // 2 + 1) * (_STEP_WORDS + 1)
    monkeypatch.setattr(isospec, "math", SimpleNamespace(gcd=_fail_if_called))
    for n in (2, 3, 5):
        for mode in ("manifolds", "orbifolds"):
            with pytest.raises(InvalidParameters, match=f"q={q}, n={n} \\({mode}\\): at least {work} word steps"):
                isometry_classes(q, n, mode)


@pytest.mark.parametrize("q, n", [(60, 3), (101, 3), (151, 3), (211, 3), (24, 4), (31, 4), (36, 5)])
def test_isometry_classes_work_within_its_count(monkeypatch, q, n):
    # the n entries each candidate built is gcd-checked on, and the n entries
    # of each fold it runs, stay within the entry steps the listing admits
    # (word steps over _STEP_WORDS + 1), in either mode
    counted, entries = [], []
    folded, combinations = isospec._folded, isospec.combinations_with_replacement
    monkeypatch.setattr(isospec, "admit", lambda work, what: counted.append(work) or work)
    monkeypatch.setattr(isospec, "_folded", lambda q, s, t: entries.append(len(s)) or folded(q, s, t))
    monkeypatch.setattr(
        isospec, "combinations_with_replacement", lambda *args: (entries.append(n) or c for c in combinations(*args))
    )
    for mode in ("manifolds", "orbifolds"):
        counted.clear()
        entries.clear()
        isometry_classes(q, n, mode)
        # the scan's count, then the candidates'
        assert len(counted) == 2 and sum(entries) <= counted[1] // (_STEP_WORDS + 1), (q, n, mode)


def test_fingerprint_digest_is_sha256():
    # the builtin sha256 the digest takes gives hashlib's digits
    for data in ((), (((0, 1),),), (((0, 3), (2, -1)), ((1, 5), (7, 2))), "x" * 1000):
        assert fingerprint_digest(data) == hashlib.sha256(repr(data).encode()).hexdigest()[:16]


def test_fingerprint_digest_falls_back_to_hashlib(monkeypatch):
    # without the interpreter's builtin sha256 the digest takes hashlib's,
    # and its digits stay the same
    data = (((0, 3), (2, -1)), ((1, 5), (7, 2)))
    builtin = fingerprint_digest(data)
    monkeypatch.setitem(sys.modules, "_sha2" if sys.version_info >= (3, 12) else "_sha256", None)
    assert isospec._builtin_sha256() is hashlib.sha256
    assert fingerprint_digest(data) == hashlib.sha256(repr(data).encode()).hexdigest()[:16] == builtin


def test_search_empty_for_small_three_dimensional():
    assert search(5, 2, 0) == []
    assert search(2, 2, 0) == []


def test_search_finds_classic_pair():
    families = search(11, 3, 0, mode="manifolds")
    assert families, "expected at least one isospectral family at q = 11"
    for fam in families:
        assert len(fam.members) >= 2
        assert len(set(fam.members)) == len(fam.members)
        lattices = [lattice_from_lens(11, s) for s in fam.members]
        base = lattices[0]
        for other in lattices[1:]:
            assert _verdicts(base, other, 0, "direct") == [True]
            assert theta_rational(base) == theta_rational(other)


def _live_lattices() -> int:
    gc.collect()
    return sum(isinstance(obj, CongruenceLattice) for obj in gc.get_objects())


def test_search_keeps_no_lattice():
    # q = 13 has families, so the bucket check builds lattices too; nothing
    # may hold on to any lattice of the search once it returns
    before = _live_lattices()
    assert search(13, 3, 0)
    assert _live_lattices() == before


def test_search_members_truncated_spectra_agree():
    families = search(11, 3, 0, mode="manifolds")
    fam = families[0]
    t1 = spectrum_table(lattice_from_lens(11, fam.members[0]), 0, 25)
    t2 = spectrum_table(lattice_from_lens(11, fam.members[1]), 0, 25)
    cut = min(t1[-1].eigenvalue, t2[-1].eigenvalue)
    e1 = [(e.eigenvalue, e.multiplicity) for e in t1 if e.eigenvalue <= cut]
    e2 = [(e.eigenvalue, e.multiplicity) for e in t2 if e.eigenvalue <= cut]
    assert e1 == e2


def test_search_validation():
    with pytest.raises(InvalidParameters):
        search(5, 2, 3)
    with pytest.raises(InvalidParameters):
        isometry_classes(5, 2, "everything")
    # the rank is checked before p0, whose range it sets
    with pytest.raises(InvalidParameters, match="rank n must be >= 2"):
        search(5, 0, 0)


def test_search_builds_each_weight_set_once(monkeypatch):
    # search(49, 3, 2) needs three sets of phi_m weights: the moments of
    # order 0..2, built with the character sums and handed to the members'
    # fingerprints; a second search builds its own three, none kept between
    calls = []

    def counted(q, weights):
        calls.append((q, repr(weights)))
        return phi_weights(q, weights)

    monkeypatch.setattr(genfun, "phi_weights", counted)
    for _ in range(2):
        calls.clear()
        assert search(49, 3, 2)
        assert len(calls) == len(set(calls)) == 3


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    q=st.integers(1, 40),
    s=st.lists(st.integers(0, 39), min_size=2, max_size=4),
)
@example(q=1, s=[0, 0])
@example(q=2, s=[1, 0, 1])
@example(q=12, s=[0, 3, 4])  # s_j = 0 and no exponent a unit
@example(q=30, s=[6, 10, 15, 1])
@example(q=432, s=[1, 1, 1])  # the widest packed field of an n = 3 box count the limit admits
def test_character_sums_match_box_count_numerators(q, s):
    # the exact moment numerators of the box-count chain, evaluated at the
    # point mod P term by term, against the walk over the one class
    s = tuple(x % q for x in s)
    if math.gcd(q, *s) != 1:
        s = (1,) + s[1:]
    n, p0 = len(s), len(s) - 1
    sums = isospec._CharacterSums(q, n, 1)
    assert _bucket_keys(sums, p0, isospec._phi_sums(sums, [s])) == [_numerators_at(sums, q, s, p0)]


def test_walk_matches_the_box_count_at_the_widest_field(monkeypatch):
    # q = 512..930, the manifold searches of rank 3 the limit admits past
    # q = 432, pack the walk's fields one bit wider; the box count of
    # (512; 1, 1, 1) is over the limit, which is raised here alone
    monkeypatch.setattr(errors, "WORK_LIMIT", 4 * errors.WORK_LIMIT)
    q, s = 512, (1, 1, 1)
    sums = isospec._CharacterSums(q, 3, 1)
    assert sums.width == isospec._CharacterSums(930, 3, 1).width == isospec._CharacterSums(432, 3, 1).width + 1
    assert next(isospec._phi_sums(sums, [s])) == [sums.at(phi) for phi in lattice_from_lens(q, s).phi_polynomials()]


def _moment_weights_at(sums, p0):
    # W_m(z) mod P of the moment series of orders 0..p0
    return [[sums.at(w) for w in weights] for weights in _moment_weights(sums.q, sums.n, p0)]


def _bucket_keys(sums, p0, phis):
    # the search's bucket key of each class whose phi_m(z) are in phis:
    # its moment numerators of orders 0..p0 at the point mod P
    rows = _moment_weights_at(sums, p0)
    return [tuple(sum(map(mul, row, phi)) % sums.P for row in rows) for phi in phis]


def _numerators_at(sums, q, s, p0):
    P = sums.P
    numerators = [r.numerator.coeffs for r in moment_series(lattice_from_lens(q, s), p0)]
    return tuple(sum(c * pow(sums.z, e, P) for e, c in coeffs.items()) % P for coeffs in numerators)


@pytest.mark.parametrize(
    "q, n, mode, p0",
    [
        (12, 3, "orbifolds", 2),
        (13, 3, "manifolds", 1),
        (20, 3, "manifolds", 2),
        (9, 4, "orbifolds", 0),
        (7, 5, "orbifolds", 4),
    ],
)
def test_walk_matches_box_count_numerators_on_every_class(q, n, mode, p0):
    # one walk over the sorted classes, which shares prefix products between
    # them, against each class's exact moment numerators at the point
    keys = isometry_classes(q, n, mode)
    sums = isospec._CharacterSums(q, n, len(keys))
    values = _bucket_keys(sums, p0, isospec._phi_sums(sums, keys))
    assert values == [_numerators_at(sums, q, s, p0) for s in keys]


@pytest.mark.parametrize("q", [1, 2, 7, 12])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_character_sum_weights_match_binomial_sum(q, n):
    # the moment weights at the point mod P against the binomial sum
    # c_{h,m} = sum_l C(m, l) l^h (1 - z^q)^l (2 z^q)^(m-l) written out here
    sums = isospec._CharacterSums(q, n, 1)
    P = sums.P
    assert sums.z == isospec._POINT % P
    zq = pow(sums.z, q, P)
    expected = [
        [
            sum(math.comb(m, l) * l**h * pow(1 - zq, l, P) * pow(2 * zq, m - l, P) for l in range(m + 1)) % P
            for m in range(n + 1)
        ]
        for h in range(n)
    ]
    assert _moment_weights_at(sums, n - 1) == expected, (q, n)


def _horner(sums, poly):
    # poly(z) mod P by Horner's rule from the top exponent down to the least,
    # lo, times z^lo through z^(P - 1) = 1, so no negative power is taken
    z, P = sums.z, sums.P
    lo, value = min(poly.coeffs, default=0), 0
    for e in range(max(poly.coeffs, default=0), lo - 1, -1):
        value = (value * z + poly.coeffs.get(e, 0)) % P
    return value * pow(z, lo % (P - 1), P) % P


@pytest.mark.parametrize("q, n", [(1, 2), (7, 3), (12, 4), (45, 3), (101, 3)])
def test_at_evaluates_every_weight_and_phi(q, n):
    # sums.at, one pow a term, against Horner's rule: the phi_m, the moment
    # weights and the F^p weights of every order, whose exponents run from
    # -n to n q + n - 2
    sums = isospec._CharacterSums(q, n, 1)
    f_weights = [phi_weights(q, [a_laurent(p + 1, ell, n) for ell in range(n + 1)]) for p in range(n)]
    weights = [w for weight_set in (*_moment_weights(q, n, n - 1), *f_weights) for w in weight_set]
    exponents = {e for w in weights for e in w.coeffs}
    assert (min(exponents), max(exponents)) == (-n, n * q + n - 2)
    phis = [phi for s in isometry_classes(q, n, "orbifolds")[:6] for phi in lattice_from_lens(q, s).phi_polynomials()]
    for poly in weights + phis:
        assert sums.at(poly) == _horner(sums, poly)


@pytest.mark.parametrize(
    "q, n, mode", [(8, 3, "orbifolds"), (12, 3, "orbifolds"), (13, 3, "manifolds"), (9, 4, "orbifolds")]
)
def test_walk_gives_every_f_p_at_the_point(q, n, mode):
    # F^p's numerator is sum_m phi_m W^F_m plus a corrective polynomial, W^F
    # the phi_m weights of the a_laurent(p + 1, ell, n): at the point, the
    # walk's phi_m(z) give it for every class and p, with no F^p built there
    keys = isometry_classes(q, n, mode)
    sums = isospec._CharacterSums(q, n, len(keys))
    phis = list(isospec._phi_sums(sums, keys))
    for p in range(n):
        weights = [sums.at(w) for w in phi_weights(q, [a_laurent(p + 1, ell, n) for ell in range(n + 1)])]
        corrective = sums.at((one_minus_z(q, n) * one_minus_z(2, n - 1) * (-1) ** (p + 1)).shift(-p - 1))
        for s, phi in zip(keys, phis):
            value = (sum(map(mul, weights, phi)) + corrective) % sums.P
            assert value == sums.at(f_rational(lattice_from_lens(q, s), p).numerator), (q, s, p)


def test_character_sums_step_off_a_point_of_order_dividing_q(monkeypatch):
    # H's closed form divides by z^q - 1: at the point 1 the sums move to 2,
    # and the search still finds Ikeda's pair
    monkeypatch.setattr(isospec, "_POINT", 1)
    assert isospec._CharacterSums(11, 3, 1).z == 2
    assert [fam.members for fam in search(11, 3, 0)] == [((1, 2, 3), (1, 2, 4))]


class _Reached(Exception):
    pass


def _reach(*args):
    raise _Reached


def test_search_admits_its_moment_series_before_its_sums(monkeypatch):
    # rank 152 over q = 2: the sums of its one manifold class and its two
    # moment series are both over the limit, and the series are refused first
    with pytest.raises(InvalidParameters, match="phi_m weights of rank 152"):
        search(2, 152, 1)
    # rank 100: its p0 + 1 = 5 moment series are refused before the sums, and
    # with 4 of them the sums are reached
    monkeypatch.setattr(isospec, "_CharacterSums", _reach)
    with pytest.raises(InvalidParameters, match="phi_m weights of rank 100"):
        search(2, 100, 4)
    with pytest.raises(_Reached):
        search(2, 100, 3)


def test_character_sum_bound_admits_the_gate_scales():
    # the q-range gates at every p0 pass both counts a search takes before
    # its sums, the moment series and the sums themselves; checked by the
    # work alone, so no class is summed here
    scales = [(101, 3), (151, 3), (31, 4), *((q, 5) for q in range(1, 18))]
    for q, n in scales:
        check_series_work(n, q, moments=n)
        for mode in ("manifolds", "orbifolds"):
            isospec._CharacterSums(q, n, len(isometry_classes(q, n, mode)))
    # q = 2 has n orbifold classes of rank n and one manifold class: the last
    # admitted searches are of rank 55 and 151, and the sums refuse the next
    for n, classes in ((55, 55), (151, 1)):
        check_series_work(n, 2, moments=1)
        isospec._CharacterSums(2, n, classes)
    for n, classes in ((56, 56), (152, 1)):
        check_series_work(n, 2, moments=1)
        with pytest.raises(InvalidParameters, match="character sums"):
            isospec._CharacterSums(2, n, classes)


def _families(q, n, p0, mode):
    return [(fam.members, fam.fingerprint) for fam in search(q, n, p0, mode)]


@pytest.mark.parametrize(
    "q, n, p0, mode",
    [(13, 3, 0, "manifolds"), (11, 4, 0, "orbifolds"), (49, 3, 2, "manifolds")],
)
def test_value_collisions_are_split_exactly(monkeypatch, q, n, p0, mode):
    # one bucket key for every class puts all of them in one bucket: the
    # exact fingerprints must split it into the same families, with no error
    expected = _families(q, n, p0, mode)
    assert expected
    phi_sums = isospec._phi_sums
    calls = []

    def one_value_walk(sums, classes):
        calls.append(len(classes))
        for _ in phi_sums(sums, classes):
            yield [1] * (sums.n + 1)

    monkeypatch.setattr(isospec, "_phi_sums", one_value_walk)
    assert _families(q, n, p0, mode) == expected
    # the search walked every class once
    assert calls == [len(isometry_classes(q, n, mode))]


def test_search_box_counts_family_members_only(monkeypatch):
    calls, built = [], []
    box_table = _kernels.box_table
    monkeypatch.setattr(_kernels, "box_table", lambda *args: calls.append(args) or box_table(*args))
    new = CongruenceLattice.__new__
    monkeypatch.setattr(CongruenceLattice, "__new__", lambda cls, *args: built.append(args) or new(cls, *args))
    families = search(13, 3, 0)
    assert families
    assert len(calls) == sum(len(fam.members) for fam in families)
    # no bucket is shared here, so no class gets a lattice or a box count;
    # q = 930 is the largest manifold search of rank 3 the limit admits, and
    # (270; 1, 1, 1, 1) alone would be a box count over it
    # Ikeda's pair at q = 11 differs from order 1 on, so at p0 = 1 its bucket
    # key of orders 0..1 already tells the two classes apart
    for args in ((14, 4, 0), (21, 3, 1, "orbifolds"), (432, 3, 0), (930, 3, 0), (270, 4, 0), (11, 3, 1)):
        calls.clear()
        built.clear()
        assert search(*args) == []
        assert calls == built == [], args
