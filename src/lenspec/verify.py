"""Self-check battery wiring the independent computation routes against each
other at a configurable scale, one ``CheckResult`` row per check.  Each
cross-route identity is one function of its scale that returns its detail and
raises ``AssertionError`` on a mismatch: :func:`check_multiplicity_closed_form`,
:func:`check_dimension_sums`, :func:`check_theta_rational`,
:func:`check_reduced_convolution`, :func:`check_central_identity`,
:func:`check_zero_form_closed_form` and :func:`check_sphere_spectrum`.
:func:`run_checks` runs them for the ``verify`` CLI subcommand, and the tests
at their own scale.  The weight classes come from :mod:`lenspec.weights` and
the family highest weights from :mod:`lenspec.oracle`."""

import random
from collections import namedtuple

from .errors import _STEP_WORDS, InvalidParameters, LenspecError, admit
from .genfun import a_laurent, f_rational, theta_ell_rational, theta_rational
from .lattice import CongruenceLattice, lattice_from_lens
from .oracle import _dominant_below, family_highest_weights, oracle_weight_multiplicity, weyl_dimension
from .polyseries import LaurentPolynomial, RationalSeries, binom
from .weights import (
    _class_multiplicity,
    class_representative,
    class_size,
    invariant_dimensions,
    shell_table,
    weight_classes,
)
from .spectrum import spectrum_table

CheckResult = namedtuple("CheckResult", ("name", "ok", "detail"))


def _sample_lattices(max_n: int) -> list[CongruenceLattice]:
    samples = [
        lattice_from_lens(1, (0, 0)),
        lattice_from_lens(4, (1, 1)),
        lattice_from_lens(4, (1, 2)),
        lattice_from_lens(7, (1, 2)),
        lattice_from_lens(8, (1, 3)),
    ]
    if max_n >= 3:
        samples += [
            lattice_from_lens(1, (0, 0, 0)),
            lattice_from_lens(11, (1, 2, 3)),
            lattice_from_lens(4, (1, 2, 2)),
            # a genuinely non-cyclic group
            CongruenceLattice(3, [(2, (1, 1, 0)), (2, (0, 1, 1))]),
        ]
    return samples


def compositions_count(total: int, parts: int) -> int:
    """Weak compositions of ``total`` into ``parts`` parts; 1 iff total = 0
    when there are no parts."""
    if parts == 0:
        return 1 if total == 0 else 0
    return binom(total + parts - 1, parts - 1)


def convolution_rhs(L: CongruenceLattice, a: int, r: int, ell: int) -> int:
    """Shell count reconstructed from the box counts by unfolding periodicity."""
    n, q = L.n, L.exponent
    phis = L.phi_polynomials()
    total = 0
    for s in range(n - ell + 1):
        inner = 0
        for t in range(s, a + 1):
            inner += compositions_count(t - s, n - ell) * phis[ell + s].coeffs.get((a - t) * q + r, 0)
        total += (1 << s) * binom(ell + s, s) * inner
    return total


def f_rational_p0_direct(L: CongruenceLattice) -> RationalSeries:
    """Independent closed form of F^0 straight from the theta series:
    (theta / (1-z^2)^(n-1) - 1) / z."""
    theta = theta_rational(L)
    base = RationalSeries(theta.numerator, theta.denominator + ((2, L.n - 1),)) + RationalSeries(-1)
    return RationalSeries(base.numerator.shift(-1), base.denominator)


def check_verify_work(max_n: int, kmax: int) -> int:
    """Admit the Freudenthal tables of the battery, the part that grows
    fastest, and return their word steps: the table of rank m and highest
    weight of one-norm N = k + p scans the dominant weights of one-norm <= N,
    each along m (m - 1) root strings of length <= N, one step per root
    string entry moving a one-word multiplicity.  Counting stops once past
    the limit, so a refusal is quick."""
    work = 0
    for m in range(2, max_n + 1):
        for p in range(1, m + 1):
            for N in range(p, p + kmax + 1):
                work += m * (m - 1) * N * sum(1 for _ in _dominant_below(m, N)) * (_STEP_WORDS + 1)
                admit(work, f"verify at n={max_n}, kmax={kmax}")
    return work


def _binom_convention() -> str:
    import math

    for b in range(31):
        for a in range(b + 1):
            assert binom(b, a) == math.factorial(b) // (math.factorial(a) * math.factorial(b - a))
    assert binom(1, 3) == 0 and binom(4, -1) == 0
    return "0 <= a <= b <= 30 plus out-of-range conventions"


def _ring_axioms(rng: random.Random) -> str:
    def rand_poly():
        return LaurentPolynomial({rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(4)})

    for _ in range(200):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
    return "200 random triples"


def _series_consistency(rng: random.Random) -> str:
    one = RationalSeries(1, ((1, 3),))
    assert one.expand(3) == [1, 3, 6, 10]
    for _ in range(40):
        num = LaurentPolynomial({rng.randint(0, 4): rng.randint(-5, 5) for _ in range(3)})
        fac = tuple((rng.randint(1, 3), rng.randint(1, 2)) for _ in range(2))
        r1 = RationalSeries(num, fac)
        extra = rng.randint(1, 3)
        r2 = RationalSeries(num * LaurentPolynomial({0: 1, extra: -1}), fac + ((extra, 1),))
        assert r1 == r2
        assert r1.expand(50) == r2.expand(50)
    return "equality implies identical order-50 expansions"


def check_multiplicity_closed_form(max_n: int, kmax: int) -> str:
    """Closed multiplicities of the weight classes of one-norm <= k + p + 2 against Freudenthal's."""
    checked = 0
    for n in range(2, max_n + 1):
        for p in range(1, n + 1):
            for k in range(kmax + 1):
                for norm, zeros in weight_classes(n, k + p + 2):
                    mu = class_representative(n, norm, zeros)
                    lhs = _class_multiplicity(n, k, p, norm, zeros)
                    rhs = oracle_weight_multiplicity(k, p, mu, n)
                    assert lhs == rhs, (n, k, p, norm, zeros, lhs, rhs)
                    checked += 1
    return f"{checked} classes, n <= {max_n}, k <= {kmax}"


def check_dimension_sums(max_n: int, kmax: int) -> str:
    """Class sizes times closed multiplicities sum to the Weyl dimension of family (k, p)."""
    checked = 0
    for n in range(2, max_n + 1):
        for p in range(1, n + 1):
            for k in range(kmax + 1):
                total = sum(
                    class_size(n, norm, zeros) * _class_multiplicity(n, k, p, norm, zeros)
                    for norm, zeros in weight_classes(n, k + p)
                )
                dimension = sum(weyl_dimension(lam, n) for lam in family_highest_weights(k, p, n))
                assert total == dimension, (n, k, p)
                checked += 1
    return f"{checked} representations"


def check_theta_rational(lattices) -> str:
    """Each theta^(ell) expands to the shell counts to order 3q, and theta is their sum."""
    for L in lattices:
        top = 3 * L.exponent
        table = shell_table(L, top)
        for ell in range(L.n + 1):
            got = theta_ell_rational(L, ell).expand(top)
            assert got == [table[k][ell] for k in range(top + 1)], (L.label(), ell)
        summed = RationalSeries(0)
        for ell in range(L.n + 1):
            summed = summed + theta_ell_rational(L, ell)
        assert theta_rational(L) == summed, L.label()
    return f"{len(lattices)} lattices to order 3q"


def check_reduced_convolution(lattices) -> str:
    """The shell counts below 4q equal :func:`convolution_rhs` of the box counts."""
    for L in lattices:
        q = L.exponent
        table = shell_table(L, 3 * q + q)
        for a in range(4):
            for r in range(q):
                for ell in range(L.n + 1):
                    lhs = table[a * q + r][ell]
                    assert lhs == convolution_rhs(L, a, r, ell), (L.label(), a, r, ell)
    return f"{len(lattices)} lattices, a <= 3"


def check_central_identity(lattices, order: int) -> str:
    """Coefficient k <= order of F^(p-1) is the invariant dimension of family (k, p)."""
    for L in lattices:
        for p, want in enumerate(invariant_dimensions(L, order), 1):
            assert f_rational(L, p - 1).expand(order) == want, (L.label(), p)
    return f"{len(lattices)} lattices to order {order}"


def check_zero_form_closed_form(lattices) -> str:
    """F^0 equals :func:`f_rational_p0_direct`."""
    for L in lattices:
        assert f_rational(L, 0) == f_rational_p0_direct(L), L.label()
    return f"{len(lattices)} lattices"


def _degree_window(max_n: int) -> str:
    for n in range(2, max_n + 1):
        for p in range(1, n + 1):
            for ell in range(n + 1):
                poly = a_laurent(p, ell, n)
                if poly:
                    assert poly.min_exp() >= -p and max(poly.coeffs) <= p - 2, (p, ell, n)
    return f"exponents within [-p, p-2] for n <= {max_n}"


def check_sphere_spectrum() -> str:
    """The 3-sphere's functions: eigenvalue k(k+2) with multiplicity (k+1)^2, k <= 20."""
    table = spectrum_table(lattice_from_lens(1, (0, 0)), 0, 20)
    want = [(k * (k + 2), (k + 1) ** 2) for k in range(21)]
    assert [(e.eigenvalue, e.multiplicity) for e in table] == want
    return "3-sphere functions to k = 20"


def run_checks(max_n: int = 3, kmax: int = 6) -> list[CheckResult]:
    """Run every cross-route identity at the given scale; raises
    InvalidParameters before any check runs when :func:`check_verify_work`
    refuses it."""
    if max_n < 2:
        raise InvalidParameters("largest rank n must be >= 2")
    if kmax < 0:
        raise InvalidParameters("kmax must be >= 0")
    check_verify_work(max_n, kmax)
    rng = random.Random(0)
    lattices = _sample_lattices(max_n)
    checks = (
        ("binom-convention", _binom_convention),
        ("laurent-ring-axioms", lambda: _ring_axioms(rng)),
        ("series-expand-equal", lambda: _series_consistency(rng)),
        ("multiplicity-closed-form", lambda: check_multiplicity_closed_form(max_n, kmax)),
        ("dimension-sums", lambda: check_dimension_sums(max_n, kmax)),
        ("theta-rational", lambda: check_theta_rational(lattices)),
        ("reduced-convolution", lambda: check_reduced_convolution(lattices)),
        ("central-identity", lambda: check_central_identity(lattices, 20)),
        ("zero-form-closed-form", lambda: check_zero_form_closed_form(lattices)),
        ("laurent-weight-degrees", lambda: _degree_window(max_n)),
        ("sphere-spectrum", check_sphere_spectrum),
    )
    results = []
    for name, check in checks:
        try:
            results.append(CheckResult(name, True, check()))
        except LenspecError as exc:  # configuration errors count as failures
            results.append(CheckResult(name, False, str(exc)))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc) or "assertion failed"))
    return results
