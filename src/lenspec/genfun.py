"""Exact rational generating functions for lattice counts and form spectra.

The one-norm count series theta and its refinements theta^(ell) by zero
entries are rational with denominator (1 - z^q)^(n - ell); their numerators
come from the finite box-count polynomials phi_m.  Every series here is
sum_m phi_m W_m on a denominator known in advance; :func:`phi_weights` turns
the weights w_ell of sum_ell w_ell theta^(ell) into the W_m on (1 - z^q)^n.
F^p takes a_laurent(p+1, ell, n) plus a corrective polynomial over
(1-z^2)^(n-1) (1-z^q)^n, moment h takes ell^h and theta takes 1.  Nothing
here is cached: each call builds the W_m it uses.  One builder gives the
moment weights of orders 0..p0, and a search or a comparison of two spaces
builds them once per exponent and takes every moment numerator with them.

A batch of series has one count of word steps, :func:`check_series_work`:
given the orders of its F^p and the number of its moment series, it admits
their a_laurent weights, phi_m weights and products phi_m W_m through
:func:`lenspec.errors.admit`, each stage on its own, before any weight is
built or any box is counted.  Every caller that builds F^p or moment series
makes one such call for its whole batch; theta admits itself through
:func:`moment_series`.  The theta^(ell), whose weights are monomials, take
no count of their own: phi_m meets one monomial in each theta^(ell) with
ell <= m, m + 1 in all, and the count of F^0 takes its W_m at m + 1 terms,
so the products of all n + 1 of them take at most the product steps counted
for F^0.
"""

from collections.abc import Iterator
from itertools import accumulate

from .errors import _STEP_WORDS, InvalidParameters, NegativeOrderTerm, admit
from .lattice import CongruenceLattice
from .polyseries import LaurentPolynomial, RationalSeries, binom, one_minus_z


def theta_ell_rational(L: CongruenceLattice, ell: int) -> RationalSeries:
    """Generating function of shell counts with exactly ``ell`` zero entries.

    Exact rational form with denominator (1 - z^q)^(n - ell), q the lattice
    exponent; the coefficient of z^k is the count N(k, ell).
    """
    n, q = L.n, L.exponent
    if not 0 <= ell <= n:
        raise InvalidParameters(f"ell must lie in 0..{n}")
    # W_m = C(m, ell) (2 z^q)^(m - ell) for m >= ell
    weights = [LaurentPolynomial.term(binom(m, ell) << (m - ell), (m - ell) * q) for m in range(ell, n + 1)]
    factors = ((q, n - ell),) if n > ell else ()
    return RationalSeries(_phi_sum(L.phi_polynomials()[ell:], weights), factors)


def theta_rational(L: CongruenceLattice) -> RationalSeries:
    """Generating function of all shell counts, with denominator (1 - z^q)^n:
    the moment series of order 0."""
    return moment_series(L, 0)[0]


def phi_weights(q: int, weights) -> list[LaurentPolynomial]:
    """The weights W_m of phi_m, m = 0..n, in sum_ell w_ell theta^(ell) on
    (1 - z^q)^n, for w_0..w_n integers or Laurent polynomials:
    W_m = sum_ell C(m, ell) (2 z^q)^(m - ell) (1 - z^q)^ell w_ell, as theta^(ell)
    weights phi_m by C(m, ell) (2 z^q)^(m - ell) on (1 - z^q)^(n - ell)."""
    lifted = [one_minus_z(q, ell) * w for ell, w in enumerate(weights)]
    zero = LaurentPolynomial.zero()
    return [
        sum((lifted[ell].shift((m - ell) * q) * (binom(m, ell) << (m - ell)) for ell in range(m + 1)), zero)
        for m in range(len(lifted))
    ]


def _moment_weights(q: int, n: int, p0: int) -> Iterator[list[LaurentPolynomial]]:
    """The phi_m weights W_m of the moment series of orders h = 0..p0 in the
    exponent q (w_ell = ell^h, 0^0 = 1), one list per order, built when reached."""
    return (phi_weights(q, [ell**h for ell in range(n + 1)]) for h in range(p0 + 1))


def _phi_sum(phis, weights) -> LaurentPolynomial:
    # sum_m phi_m W_m
    return sum((phi * w for phi, w in zip(phis, weights)), LaurentPolynomial.zero())


def a_laurent(p: int, ell: int, n: int) -> LaurentPolynomial:
    """Universal Laurent weight attached to the zero-entry count ``ell``.

    Depends only on (p, ell, n); every exponent lies in [-p, p-2].  It is one
    coefficient of a product,

        a_laurent(p, ell, n) = (-1)^(p+1) z^(p-2) [y^(p-1)]
            ((1 - y)(1 - y/z^2))^(n-ell-1) (1 - 2y + y^2/z^2)^ell.

    That is the paper's sum over (j, t, beta, alpha, i): its alpha-sum is
    (1 + z^-2)^beta, its beta-sum a coefficient of
    (1 + (1 + z^-2) x)^(n-ell) (1 + 2x)^ell and its i-sum geometric;
    regrouped by m = p - j - 2t, they collapse to the coefficient above.
    With k = n - ell - 1 and i = p - 1 - c - 2d, the coefficient is the sum
    of 2^c C(ell, d) C(ell - d, c) C(k, i - b) C(k, b) z^(p-2-2(b+d)) over
    0 <= b <= i, as (-1)^(p+1) cancels the signs of the powers of y;
    for ell = n, C(-1, a) = (-1)^a.
    """
    if n < 2:
        raise InvalidParameters("rank n must be >= 2")
    if not 1 <= p <= n:
        raise InvalidParameters(f"p must lie in 1..{n}")
    if not 0 <= ell <= n:
        raise InvalidParameters(f"ell must lie in 0..{n}")
    k = n - ell - 1
    row = [binom(k, a) if k >= 0 else (-1) ** a for a in range(p)]
    coeffs: dict[int, int] = {}
    for d in range(min(ell, (p - 1) // 2) + 1):
        for c in range(min(ell - d, p - 1 - 2 * d) + 1):
            i = p - 1 - c - 2 * d
            w = binom(ell, d) * binom(ell - d, c) << c
            for b in range(i + 1):
                e = p - 2 - 2 * (b + d)
                coeffs[e] = coeffs.get(e, 0) + w * row[i - b] * row[b]
    return LaurentPolynomial(coeffs)


def check_series_work(n: int, exponent: int, fs=(), moments: int = 0) -> int:
    """Admit building F^p for every order p in ``fs`` and ``moments`` moment
    series on a lattice of rank n and exponent E, and return their word steps.

    Their weights w_ell have up to P terms, P = p + 1 for F^p and 1 for a
    moment series.  Three stages are admitted, each on its own and in order:

    - the a_laurent weights of F^p: one weight sums at most
      S(P) = (P+1)(P+3)(2P+1) // 24 terms, the count of (d, c, b) when
      ell >= P - 1, one step each for ell = 0..n; a step moves a
      coefficient of at most 4^n;
    - the phi_m weights (:func:`phi_weights`): the lifted weight
      (1 - z^E)^ell w_ell has at most P + ell min(P, E) terms, and W_m
      shifts, scales and adds those of every ell <= m, three steps a term;
      a step moves a coefficient of at most 4^n n^n;
    - the products phi_m W_m: phi_m has degree at most (n - m)(E - 1), and
      W_m sums m + 1 shifts by multiples of E of polynomials whose exponents
      lie in one set of at most P values, so at most P + m min(P, E) terms.
      Each pair of terms is one step; it moves a coefficient of phi_m, at
      most (2E)^(n-1), and one of W_m.

    Each count stops once past the limit, so the check stays small at any n.
    """
    ps = [p + 1 for p in fs]
    batch = ps + [1] * moments
    E, bits = exponent, (4 * n).bit_length()
    # per stage, the word steps of one step: its overhead and the words it moves
    laurent = _STEP_WORDS + -(-2 * n // 64)
    weight = _STEP_WORDS + -(-n * bits // 64)
    product = _STEP_WORDS + -(-((n - 1) * (2 * E).bit_length() + n * bits) // 64)
    return (
        _admit_sum(
            ((n + 1) * ((P + 1) * (P + 3) * (2 * P + 1) // 24) * laurent for P in ps), f"the F^p weights of rank {n}"
        )
        + _admit_sum(
            (3 * (P * (n + 1) * (n + 2) // 2 + min(P, E) * n * (n + 1) * (n + 2) // 6) * weight for P in batch),
            f"the phi_m weights of rank {n}",
        )
        + _admit_sum(
            (sum(((n - m) * (E - 1) + 1) * (P + m * min(P, E)) for m in range(n + 1)) * product for P in batch),
            f"the phi_m W_m products of rank {n} and exponent {E}",
        )
    )


def _admit_sum(works, what: str) -> int:
    # admit the running sum of ``works`` after each term
    total = 0
    for total in accumulate(works):
        admit(total, what)
    return total


def f_rational(L: CongruenceLattice, p: int) -> RationalSeries:
    """Spectrum-encoding series F^p: coefficient k is the multiplicity of the
    (k+1)-st eigenvalue of the p-family on p-forms of the quotient.

    Sums theta^(ell) times a_laurent(p+1, ell, n) on (1-z^2)^(n-1) (1-z^q)^n;
    the corrective monomial -+z^(-p-1) cancels exactly against them, so no
    negative exponent survives.  One that does signals an internal
    inconsistency and raises NegativeOrderTerm.  The a_laurent and phi_m
    weights, the products phi_m W_m and the box count are admitted before any
    weight is built (InvalidParameters).
    """
    n, q = L.n, L.exponent
    if not 0 <= p <= n - 1:
        raise InvalidParameters(f"p must lie in 0..{n - 1}")
    check_series_work(n, q, (p,))
    P = p + 1
    phis = L.phi_polynomials()
    weights = phi_weights(q, [a_laurent(P, ell, n) for ell in range(n + 1)])
    sign = -1 if P % 2 else 1
    corrective = (one_minus_z(q, n) * one_minus_z(2, n - 1) * sign).shift(-P)
    series = RationalSeries(_phi_sum(phis, weights) + corrective, ((q, n), (2, n - 1)))
    lo = series.numerator.min_exp()
    if lo is not None and lo < 0:
        raise NegativeOrderTerm(
            f"pole cancellation failed for {L.label()} at p={p}: z^{lo} survives"
        )
    return series


def moment_series(L: CongruenceLattice, p0: int) -> list[RationalSeries]:
    """The moment series sum_ell ell^h * theta^(ell), with 0^0 = 1, for every
    order h = 0 .. p0, each on the denominator (1 - z^q)^n.  Raises
    InvalidParameters unless 0 <= p0 <= n - 1, and before any work when its
    p0 + 1 sets of weights or their products are refused.
    """
    n, q = L.n, L.exponent
    if not 0 <= p0 <= n - 1:
        raise InvalidParameters(f"p0 must lie in 0..{n - 1}")
    check_series_work(n, q, moments=p0 + 1)
    phis = L.phi_polynomials()
    return [RationalSeries(_phi_sum(phis, weights), ((q, n),)) for weights in _moment_weights(q, n, p0)]
