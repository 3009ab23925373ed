"""Exact sparse Laurent polynomials and factored rational series.

Coefficients are plain Python integers everywhere, so arithmetic is exact at
any size.  A :class:`RationalSeries` keeps its denominator in the factored
form ``prod (1 - z^a)^b``.  It offers an expansion to a bounded order, a
sum, and an exact comparison: equality, and the first power at which two
series differ with their coefficients there, are decided by one
cross-multiplication, never by comparing truncations: both numerators are
brought over the common denominator, a numerator already over it with no
product, and compared term by term.  The two coefficients at that power are
read off each series' expansion up to it.  The power is an exponent of a
numerator over the common denominator, and the chain's numerators have terms
throughout their degree range, so that expansion costs about what bringing
them over it did; a sparse numerator that differs far past its terms is
refused by the expansion's work bound.
"""

import math
from collections.abc import Iterable, Iterator, Mapping

from .errors import _STEP_WORDS, InvalidParameters, NegativeOrderTerm, admit


def binom(b: int, a: int) -> int:
    """Binomial coefficient with the convention binom(b, a) = 0 for b < a or a < 0."""
    if a < 0 or b < a:
        return 0
    return math.comb(b, a)


def check_expand_work(order: int, factors: int, series: int = 1) -> int:
    """Admit expanding ``series`` series to ``order`` over at most ``factors``
    denominator factors (counted with multiplicity): each of the order + 1
    coefficients of a series is written once and updated once per factor, one
    step each, and a step moves a coefficient of the denominator's expansion,
    at most (order + 1)^factors."""
    words = -(-factors * (order + 1).bit_length() // 64)
    steps = series * (order + 1) * (factors + 1)
    return admit(steps * (_STEP_WORDS + words), f"expanding {series} series to order {order}")


class LaurentPolynomial:
    """Sparse Laurent polynomial in one variable z with integer coefficients.

    Coefficients are stored as a map exponent -> coefficient; exponents may be
    negative and zero coefficients are never stored.  Instances are treated as
    immutable: every operation returns a new polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    data[e] = c
        self.coeffs = data

    # -- constructors -------------------------------------------------------

    @classmethod
    def _wrap(cls, coeffs: dict[int, int]) -> "LaurentPolynomial":
        """The polynomial that owns ``coeffs``, a dict that already holds no
        zero coefficient, so it is neither filtered nor copied."""
        res = cls.__new__(cls)
        res.coeffs = coeffs
        return res

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def term(cls, coeff: int, exponent: int) -> "LaurentPolynomial":
        """The monomial coeff * z^exponent."""
        return cls({exponent: coeff})

    # -- queries -------------------------------------------------------------

    def min_exp(self) -> int | None:
        """Lowest exponent carrying a nonzero coefficient, or None for 0."""
        return min(self.coeffs) if self.coeffs else None

    def terms(self) -> Iterator[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return iter(sorted(self.coeffs.items()))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other) -> "LaurentPolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial._wrap(out)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial()
            return LaurentPolynomial._wrap({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPolynomial._wrap(out)

    def shift(self, exponent: int) -> "LaurentPolynomial":
        """Multiply by z^exponent (any integer exponent)."""
        return LaurentPolynomial._wrap({e + exponent: c for e, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- rendering -------------------------------------------------------------

    def to_text(self) -> str:
        """Sparse text form ``c*z^e + ...`` with ascending exponents."""
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*z^{e}" for e, c in self.terms())

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.to_text()!r})"


def _as_poly(value) -> "LaurentPolynomial":
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, int):
        return LaurentPolynomial({0: value})
    return NotImplemented


def one_minus_z(a: int, b: int = 1) -> LaurentPolynomial:
    """The expanded factor (1 - z^a)^b = sum_i (-1)^i C(b, i) z^(a i)."""
    coeffs, c = {}, 1
    for i in range(b + 1):
        coeffs[a * i] = -c if i % 2 else c
        c = c * (b - i) // (i + 1)  # C(b, i + 1)
    return LaurentPolynomial._wrap(coeffs)


class RationalSeries:
    """A rational function numerator / prod (1 - z^a)^b, kept exactly.

    The denominator is a factor list of pairs (a, b) meaning (1 - z^a)^b with
    a >= 1 and b >= 1; it is stored factored and only the factors one side is
    missing are expanded when two series are combined or compared.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator: Iterable[tuple[int, int]] = ()):
        num = _as_poly(numerator)
        if num is NotImplemented:
            raise InvalidParameters("numerator must be a LaurentPolynomial or int")
        merged: dict[int, int] = {}
        for a, b in denominator:
            if a < 1 or b < 0:
                raise InvalidParameters(f"bad denominator factor (1-z^{a})^{b}")
            if b:
                merged[a] = merged.get(a, 0) + b
        self.numerator = num
        self.denominator = tuple(sorted(merged.items()))

    # -- expansion ---------------------------------------------------------------

    def expand(self, order: int) -> list[int]:
        """Coefficients of z^0 .. z^order of the formal power-series expansion.

        Raises NegativeOrderTerm when the expansion is not an honest power
        series.  Every factor (1 - z^a) has constant term 1, so that happens
        exactly when the numerator has a nonzero coefficient at a negative
        exponent.  Raises InvalidParameters, before allocating anything, when
        :func:`check_expand_work` refuses the work.
        """
        if order < 0:
            raise InvalidParameters("expansion order must be >= 0")
        check_expand_work(order, sum(b for _, b in self.denominator))
        lo = self.numerator.min_exp()
        if lo is not None and lo < 0:
            raise NegativeOrderTerm(
                f"series has a nonzero coefficient at z^{lo}"
            )
        arr = [0] * (order + 1)
        for e, c in self.numerator.coeffs.items():
            if e <= order:
                arr[e] += c
        for a, b in self.denominator:
            for _ in range(b):
                for i in range(a, order + 1):
                    arr[i] += arr[i - a]
        return arr

    # -- exact comparisons and sums -------------------------------------------------

    def _merge(self, other: "RationalSeries"):
        """The common denominator of the two series and each numerator over
        it.  A numerator whose denominator already is the common one is
        returned as it is, with no product."""
        d1 = dict(self.denominator)
        d2 = dict(other.denominator)
        common = {a: max(d1.get(a, 0), d2.get(a, 0)) for a in d1.keys() | d2.keys()}
        return tuple(sorted(common.items())), _over(self.numerator, common, d1), _over(other.numerator, common, d2)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, LaurentPolynomial)):
            other = RationalSeries(other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        _, left, right = self._merge(other)
        return left.coeffs == right.coeffs

    __hash__ = None

    def first_difference(self, other: "RationalSeries") -> tuple[int, int, int] | None:
        """None when the series are equal, otherwise (k, a, b): their expansions
        first differ at z^k, with coefficients a and b.  k is the least
        exponent at which the numerators over the common denominator differ,
        the ones ``==`` compares: that denominator has constant term 1.  a and
        b are read off ``expand(k)`` of each series, so a negative power raises
        NegativeOrderTerm and work over the limit InvalidParameters, before
        the expansion allocates anything."""
        _, left, right = self._merge(other)
        left, right = left.coeffs, right.coeffs
        if left == right:
            return None
        # no coefficient is stored as 0, so get gives None only where the
        # other side's coefficient is nonzero
        k = next(e for e in sorted(left.keys() | right.keys()) if left.get(e) != right.get(e))
        # a negative k is a negative power, which expand refuses at any order
        return k, self.expand(max(k, 0))[k], other.expand(max(k, 0))[k]

    def __add__(self, other) -> "RationalSeries":
        if isinstance(other, (int, LaurentPolynomial)):
            other = RationalSeries(other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        common, left, right = self._merge(other)
        return RationalSeries(left + right, common)

    # -- rendering ------------------------------------------------------------------

    def to_text(self) -> str:
        """Text form ``numerator | (1-z^a)^b * ...`` used by the CLI."""
        if not self.denominator:
            return f"{self.numerator.to_text()} | 1"
        den = " * ".join(f"(1-z^{a})^{b}" for a, b in self.denominator)
        return f"{self.numerator.to_text()} | {den}"

    def __repr__(self) -> str:
        return f"RationalSeries({self.to_text()!r})"


def _over(numerator: LaurentPolynomial, common: dict[int, int], have: dict[int, int]) -> LaurentPolynomial:
    # the numerator times the factors of ``common`` that ``have`` lacks: the
    # numerator itself when it lacks none
    for a, b in common.items():
        missing = b - have.get(a, 0)
        if missing:
            numerator = numerator * one_minus_z(a, missing)
    return numerator
