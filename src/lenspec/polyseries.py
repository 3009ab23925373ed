"""Exact sparse Laurent polynomials and factored rational series.

Coefficients are plain Python integers everywhere, so arithmetic is exact at
any size.  A :class:`RationalSeries` keeps its denominator in the factored
form ``prod (1 - z^a)^b``; equality of two series is decided by a
cross-multiplied polynomial identity, never by comparing truncations.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping

from .errors import InvalidParameters, NegativeOrderTerm

# Largest number of coefficient writes one expansion may take: order + 1
# coefficients, each written once and updated once per denominator factor.
MAX_EXPAND_WORK = 200_000


def binom(b: int, a: int) -> int:
    """Binomial coefficient with the convention binom(b, a) = 0 for b < a or a < 0."""
    if a < 0 or b < a:
        return 0
    return math.comb(b, a)


def check_expand_work(order: int, factors: int) -> None:
    """Reject an expansion to ``order`` over ``factors`` denominator factors
    (counted with multiplicity) whose work exceeds :data:`MAX_EXPAND_WORK`."""
    work = (order + 1) * (factors + 1)
    if work > MAX_EXPAND_WORK:
        raise InvalidParameters(
            f"series expansion to order {order} needs {work} coefficient writes,"
            f" above the limit of {MAX_EXPAND_WORK}"
        )


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
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exponent: int) -> "LaurentPolynomial":
        """The monomial coeff * z^exponent."""
        return cls({exponent: coeff})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_exp(self) -> int | None:
        """Lowest exponent carrying a nonzero coefficient, or None for 0."""
        return min(self.coeffs) if self.coeffs else None

    def max_exp(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

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
        res = LaurentPolynomial.__new__(LaurentPolynomial)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        res = LaurentPolynomial.__new__(LaurentPolynomial)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other) -> "LaurentPolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial()
            res = LaurentPolynomial.__new__(LaurentPolynomial)
            res.coeffs = {e: c * other for e, c in self.coeffs.items()}
            return res
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
        res = LaurentPolynomial.__new__(LaurentPolynomial)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise InvalidParameters("polynomial powers must be nonnegative integers")
        result = LaurentPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, exponent: int) -> "LaurentPolynomial":
        """Multiply by z^exponent (any integer exponent)."""
        res = LaurentPolynomial.__new__(LaurentPolynomial)
        res.coeffs = {e + exponent: c for e, c in self.coeffs.items()}
        return res

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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
    """The expanded factor (1 - z^a)^b."""
    return LaurentPolynomial({0: 1, a: -1}) ** b


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

    @classmethod
    def zero(cls) -> "RationalSeries":
        return cls(LaurentPolynomial.zero())

    def over_factor(self, a: int, b: int = 1) -> "RationalSeries":
        """Divide by (1 - z^a)^b, i.e. append a denominator factor."""
        return RationalSeries(self.numerator, self.denominator + ((a, b),))

    # -- expansion ---------------------------------------------------------------

    def expand(self, order: int) -> list[int]:
        """Coefficients of z^0 .. z^order of the formal power-series expansion.

        Raises NegativeOrderTerm when the expansion is not an honest power
        series.  Every factor (1 - z^a) has constant term 1, so that happens
        exactly when the numerator has a nonzero coefficient at a negative
        exponent.  Raises InvalidParameters, before allocating anything, when
        the work exceeds :data:`MAX_EXPAND_WORK`.
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

    # -- exact comparisons and ring operations -------------------------------------

    def _merge(self, other: "RationalSeries"):
        d1 = dict(self.denominator)
        d2 = dict(other.denominator)
        common = {a: max(d1.get(a, 0), d2.get(a, 0)) for a in set(d1) | set(d2)}
        m1 = _cofactor(common, d1)
        m2 = _cofactor(common, d2)
        return m1, m2, tuple(sorted(common.items()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, LaurentPolynomial)):
            other = RationalSeries(other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        m1, m2, _ = self._merge(other)
        return self.numerator * m1 == other.numerator * m2

    __hash__ = None

    def __add__(self, other) -> "RationalSeries":
        if isinstance(other, (int, LaurentPolynomial)):
            other = RationalSeries(other)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        m1, m2, common = self._merge(other)
        return RationalSeries(self.numerator * m1 + other.numerator * m2, common)

    __radd__ = __add__

    def __neg__(self) -> "RationalSeries":
        return RationalSeries(-self.numerator, self.denominator)

    def __sub__(self, other) -> "RationalSeries":
        if isinstance(other, RationalSeries):
            return self + (-other)
        p = _as_poly(other)
        if p is NotImplemented:
            return NotImplemented
        return self + (-p)

    def __mul__(self, other) -> "RationalSeries":
        if isinstance(other, (int, LaurentPolynomial)):
            return RationalSeries(self.numerator * other, self.denominator)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        merged = dict(self.denominator)
        for a, b in other.denominator:
            merged[a] = merged.get(a, 0) + b
        return RationalSeries(self.numerator * other.numerator, merged.items())

    __rmul__ = __mul__

    # -- rendering ------------------------------------------------------------------

    def to_text(self) -> str:
        """Text form ``numerator | (1-z^a)^b * ...`` used by the CLI."""
        if not self.denominator:
            return f"{self.numerator.to_text()} | 1"
        den = " * ".join(f"(1-z^{a})^{b}" for a, b in self.denominator)
        return f"{self.numerator.to_text()} | {den}"

    def __repr__(self) -> str:
        return f"RationalSeries({self.to_text()!r})"


def _cofactor(common: dict[int, int], have: dict[int, int]) -> LaurentPolynomial:
    out = LaurentPolynomial.one()
    for a, b in common.items():
        missing = b - have.get(a, 0)
        if missing:
            out = out * one_minus_z(a, missing)
    return out
