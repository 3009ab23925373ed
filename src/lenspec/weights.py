"""Certification route: closed-form weight multiplicities summed over an
enumeration of lattice shells.

The multiplicity of a weight in the harmonic family representations of
so(2n) depends only on the weight's class (norm, zeros): its one-norm and
its number of zero entries.  :func:`weight_classes` lists the classes,
:func:`class_representative` and :func:`class_size` give one weight of a
class and its number of weights, and :func:`_class_multiplicity` evaluates
the closed form directly.  Summing it against lattice shell counts gives
the dimension of the invariant subspace, which is exactly an eigenvalue
multiplicity of the quotient.

:func:`invariant_dimensions` gives these dimensions for the families (k, p),
k = 0..order, in one row per p = 1..n, all read off one shell table.  Its
``rows[p-1]`` is the expansion of F^(p-1): the eigenvalue paired with
(k, p-1) on (p-1)-forms has multiplicity ``rows[p-1][k-1]``, and the one
paired with (k, p) has ``rows[p][k-1]``.  Production reads the same numbers off the series
of :mod:`lenspec.genfun`; this module serves ``verify`` and the tests, and its
shell enumeration shares no code with the box count behind those series.
"""

import math
from functools import lru_cache

from .errors import InvalidParameters
from .lattice import CongruenceLattice
from .polyseries import binom

# Largest ball of integer points, by one-norm, that one enumeration may cover.
_SHELL_POINT_LIMIT = 10**8


def _ball_size(d: int, k: int) -> int:
    """Number of integer vectors in Z^d with one-norm <= k."""
    if k < 0:
        return 0
    return sum((1 << i) * math.comb(d, i) * math.comb(k, i) for i in range(d + 1))


def _enumerate_shells(L: CongruenceLattice, hi: int) -> list[tuple[int, ...]]:
    """Rows 0..hi of the shell table, each lattice vector generated once.

    The first n - 1 coordinates take every value that keeps the one-norm
    <= hi, carrying the norm, the zero count and the congruence residues.
    The last coordinate is solved: its values that cancel those residues are
    one class modulo ``period``, stepped through within the norms <= hi.
    """
    n = L.n
    width = n + 1
    congs = L.congruences
    # one bit field of residues per congruence; a field adds at most n - 1
    # residues below its modulus, so none carries into the next
    bits = (n * L.exponent).bit_length()
    shifts = range(0, len(congs) * bits, bits)

    def residues(j, x):
        return sum((x * s[j] % q) << t for t, (q, s) in zip(shifts, congs))

    def reduced(key):
        return sum((key >> t) % (1 << bits) % q << t for t, (q, _) in zip(shifts, congs))

    packed = [[residues(j, x) for x in range(-hi, hi + 1)] for j in range(n - 1)]
    period = math.lcm(*(q // math.gcd(q, s[-1]) for q, s in congs))
    # the least value >= 0 of the last coordinate that cancels the residues
    least = {residues(n - 1, -x): x for x in range(period)}
    solved: dict[int, int] = {}
    counts = [0] * ((hi + 1) * width)

    def walk(j, norm, zeros, key):
        span = hi - norm
        values = zip(range(-span, span + 1), packed[j][hi - span : hi + span + 1])
        if j < n - 2:
            for x, c in values:
                walk(j + 1, norm + abs(x), zeros + (x == 0), key + c)
            return
        for x, c in values:
            x0 = solved.get(key + c)
            if x0 is None:
                x0 = solved[key + c] = least.get(reduced(key + c), -1)
            if x0 < 0:
                continue
            part = norm + abs(x)
            z = zeros + (x == 0)
            if x0 == 0:
                counts[part * width + z + 1] += 1
            # the last value is t or -t, with 1 <= t <= hi - part
            base = part * width + z
            stop = base + (hi - part) * width + 1
            for r in (x0, -x0):
                first = 1 + (r - 1) % period
                for i in range(base + first * width, stop, period * width):
                    counts[i] += 1

    walk(0, 0, 0, 0)
    return list(zip(*[iter(counts)] * width))


def shell_table(L: CongruenceLattice, kmax: int) -> list[tuple[int, ...]]:
    """Table N[k][zeros] of lattice vectors with one-norm k, for 0 <= k <= kmax,
    by brute-force enumeration, refused above the point limit before it starts."""
    if kmax < 0:
        raise InvalidParameters("kmax must be >= 0")
    points = _ball_size(L.n, kmax)
    if points > _SHELL_POINT_LIMIT:
        raise InvalidParameters(
            f"shell enumeration to one-norm {kmax} in rank {L.n} covers {points}"
            f" points, above the limit of {_SHELL_POINT_LIMIT}"
        )
    return _enumerate_shells(L, kmax)


def weight_classes(n: int, max_norm: int):
    """The (norm, zeros) classes of weights of Z^n with one-norm <= max_norm:
    norm 0 has n zeros, and a positive norm spreads over n - zeros >= 1
    nonzero entries."""
    for norm in range(max_norm + 1):
        for zeros in range(n + 1):
            if (norm == 0) == (zeros == n) and norm >= n - zeros:
                yield norm, zeros


def class_representative(n: int, norm: int, zeros: int) -> tuple[int, ...]:
    """One weight of the class: (norm - nonzeros + 1, 1, ..., 1, 0, ..., 0)."""
    nonzeros = n - zeros
    if nonzeros == 0:
        return (0,) * n
    return (norm - (nonzeros - 1),) + (1,) * (nonzeros - 1) + (0,) * zeros


def class_size(n: int, norm: int, zeros: int) -> int:
    """Number of weights of Z^n in the class, 0 for an infeasible one."""
    nonzeros = n - zeros
    if norm == 0 or nonzeros == 0:
        # the zero weight alone has norm 0 or no nonzero entry
        return int(norm == nonzeros == 0)
    return binom(n, zeros) * (1 << nonzeros) * binom(norm - 1, nonzeros - 1)


@lru_cache(maxsize=1 << 16)
def _class_multiplicity(n: int, k: int, p: int, norm: int, zeros: int) -> int:
    """Multiplicity of any weight with the given (norm, zeros) in family (k, p)."""
    gap = k + p - norm
    if gap < 0 or gap % 2:
        return 0
    r = gap // 2
    total = 0
    for j in range(1, p + 1):
        sign = -1 if j % 2 == 0 else 1
        for t in range((p - j) // 2 + 1):
            c_t = binom(n - p + j + 2 * t, t)
            for beta in range(p - j - 2 * t + 1):
                c_b = (
                    (1 << (p - j - 2 * t - beta))
                    * binom(n - zeros, beta)
                    * binom(zeros, p - j - 2 * t - beta)
                )
                if c_b == 0:
                    continue
                for alpha in range(beta + 1):
                    c_a = binom(beta, alpha)
                    tail = 0
                    for i in range(j):
                        tail += binom(r - i - p + alpha + t + j + n - 2, n - 2)
                    total += sign * c_t * c_b * c_a * tail
    return total


def invariant_dimensions(L: CongruenceLattice, order: int) -> list[list[int]]:
    """Dimensions of the lattice-invariant subspaces of the families (k, p):
    row p - 1 holds k = 0..order for p = 1..n.

    Family (k, p) has weights of one-norm k + p, k + p - 2, ..., so one shell
    table to one-norm order + n serves every row.
    """
    if order < 0:
        raise InvalidParameters("order must be >= 0")
    n = L.n
    table = shell_table(L, order + n)
    return [
        [
            sum(
                count * _class_multiplicity(n, k, p, norm, zeros)
                for norm in range((k + p) % 2, k + p + 1, 2)
                for zeros, count in enumerate(table[norm])
                if count
            )
            for k in range(order + 1)
        ]
        for p in range(1, n + 1)
    ]
