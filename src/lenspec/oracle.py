"""Brute-force weight machinery for even orthogonal groups.

Everything here recomputes representation data of so(2n) from first
principles: the Freudenthal recursion over the D_n root system, the Weyl
dimension product, and direct monomial counting in symmetric and exterior
powers of the standard representation.  :func:`family_highest_weights` is
the one statement of the highest weights of the harmonic family (k, p),
both mirror components at p = n; the multiplicities and dimensions of the
family sum over them.  These routines certify the closed multiplicity
formulas in :mod:`lenspec.weights`; production code never calls them.

Conventions: weights live in Z^n written in the orthonormal epsilon basis
(so the inner product is the dot product), the positive roots are
e_i - e_j and e_i + e_j for i < j, the Weyl vector is (n-1, n-2, ..., 0),
and a weight is dominant when a_1 >= ... >= a_{n-1} >= |a_n|.
"""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product

from .errors import InternalError, InvalidParameters, NotDominant


def _check_rank(n: int) -> None:
    if n < 2:
        raise InvalidParameters("rank n must be >= 2")


def is_dominant(weight, n: int) -> bool:
    w = tuple(weight)
    if len(w) != n:
        return False
    return all(w[i] >= w[i + 1] for i in range(n - 2)) and w[n - 2] >= abs(w[n - 1])


def _require_dominant(weight, n: int) -> tuple[int, ...]:
    _check_rank(n)
    w = tuple(int(x) for x in weight)
    if not is_dominant(w, n):
        raise NotDominant(f"{w} is not dominant for rank {n}")
    return w


def dominant_representative(mu) -> tuple[int, ...]:
    """The dominant vector in the Weyl orbit of mu.

    The Weyl group permutes coordinates and flips an even number of signs; a
    zero coordinate absorbs one leftover flip.
    """
    vals = sorted((abs(x) for x in mu), reverse=True)
    negatives = sum(1 for x in mu if x < 0)
    if negatives % 2 and vals[-1] > 0:
        vals[-1] = -vals[-1]
    return tuple(vals)


def _positive_roots(n: int):
    roots = []
    for i in range(n):
        for j in range(i + 1, n):
            plus = [0] * n
            plus[i], plus[j] = 1, 1
            minus = [0] * n
            minus[i], minus[j] = 1, -1
            roots.append(tuple(plus))
            roots.append(tuple(minus))
    return tuple(roots)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _simple_root_coords(v, n: int):
    # coordinates of v in the simple-root basis; None unless all nonnegative integers
    c = []
    partial = 0
    for j in range(n - 2):
        partial += v[j]
        c.append(partial)
    partial += v[n - 2]
    if (partial - v[n - 1]) % 2:
        return None
    c.append((partial - v[n - 1]) // 2)
    c.append((partial + v[n - 1]) // 2)
    if any(x < 0 for x in c):
        return None
    return tuple(c)


def _dominant_below(n: int, maxnorm: int):
    # all dominant integer vectors with one-norm <= maxnorm
    def rec(i, prev, left):
        if i == n - 1:
            top = min(prev, left)
            for last in range(-top, top + 1):
                yield (last,)
            return
        for a in range(min(prev, left), -1, -1):
            for rest in rec(i + 1, a, left - a):
                yield (a,) + rest

    yield from rec(0, maxnorm, maxnorm)


@lru_cache(maxsize=1024)
def _dominant_multiplicities(lam: tuple[int, ...], n: int) -> dict:
    """Weight multiplicities of the irreducible with highest weight lam,
    tabulated on dominant weights only, via the Freudenthal recursion."""
    rho = tuple(range(n - 1, -1, -1))
    roots = _positive_roots(n)
    norm = sum(abs(x) for x in lam)
    lam_sum = sum(lam)
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    lam_rho2 = _dot(lam_rho, lam_rho)

    candidates = []
    for mu in _dominant_below(n, norm):
        if (lam_sum - sum(mu)) % 2:
            continue
        coords = _simple_root_coords(tuple(a - b for a, b in zip(lam, mu)), n)
        if coords is None:
            continue
        candidates.append((sum(coords), mu))
    candidates.sort()

    table: dict[tuple[int, ...], int] = {}
    for height, mu in candidates:
        if height == 0:
            table[mu] = 1
            continue
        rhs = 0
        for alpha in roots:
            k = 1
            while True:
                nu = tuple(m + k * a for m, a in zip(mu, alpha))
                mult = table.get(dominant_representative(nu))
                if mult is None:
                    break
                rhs += mult * _dot(nu, alpha)
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        denom = lam_rho2 - _dot(mu_rho, mu_rho)
        value, rem = divmod(2 * rhs, denom)
        if rem:
            raise InternalError(f"Freudenthal division failed at {lam}, {mu}")
        table[mu] = value
    return table


def _orbit(mu):
    """Full Weyl orbit of a weight: coordinate permutations, even sign flips."""
    out = set()
    has_zero = any(x == 0 for x in mu)
    parity = sum(1 for x in mu if x < 0) % 2
    magnitudes = tuple(abs(x) for x in mu)
    for perm in set(permutations(magnitudes)):
        nz = [i for i, x in enumerate(perm) if x != 0]
        for signs in product((1, -1), repeat=len(nz)):
            if not has_zero and sum(1 for s in signs if s < 0) % 2 != parity:
                continue
            vec = list(perm)
            for i, s in zip(nz, signs):
                vec[i] *= s
            out.add(tuple(vec))
    return out


def freudenthal_weights(highest_weight, n: int) -> dict:
    """Exact weight multiplicities of the irreducible so(2n)-module: a dict
    from each weight to its multiplicity, so its values sum to the
    dimension."""
    lam = _require_dominant(highest_weight, n)
    dominant = _dominant_multiplicities(lam, n)
    full: dict[tuple[int, ...], int] = {}
    for mu, mult in dominant.items():
        for w in _orbit(mu):
            full[w] = mult
    return full


def weyl_dimension(highest_weight, n: int) -> int:
    """Dimension of the irreducible with the given highest weight."""
    lam = _require_dominant(highest_weight, n)
    rho = tuple(range(n - 1, -1, -1))
    lr = tuple(a + b for a, b in zip(lam, rho))
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= (lr[i] - lr[j]) * (lr[i] + lr[j])
            den *= (rho[i] - rho[j]) * (rho[i] + rho[j])
    value, rem = divmod(num, den)
    if rem:
        raise InternalError(f"Weyl dimension is not an integer at {lam}")
    return value


@lru_cache(maxsize=256)
def _monomial_table(kind: str, degree: int, n: int) -> dict:
    # weights of the standard 2n-dimensional representation
    items = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        items.append(tuple(e))
        e = [0] * n
        e[i] = -1
        items.append(tuple(e))
    chooser = combinations if kind == "ext" else combinations_with_replacement
    table: dict[tuple[int, ...], int] = {}
    for combo in chooser(items, degree):
        total = tuple(sum(col) for col in zip(*combo)) if combo else (0,) * n
        table[total] = table.get(total, 0) + 1
    return table


def monomial_weight_count(kind: str, degree: int, mu, n: int) -> int:
    """Number of degree-sized multisets (sym) or subsets (ext) of the standard
    weights {+-e_i} summing to mu."""
    _check_rank(n)
    if kind not in ("sym", "ext"):
        raise InvalidParameters(f"kind must be 'sym' or 'ext', got {kind!r}")
    if degree < 0:
        raise InvalidParameters("degree must be >= 0")
    return _monomial_table(kind, degree, n).get(tuple(mu), 0)


def family_highest_weights(k: int, p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Highest weights of the degree-(k, p) harmonic family:
    (k+1, 1^(p-1), 0^(n-p)), and at p = n also its mirror with last entry -1."""
    lam = (k + 1,) + (1,) * (p - 1) + (0,) * (n - p)
    return (lam,) if p < n else (lam, lam[:-1] + (-1,))


def oracle_weight_multiplicity(k: int, p: int, mu, n: int) -> int:
    """Multiplicity of mu in the degree-(k, p) harmonic family, by Freudenthal,
    summed over the family's highest weights."""
    _check_rank(n)
    if not 1 <= p <= n:
        raise InvalidParameters(f"p must lie in 1..{n}")
    if k < 0:
        raise InvalidParameters("k must be >= 0")
    rep = dominant_representative(tuple(mu))
    return sum(_dominant_multiplicities(lam, n).get(rep, 0) for lam in family_highest_weights(k, p, n))
