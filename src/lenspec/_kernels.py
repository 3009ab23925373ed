"""Box-count kernel for congruence lattices.

The kernel tabulates the integer vectors of the box |a_i| <= radius by
one-norm and number of zero entries, subject to a family of modular
congruences; its table feeds the numerators of every generating function.

Lattice membership repeats with period E, the lcm of the moduli, in every
coordinate.  So the kernel first lists the lattice points of the fundamental
domain [0, E)^n: it enumerates all coordinates but one and solves one
congruence for the last, then filters by the other congruences.  Each point
then lifts coordinatewise: a residue r stands for every r + mE inside the box.

The work, candidate points of the fundamental domain times the lift patterns
tried on each, is bounded before any array is built.  Within that bound every
intermediate and every count is exact in int64.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .errors import InvalidParameters

# Largest work, in candidate lattice points, one box count may take on.
BOX_WORK_LIMIT = 10**8
# Candidate fundamental-domain points handled per vectorized batch.
_BOX_BATCH = 1 << 16


def box_table(congruences, n: int, radius: int) -> np.ndarray:
    """Table of lattice vectors in the box |a_i| <= radius by (norm, zeros).

    Entry [k, z] counts the integer vectors a with sum_j a_j s_{i,j} = 0 mod
    q_i for every congruence (q_i, s_i), one-norm k and z zero entries.
    """
    if n < 2:
        raise InvalidParameters("rank n must be >= 2")
    if radius < 0:
        raise InvalidParameters("radius must be >= 0")
    congs = [(q, tuple(x % q for x in s)) for q, s in congruences] or [(1, (0,) * n)]
    # solve the congruence with the fewest solutions mod E, those with more
    # only filter; q // gcd(q, s) is the index of its lattice in Z^n
    congs.sort(key=lambda c: c[0] // math.gcd(c[0], *c[1]), reverse=True)
    (q, s), others = congs[0], congs[1:]
    period = math.lcm(*(qi for qi, _ in congs))
    offsets = range(-((radius + period - 1) // period), radius // period + 1)
    work = period**n * math.gcd(q, *s) // q * len(offsets) ** n
    if work > BOX_WORK_LIMIT:
        raise InvalidParameters(
            f"box count of radius {radius} in rank {n} over exponent {period} takes"
            f" {work} candidate points, above the limit of {BOX_WORK_LIMIT}"
        )

    # norms and zero counts ignore the order of coordinates, so the one
    # solved for goes last: the one with the fewest solutions
    last = min(range(n), key=lambda j: math.gcd(s[j], q))
    order = [j for j in range(n) if j != last] + [last]
    s = [s[j] for j in order]
    others = [(qi, np.array([si[j] for j in order], dtype=np.int64)) for qi, si in others]
    g = math.gcd(s[-1], q)
    step = q // g
    inverse = pow(s[-1] // g, -1, step) if step > 1 else 0
    # s[-1] x = c (mod q) holds for g | c at x = x0 + t * step, t < period / step
    x_steps = np.arange(0, period, step, dtype=np.int64)

    width = n + 1
    out = np.zeros((n * radius + 1) * width, dtype=np.int64)
    rows = period ** (n - 1)
    batch = max(1, _BOX_BATCH // x_steps.size)
    for start in range(0, rows, batch):
        digits = np.arange(start, min(start + batch, rows), dtype=np.int64)
        cols = []
        for _ in range(n - 1):
            digits, r = np.divmod(digits, period)
            cols.append(r)
        c = -sum(sj * r for sj, r in zip(s, cols)) % q
        ok = c % g == 0
        x0 = (c[ok] // g) * inverse % step
        base = np.stack([col[ok] for col in cols] + [x0], axis=1)
        pts = np.repeat(base, x_steps.size, axis=0)
        pts[:, -1] += np.tile(x_steps, base.shape[0])
        for qi, si in others:
            pts = pts[pts @ si % qi == 0]
        # flat index norm * width + zeros, summed over coordinates; a lift
        # outside the box gets -out.size, which keeps any sum with it negative
        codes = []
        for col in pts.T:
            per_offset = []
            for m in offsets:
                v = col + m * period
                a = np.abs(v)
                per_offset.append(np.where(a <= radius, a * width + (v == 0), -out.size))
            codes.append(per_offset)
        for pattern in product(range(len(offsets)), repeat=n):
            idx = sum(codes[j][m] for j, m in enumerate(pattern))
            out += np.bincount(idx[idx >= 0], minlength=out.size)
    return out.reshape(n * radius + 1, width)
