"""Box-count kernel for congruence lattices.

The kernel tabulates the integer vectors of a box by one-norm and number of
zero entries, subject to a family of modular congruences; its table feeds the
numerators of every generating function.  The loop version is compiled with
numba's @njit when numba is importable; setting ``LENSPEC_PURE=1`` (or a
missing numba) selects a vectorized numpy fallback instead.  The two backends
return identical int64 tables; ``benchmarks/bench_kernels.py`` compares them.

Counts are numbers of lattice points inside an explicit box, so int64 is
exact as long as the enumerated box stays below 2^62 points; the wrapper
enforces that bound before dispatching.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidParameters

PURE_ENV = "LENSPEC_PURE"

_INT64_SAFE = 1 << 62


def _box_table_loops(moduli, coeffs, radius):
    """Count lattice vectors in the box |a_i| <= radius by (norm, zeros)."""
    ncong, n = coeffs.shape
    out = np.zeros((n * radius + 1, n + 1), dtype=np.int64)
    a = np.zeros(n, dtype=np.int64)
    i = 0
    a[0] = -radius - 1
    while i >= 0:
        a[i] += 1
        if a[i] > radius:
            i -= 1
            continue
        if i == n - 1:
            ok = True
            for r in range(ncong):
                acc = 0
                for j in range(n):
                    acc += coeffs[r, j] * a[j]
                if acc % moduli[r] != 0:
                    ok = False
                    break
            if ok:
                norm = 0
                zeros = 0
                for j in range(n):
                    if a[j] == 0:
                        zeros += 1
                    elif a[j] < 0:
                        norm -= a[j]
                    else:
                        norm += a[j]
                out[norm, zeros] += 1
        else:
            i += 1
            a[i] = -radius - 1
    return out


def _member_mask(vecs, moduli, coeffs):
    ok = np.ones(vecs.shape[0], dtype=bool)
    for r in range(moduli.shape[0]):
        ok &= (vecs @ coeffs[r]) % moduli[r] == 0
    return ok


def _box_table_numpy(moduli, coeffs, radius):
    """Vectorized fallback for :func:`_box_table_loops`."""
    n = coeffs.shape[1]
    out = np.zeros((n * radius + 1, n + 1), dtype=np.int64)
    rest = np.arange(-radius, radius + 1, dtype=np.int64)
    for a0 in range(-radius, radius + 1):
        grids = np.meshgrid(*([rest] * (n - 1)), indexing="ij")
        cols = [np.full(grids[0].size, a0, dtype=np.int64)]
        cols.extend(g.ravel() for g in grids)
        vecs = np.stack(cols, axis=1)
        ok = _member_mask(vecs, moduli, coeffs)
        vecs = vecs[ok]
        norms = np.abs(vecs).sum(axis=1)
        zeros = (vecs == 0).sum(axis=1)
        np.add.at(out, (norms, zeros), 1)
    return out


def _pure_requested() -> bool:
    return os.environ.get(PURE_ENV, "").strip() not in ("", "0")


try:
    from numba import njit

    _box_table_jit = njit(cache=True)(_box_table_loops)
    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

USE_JIT = HAS_NUMBA and not _pure_requested()


def backend_name() -> str:
    return "numba" if USE_JIT else "numpy"


def _congruence_arrays(congruences, n):
    moduli = np.array([q for q, _ in congruences], dtype=np.int64)
    if congruences:
        coeffs = np.array([s for _, s in congruences], dtype=np.int64)
    else:
        coeffs = np.zeros((0, n), dtype=np.int64)
    return moduli, coeffs.reshape(len(congruences), n)


def _check_scale(points: int, span: int, congruences) -> None:
    if points >= _INT64_SAFE:
        raise InvalidParameters("enumeration exceeds the exact int64 range of the box kernel")
    qmax = max((q for q, _ in congruences), default=1)
    if span * qmax * 64 >= _INT64_SAFE:
        raise InvalidParameters("congruence dot products exceed the exact int64 range")


def box_table(congruences, n: int, radius: int) -> np.ndarray:
    """Table of lattice vectors in the box |a_i| <= radius by (norm, zeros)."""
    if radius < 0:
        raise InvalidParameters("radius must be >= 0")
    _check_scale((2 * radius + 1) ** n, radius * n, congruences)
    moduli, coeffs = _congruence_arrays(congruences, n)
    fn = _box_table_jit if USE_JIT else _box_table_numpy
    return fn(moduli, coeffs, radius)
