"""Benchmark the box-count kernel: numba @njit vs the pure numpy fallback.

Run as ``python benchmarks/bench_kernels.py``.  The first jit call compiles
and is excluded from the timings.
"""

import time

import numpy as np

from lenspec import _kernels

WORKLOADS = [
    ("box n=3 q=12", ((12, (1, 5, 7)),), 3, 11),
    ("box n=4 q=8", ((8, (1, 3, 5, 7)),), 4, 7),
]


def run(congs, n, radius, backend):
    moduli, coeffs = _kernels._congruence_arrays(congs, n)
    fn = _kernels._box_table_jit if backend == "numba" else _kernels._box_table_numpy
    return fn(moduli, coeffs, radius)


def timed(congs, n, radius, backend, repeats=5):
    run(congs, n, radius, backend)  # warm up (jit compiles here)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run(congs, n, radius, backend)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    if not _kernels.HAS_NUMBA:
        print("numba is not importable; nothing to compare")
        return
    print(f"{'workload':28s} {'numpy':>10s} {'numba':>10s} {'speedup':>8s}")
    for label, congs, n, radius in WORKLOADS:
        ref = run(congs, n, radius, "numpy")
        jit = run(congs, n, radius, "numba")
        assert (np.asarray(ref) == np.asarray(jit)).all(), label
        t_np = timed(congs, n, radius, "numpy")
        t_nb = timed(congs, n, radius, "numba")
        print(f"{label:28s} {t_np * 1e3:9.2f}ms {t_nb * 1e3:9.2f}ms {t_np / t_nb:7.1f}x")


if __name__ == "__main__":
    main()
