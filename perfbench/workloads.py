"""Input pools of the benchmark workloads and the seed-driven draw from them.

Every workload is a list of strata, and a batch takes one invocation from
every stratum in a seed-shuffled order.  The invocations of a stratum differ
only where the cost does not: the p0 of a search, the side of a duality pair
p <-> 2n-1-p, the output format, the series order of genfun, the pair and
method of isospectral.  So every seed does the same work and has about the same
peak memory, and the timings of two seeds can be compared; the recorded costs
in ``reference.json`` show it.  The program receives nothing but argv.

An invocation is the argv tuple of one CLI call; ``" ".join(argv)`` keys it
in ``reference.json``.
"""

from __future__ import annotations

import random

WORK_DIR = ".bench_build/perfbench"

# Non-cyclic torus subgroups for --gen-file, written by the benchmark.
GEN_FILES = {
    "g3": "# Z3 x Z3 acting on S^5\n3: 1,1,1\n3: 1,2,0\n",
    "g4": "# Z2 x Z4 acting on S^7\n2: 1,1,1,1\n4: 1,3,1,3\n",
}
G3 = f"--gen-file {WORK_DIR}/g3.txt"
G4 = f"--gen-file {WORK_DIR}/g4.txt"

# every (n, q) runs in every batch: the cost of a search depends on the
# arithmetic of q far more than on its size, so q is not drawn
SEARCH_QS = {
    "manifolds": {3: range(37, 54), 4: range(14, 19)},
    "orbifolds": {3: range(21, 32), 4: range(9, 13)},
}
# (n, q) whose search lists isospectral families only at p0 = 0; they run at
# p0 = 0 alone, so every batch checks non-empty output (manifolds need none:
# q=49 n=3 lists families at every p0)
FAMILIES_AT_P0_ZERO = {
    "manifolds": set(),
    "orbifolds": {(3, 22), (3, 24), (3, 26), (3, 28), (3, 30), (4, 11)},
}

# (space, n, kmax, p); the seed picks p or its dual degree 2n-1-p, which is
# served through duality at the same cost.  L(9;1,2,4,5) at kmax 50 sets the
# peak memory.
SPECTRUM_STRATA = (
    ("--space L(11;1,2,3)", 3, 200, 2),
    ("--space L(11;1,2,4)", 3, 150, 1),
    (G3, 3, 150, 2),
    (G3, 3, 100, 0),
    ("--space L(9;1,2,4,5)", 4, 50, 2),
    ("--space L(13;1,2,3,4)", 4, 45, 3),
    (G4, 4, 40, 1),
    ("--space L(9;1,2,4,5)", 4, 40, 0),
)
GENFUN_SPACES = {
    3: ("--space L(11;1,2,3)", "--space L(11;1,2,4)", G3),
    4: ("--space L(13;1,2,3,5)", "--space L(9;1,2,4,5)", G4),
}
GENFUN_ORDERS = (300, 1000, 2000)
# classic isospectral pairs (Ikeda q=11; search results at q=13, 17, 52) and
# one non-isospectral pair, whose output reports the first differing term
ISOSPECTRAL_PAIRS = {
    3: (("L(11;1,2,3)", "L(11;1,2,4)"), ("L(11;1,2,3)", "L(11;1,2,5)"), ("L(52;1,3,19)", "L(52;1,5,9)")),
    4: (("L(13;1,2,3,4)", "L(13;1,2,3,5)"), ("L(17;1,2,3,5)", "L(17;1,2,3,8)"), ("L(17;1,2,3,7)", "L(17;1,2,4,5)")),
}
FORMATS = ("table", "json", "csv")


def _search_strata(mode: str):
    return [
        [
            tuple(f"search --q {q} --n {n} --p0 {p0} --mode {mode}".split())
            for p0 in ((0,) if (n, q) in FAMILIES_AT_P0_ZERO[mode] else range(n))
        ]
        for n, qs in SEARCH_QS[mode].items()
        for q in qs
    ]


def _with_formats(texts):
    return [tuple(f"{t} --format {FORMATS[i % len(FORMATS)]}".split()) for i, t in enumerate(texts)]


def _spectra_strata():
    strata = [
        [
            tuple(f"spectrum {space} --p {deg} --kmax {kmax} --format {fmt}".split())
            for deg in (p, 2 * n - 1 - p)
            for fmt in FORMATS
        ]
        for space, n, kmax, p in SPECTRUM_STRATA
    ]
    for n, spaces in GENFUN_SPACES.items():
        strata.append(_with_formats(f"genfun {space} --order {order}" for space in spaces for order in GENFUN_ORDERS))
    for n, pairs in ISOSPECTRAL_PAIRS.items():
        strata.append(
            _with_formats(
                f"isospectral --space {a} --space2 {b} --method {method}"
                for a, b in pairs
                for method in ("range", "direct")
            )
        )
    return strata


WORKLOADS = {
    "search-manifolds": _search_strata("manifolds"),
    "search-orbifolds": _search_strata("orbifolds"),
    "spectra": _spectra_strata(),
}


def pool(workload: str) -> list[tuple[str, ...]]:
    return [inv for stratum in WORKLOADS[workload] for inv in stratum]


def draw(workload: str, seed: int) -> list[tuple[str, ...]]:
    """One invocation per stratum, in a seed-shuffled order."""
    rng = random.Random(f"{workload}/{seed}")
    batch = [rng.choice(stratum) for stratum in WORKLOADS[workload]]
    rng.shuffle(batch)
    return batch
