"""Exact p-form spectra of sphere quotients as eigenvalue tables.

For 0 <= p <= n-1 every eigenvalue on p-forms belongs to one of two integer
families indexed by k >= 1 (plus the constant functions at 0 when p = 0);
the table lists eigenvalues in increasing order with their multiplicities
and the contributing (k, family) pairs.  Multiplicities are read off the
exact spectrum-encoding series F^(p-1) and F^p of :mod:`lenspec.genfun`.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidParameters
from .genfun import check_f_expand_work, check_laurent_work, f_rational
from .lattice import CongruenceLattice


def eigenvalue(k: int, p: int, n: int) -> int:
    """The k-th eigenvalue of family p on the (2n-1)-sphere: (k+p)(k+2n-2-p).

    Family p = -1 is identically zero.
    """
    if n < 2:
        raise InvalidParameters("rank n must be >= 2")
    if k < 1:
        raise InvalidParameters("k must be >= 1")
    if not -1 <= p <= n - 1:
        raise InvalidParameters(f"family must lie in -1..{n - 1}")
    if p == -1:
        return 0
    return (k + p) * (k + 2 * n - 2 - p)


Contribution = namedtuple("Contribution", ("k", "family", "multiplicity"))
Contribution.__doc__ = "One (k, family) source feeding an eigenvalue, with its multiplicity."

SpectrumEntry = namedtuple("SpectrumEntry", ("eigenvalue", "multiplicity", "contributors"))
SpectrumEntry.__doc__ = "One eigenvalue, its multiplicity and the tuple of its Contribution records."

SpectrumTable = namedtuple("SpectrumTable", ("n", "p", "k_max", "entries"))
SpectrumTable.__doc__ = """Eigenvalue -> multiplicity table of the p-form spectrum.

Complete for all eigenvalues up to the k_max-th member of family p-1
(family p when p = 0); ``entries`` is a tuple of SpectrumEntry, eigenvalues
strictly increasing and multiplicities positive.
"""


def spectrum_table(L: CongruenceLattice, p: int, k_max: int) -> SpectrumTable:
    """Tabulate the p-form spectrum of the quotient by the lattice's group.

    Coefficient k-1 of F^j is the multiplicity of the k-th eigenvalue of
    family j, for j = p-1 and j = p; family -1 is empty.  For p = 0 the zero
    eigenvalue of the constants is added with multiplicity 1.  The expansion
    work and the work of the F^p weights are checked before any series is
    built.
    """
    n = L.n
    if not 0 <= p <= n - 1:
        raise InvalidParameters(f"p must lie in 0..{n - 1}")
    if k_max < 1:
        raise InvalidParameters("k_max must be >= 1")
    check_f_expand_work(n, k_max - 1)
    check_laurent_work(n, range(max(p, 1), p + 2))

    cells: dict[int, list[Contribution]] = {}
    if p == 0:
        cells[0] = [Contribution(k=0, family=0, multiplicity=1)]
    for family in range(max(p - 1, 0), p + 1):
        for k, mult in enumerate(f_rational(L, family).expand(k_max - 1), 1):
            if mult:
                cells.setdefault(eigenvalue(k, family, n), []).append(
                    Contribution(k=k, family=family, multiplicity=mult)
                )

    entries = []
    for eig in sorted(cells):
        contribs = tuple(sorted(cells[eig], key=lambda c: (c.family, c.k)))
        entries.append(
            SpectrumEntry(
                eigenvalue=eig,
                multiplicity=sum(c.multiplicity for c in contribs),
                contributors=contribs,
            )
        )
    return SpectrumTable(n=n, p=p, k_max=k_max, entries=tuple(entries))
