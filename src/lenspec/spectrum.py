"""Exact p-form spectra of sphere quotients as eigenvalue tables.

For 0 <= p <= n-1 every eigenvalue on p-forms belongs to one of two integer
families indexed by k >= 1 (plus the constant functions at 0 when p = 0);
the table lists eigenvalues in increasing order, each with its multiplicity
and its one contributing (k, family) pair.  Multiplicities are read off the
exact spectrum-encoding series F^(p-1) and F^p of :mod:`lenspec.genfun`.
"""

from collections import namedtuple

from .errors import _STEP_WORDS, InvalidParameters, admit
from .genfun import check_series_work, f_rational
from .lattice import CongruenceLattice

# steps of the table entry of one coefficient of F^p: its contribution, its
# eigenvalue, its share of the sort and of the entry that holds it
_ENTRY_STEPS = 16


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
    eigenvalue of the constants is added with multiplicity 1.  Each nonzero
    coefficient is one entry with one contributor: an eigenvalue grows with k
    within a family, and families p-1 and p share none, since with
    a = k+p-1, b = k'+p and m = n-p, a(a+2m) = b(b+2m-2) would need
    (a-b+1)(a+b+2m-1) = 2m-1 < a+b+2m-1.  The table
    (each of the k_max coefficients of both series expanded over its 2n - 1
    factors, then entered), the F^p weights and their products are admitted
    before any series is built.
    """
    n = L.n
    if not 0 <= p <= n - 1:
        raise InvalidParameters(f"p must lie in 0..{n - 1}")
    if k_max < 1:
        raise InvalidParameters("k_max must be >= 1")
    admit(2 * k_max * (2 * n + _ENTRY_STEPS) * _STEP_WORDS, f"the spectrum table of rank {n} to k = {k_max}")
    families = range(max(p - 1, 0), p + 1)
    check_series_work(n, L.exponent, families)

    entries = [SpectrumEntry(0, 1, (Contribution(k=0, family=0, multiplicity=1),))] if p == 0 else []
    for family in families:
        for k, mult in enumerate(f_rational(L, family).expand(k_max - 1), 1):
            if mult:
                contribution = Contribution(k=k, family=family, multiplicity=mult)
                entries.append(SpectrumEntry(eigenvalue(k, family, n), mult, (contribution,)))
    entries.sort()
    return SpectrumTable(n=n, p=p, k_max=k_max, entries=tuple(entries))
