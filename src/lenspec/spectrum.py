"""Exact p-form spectra of sphere quotients as eigenvalue tables.

For 0 <= p <= n-1 every eigenvalue on p-forms belongs to one of two integer
families indexed by k >= 1 (plus the constant functions at 0 when p = 0);
the table lists eigenvalues in increasing order, each with its multiplicity
and the one (k, family) coefficient it is read from.  Multiplicities are read
off the exact spectrum-encoding series F^(p-1) and F^p of :mod:`lenspec.genfun`.
"""

from collections import namedtuple

from .errors import _STEP_WORDS, InvalidParameters, admit
from .genfun import check_series_work, f_rational
from .lattice import CongruenceLattice

# steps of the table entry of one coefficient of F^p: its record, its
# eigenvalue and its share of the sort
_ENTRY_STEPS = 16


def eigenvalue(k: int, p: int, n: int) -> int:
    """The k-th eigenvalue of family p on the (2n-1)-sphere: (k+p)(k+2n-2-p)."""
    if n < 2:
        raise InvalidParameters("rank n must be >= 2")
    if k < 1:
        raise InvalidParameters("k must be >= 1")
    if not 0 <= p <= n - 1:
        raise InvalidParameters(f"family must lie in 0..{n - 1}")
    return (k + p) * (k + 2 * n - 2 - p)


SpectrumEntry = namedtuple("SpectrumEntry", ("eigenvalue", "multiplicity", "k", "family"))
SpectrumEntry.__doc__ = "One eigenvalue, its multiplicity and the (k, family) coefficient it is read from."


def spectrum_table(L: CongruenceLattice, p: int, k_max: int) -> tuple[SpectrumEntry, ...]:
    """Tabulate the p-form spectrum of the quotient by the lattice's group.

    Returns a tuple of SpectrumEntry in increasing eigenvalue order, complete
    for all eigenvalues up to the k_max-th member of family p-1 (family p when
    p = 0).  Coefficient k-1 of F^j is the multiplicity of the k-th eigenvalue
    of family j, for j = p-1 (when p >= 1) and j = p; each nonzero
    coefficient is one entry, and for p = 0 the constants add
    SpectrumEntry(0, 1, 0, 0).  No two entries share an eigenvalue: an
    eigenvalue grows with k within a family, and families p-1 and p share
    none, since with a = k+p-1, b = k'+p and m = n-p, a(a+2m) = b(b+2m-2)
    would need (a-b+1)(a+b+2m-1) = 2m-1 < a+b+2m-1.  The table (each of the
    k_max coefficients of each series, F^0 alone for p = 0, expanded over its
    2n - 1 factors, then entered), the F^p weights and their products are
    admitted before any series is built.
    """
    n = L.n
    if not 0 <= p <= n - 1:
        raise InvalidParameters(f"p must lie in 0..{n - 1}")
    if k_max < 1:
        raise InvalidParameters("k_max must be >= 1")
    families = range(max(p - 1, 0), p + 1)
    admit(
        len(families) * k_max * (2 * n + _ENTRY_STEPS) * _STEP_WORDS, f"the spectrum table of rank {n} to k = {k_max}"
    )
    check_series_work(n, L.exponent, families)

    entries = [SpectrumEntry(0, 1, 0, 0)] if p == 0 else []
    for family in families:
        for k, mult in enumerate(f_rational(L, family).expand(k_max - 1), 1):
            if mult:
                entries.append(SpectrumEntry(eigenvalue(k, family, n), mult, k, family))
    entries.sort()
    return tuple(entries)
