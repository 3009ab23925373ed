"""Exact spectra of the Hodge-Laplace operator on lens spaces and lens
orbifolds, their rational generating functions, and isospectrality search.

All arithmetic is exact: multiplicities and series coefficients are unbounded
Python integers, rational functions keep factored denominators, and equality
of series is decided by polynomial identities rather than truncation.

The public names below are resolved on first access (PEP 562), so
``import lenspec`` loads no submodule and each command of :mod:`lenspec.cli`
loads only the modules it runs; ``from lenspec import *`` loads them all.
"""

__version__ = "0.1.0"

# public name -> submodule defining it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": "LenspecError InvalidParameters DimensionMismatch NegativeOrderTerm NotDominant",
        "polyseries": "binom LaurentPolynomial RationalSeries",
        "lattice": "CongruenceLattice lattice_from_lens",
        "weights": "WeightClass RepIndex weight_multiplicity m_gamma invariant_dimension",
        "spectrum": "eigenvalue spectrum_table SpectrumTable SpectrumEntry Contribution",
        "genfun": "theta_ell_rational theta_rational a_laurent f_rational f_rational_p0_direct moment_series",
        "isospec": (
            "LensKey canonical_key isometry_classes p_isospectral isospectral_range"
            " norm_star_isospectral search IsospectralFamily"
        ),
        "oracle": "WeightTable freudenthal_weights weyl_dimension monomial_weight_count oracle_weight_multiplicity",
    }.items()
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
