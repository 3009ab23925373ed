"""Exact spectra of the Hodge-Laplace operator on lens spaces and lens
orbifolds, their rational generating functions, and isospectrality search.

All arithmetic is exact: multiplicities and series coefficients are unbounded
Python integers, rational functions keep factored denominators, and equality
of series is decided by polynomial identities rather than truncation.
"""

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    LenspecError,
    NegativeOrderTerm,
    NotDominant,
)
from .genfun import (
    a_laurent,
    f_rational,
    f_rational_p0_direct,
    moment_series,
    theta_ell_rational,
    theta_rational,
)
from .isospec import (
    IsospectralFamily,
    LensKey,
    canonical_key,
    isometry_classes,
    isospectral_range,
    norm_star_isospectral,
    p_isospectral,
    search,
)
from .lattice import (
    CongruenceLattice,
    TorusSubgroup,
    lattice_from_lens,
    lens_group,
    torus_subgroup,
)
from .oracle import (
    WeightTable,
    freudenthal_weights,
    monomial_weight_count,
    oracle_weight_multiplicity,
    weyl_dimension,
)
from .polyseries import LaurentPolynomial, RationalSeries, binom
from .spectrum import Contribution, SpectrumEntry, SpectrumTable, eigenvalue, spectrum_table
from .weights import RepIndex, WeightClass, invariant_dimension, m_gamma, weight_multiplicity

__version__ = "0.1.0"

__all__ = [
    "LenspecError",
    "InvalidParameters",
    "DimensionMismatch",
    "NegativeOrderTerm",
    "NotDominant",
    "binom",
    "LaurentPolynomial",
    "RationalSeries",
    "TorusSubgroup",
    "torus_subgroup",
    "lens_group",
    "CongruenceLattice",
    "lattice_from_lens",
    "WeightClass",
    "RepIndex",
    "weight_multiplicity",
    "m_gamma",
    "invariant_dimension",
    "eigenvalue",
    "spectrum_table",
    "SpectrumTable",
    "SpectrumEntry",
    "Contribution",
    "theta_ell_rational",
    "theta_rational",
    "a_laurent",
    "f_rational",
    "f_rational_p0_direct",
    "moment_series",
    "LensKey",
    "canonical_key",
    "isometry_classes",
    "p_isospectral",
    "isospectral_range",
    "norm_star_isospectral",
    "search",
    "IsospectralFamily",
    "WeightTable",
    "freudenthal_weights",
    "weyl_dimension",
    "monomial_weight_count",
    "oracle_weight_multiplicity",
    "__version__",
]
