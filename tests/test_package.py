import os
import subprocess
import sys

import pytest

import lenspec
from lenspec import weights
from lenspec.isospec import IsospectralFamily, LensKey, canonical_key, isometry_classes
from lenspec.lattice import lattice_from_lens
from lenspec.spectrum import spectrum_table

PUBLIC = {
    "LenspecError", "InvalidParameters", "DimensionMismatch", "NegativeOrderTerm", "NotDominant",
    "binom", "LaurentPolynomial", "RationalSeries",
    "CongruenceLattice", "lattice_from_lens",
    "WeightClass", "RepIndex", "weight_multiplicity", "m_gamma", "invariant_dimension",
    "eigenvalue", "spectrum_table", "SpectrumTable", "SpectrumEntry", "Contribution",
    "theta_ell_rational", "theta_rational", "a_laurent", "f_rational", "f_rational_p0_direct",
    "moment_series",
    "LensKey", "canonical_key", "isometry_classes", "compare_spaces", "norm_star_isospectral", "search",
    "IsospectralFamily",
    "WeightTable", "freudenthal_weights", "weyl_dimension", "monomial_weight_count",
    "oracle_weight_multiplicity",
    "__version__",
}


def test_public_names_unchanged():
    assert len(lenspec.__all__) == len(PUBLIC)
    assert set(lenspec.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        value = getattr(lenspec, name)
        if name != "__version__":
            module = sys.modules[f"lenspec.{lenspec._EXPORTS[name]}"]
            assert value is getattr(module, name), name
    namespace = {}
    exec("from lenspec import *", namespace)
    assert PUBLIC <= set(namespace)
    assert namespace["search"] is lenspec.isospec.search
    assert PUBLIC <= set(dir(lenspec))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lenspec.no_such_name
    with pytest.raises(ImportError):
        exec("from lenspec import no_such_name", {})


def test_import_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(lenspec.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, lenspec; print(sorted(m for m in sys.modules if m.startswith('lenspec')))"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert res.stdout == "['lenspec']\n"


def test_lens_key_record():
    key = canonical_key(11, (1, 2, 4))
    assert repr(key) == "LensKey(n=3, q=11, exponents=(1, 2, 4))"
    assert key == LensKey(n=3, q=11, exponents=(1, 2, 4))
    assert hash(key) == hash(LensKey(3, 11, (1, 2, 4)))
    # ordered field by field: n, then q, then the exponents
    keys = [LensKey(3, 11, (1, 2, 4)), LensKey(2, 13, (1, 5)), LensKey(3, 7, (1, 2, 3)), LensKey(3, 11, (1, 1, 5))]
    assert sorted(keys) == [keys[1], keys[2], keys[3], keys[0]]
    assert isometry_classes(13, 3) == sorted(isometry_classes(13, 3))
    for field in ("n", "q", "exponents"):
        with pytest.raises(AttributeError):
            setattr(key, field, 0)
    assert key.label() == "L(11;1,2,4)"


def test_family_and_spectrum_records_are_read_only():
    family = IsospectralFamily(q=11, n=3, p0=0, members=(LensKey(3, 11, (1, 2, 3)),), fingerprint="f")
    with pytest.raises(AttributeError):
        family.fingerprint = "g"
    table = spectrum_table(lattice_from_lens(5, (1, 2)), 0, 4)
    entry = table.entries[1]
    assert repr(entry.contributors[0]).startswith("Contribution(k=")
    with pytest.raises(AttributeError):
        entry.multiplicity = 0
    with pytest.raises(AttributeError):
        table.entries = ()
    with pytest.raises(AttributeError):
        lattice_from_lens(5, (1, 2)).n = 3


def test_congruence_lattice_is_a_dict_key():
    L = lattice_from_lens(7, (1, 3))
    again = lattice_from_lens(7, (1, 3))
    assert L is not again and L == again and hash(L) == hash(again)
    assert {L: "seen"}[again] == "seen"
    assert L != lattice_from_lens(7, (1, 2))
    with pytest.raises(AttributeError):
        L.exponent = 1
    # the cached box count lives in the instance, outside the hashed fields
    L.phi_polynomials()
    assert hash(L) == hash(again)
    # the brute-force shell tables are kept per lattice, found again by an equal one
    table = weights.shell_table(L, 4)
    assert again in weights._shell_tables
    assert weights.shell_table(again, 3) == table[:4]
