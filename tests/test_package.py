import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import lenspec
from lenspec.isospec import IsospectralFamily, isometry_classes
from lenspec.lattice import lattice_from_lens, lens_label
from lenspec.spectrum import spectrum_table
from support import canonical_key

PUBLIC = {
    "LenspecError", "InvalidParameters", "DimensionMismatch", "NegativeOrderTerm", "NotDominant",
    "binom", "LaurentPolynomial", "RationalSeries",
    "CongruenceLattice", "lattice_from_lens",
    "eigenvalue", "spectrum_table", "SpectrumEntry",
    "theta_ell_rational", "theta_rational", "a_laurent", "f_rational", "moment_series",
    "isometry_classes", "compare_spaces", "search", "IsospectralFamily",
    "__version__",
}

# the modules of the production chain and the command line, and those of the
# routes that certify the chain
PRODUCTION = ("cli", "isospec", "genfun", "lattice", "polyseries", "_kernels", "spectrum", "errors")
CERTIFICATION = ("weights", "oracle", "verify")


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


def _named(node):
    # every name and attribute read or written under node
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _unnamed(trees, corpus):
    # the top-level functions and classes of trees, and their methods not
    # named __x__, that no code of corpus names outside their own body
    defs = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            if isinstance(node, ast.ClassDef):
                defs += [
                    m for m in node.body
                    if isinstance(m, ast.FunctionDef) and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
    named = Counter(name for tree in corpus for name in _named(tree))
    return [d.name for d in defs if named[d.name] == Counter(_named(d))[d.name]]


def test_production_modules_hold_only_called_code():
    # every definition of the production modules is named in them outside
    # its own body: code that only the tests or verify call lives beside
    # them.  Public names are exempt, and _make, which namedtuple's _replace
    # calls
    src = os.path.dirname(lenspec.__file__)
    trees = [_parse(os.path.join(src, f"{module}.py")) for module in PRODUCTION]
    exempt = {*lenspec._EXPORTS, "_make"}
    assert [name for name in _unnamed(trees, trees) if name not in exempt] == []


def test_certification_modules_hold_only_named_code():
    # every definition of the certification modules is named outside its
    # own body somewhere in the package or the tests
    src = os.path.dirname(lenspec.__file__)
    tests = os.path.dirname(os.path.abspath(__file__))
    corpus = [_parse(path) for folder in (src, tests) for path in sorted(Path(folder).glob("*.py"))]
    trees = [_parse(os.path.join(src, f"{module}.py")) for module in CERTIFICATION]
    assert _unnamed(trees, corpus) == []


def test_test_support_holds_only_named_code():
    # every definition of the tests' shared support is named outside its own
    # body by some test module or by the support itself
    tests = os.path.dirname(os.path.abspath(__file__))
    corpus = [_parse(path) for path in sorted(Path(tests).glob("*.py"))]
    assert _unnamed([_parse(os.path.join(tests, "support.py"))], corpus) == []


# the benchmark tracer's targets that name code gone from the package; each
# reads 0 or absent in a traced run
STALE_TRACER_TARGETS = {
    "_kernels:shell_table",
    "lattice:TorusSubgroup.lattice",
    "lattice:TorusSubgroup._element_rotations",
    "weights:m_gamma",
    "isospec:canonical_key",
    "isospec:isospectral_range",
    "cli:build_parser",
}


def test_live_tracer_targets_resolve():
    # every "module:qualname" of the tracer's SPANS table, read from its
    # source without importing it, names a lenspec attribute, so a rename
    # that would zero a per-layer metric fails here
    tracer = _parse(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
    (spans,) = [
        node.value for node in tracer.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"]
    ]
    targets = [entry.elts[0].value for entry in spans.elts]
    unresolved = set()
    for target in targets:
        module, _, qualname = target.partition(":")
        try:
            obj = importlib.import_module(f"lenspec.{module}")
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            unresolved.add(target)
    assert "isospec:_moment_fingerprint" in targets
    assert unresolved == STALE_TRACER_TARGETS


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


def test_classes_are_sorted_exponent_tuples():
    # a class is its key, the plain tuple of its folded exponents; the
    # listing and the brute-force key agree on it, and q labels it
    key = canonical_key(11, (1, 2, 4))
    assert type(key) is tuple and key == (1, 2, 4)
    classes = isometry_classes(13, 3)
    assert classes == sorted(classes) and all(type(s) is tuple for s in classes)
    assert canonical_key(13, (1, 3, 9)) in classes
    assert lens_label(11, key) == "L(11;1,2,4)"


def test_family_and_spectrum_records_are_read_only():
    family = IsospectralFamily(q=11, n=3, p0=0, members=((1, 2, 3),), fingerprint="f")
    with pytest.raises(AttributeError):
        family.fingerprint = "g"
    table = spectrum_table(lattice_from_lens(5, (1, 2)), 0, 4)
    assert isinstance(table, tuple)
    entry = table[1]
    assert repr(entry).startswith("SpectrumEntry(eigenvalue=")
    with pytest.raises(AttributeError):
        entry.multiplicity = 0
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


def test_readme_library_block_runs_as_documented():
    # every statement of README's Library block runs, and a "# -> <literal>"
    # comment on an expression's lines, or on a comment line right after
    # them, is that expression's value; "# -> " followed by a word is prose
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S)[1]
    lines = code.splitlines()
    namespace, literals = {}, []
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(source, namespace)
            continue
        value = eval(source, namespace)
        after = [line for line in lines[stmt.end_lineno : stmt.end_lineno + 1] if line.lstrip().startswith("#")]
        for line in lines[stmt.lineno - 1 : stmt.end_lineno] + after:
            _, arrow, text = line.partition("# -> ")
            if arrow and not text[0].isalpha():
                literal = ast.literal_eval(text.split(": ", 1)[0])
                assert value == literal, source
                literals.append(literal)
    # every literal comment was read, and there are some
    assert literals and len(literals) == sum(
        1 for line in lines if "# -> " in line and not line.split("# -> ")[1][0].isalpha()
    )
