"""Acceptance suite: one test per criterion, each printing one line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every comparison is exact integer or exact rational-function equality.
Criteria 01-06 and 09 run the cross-route checks of :mod:`lenspec.verify` at
the acceptance scale and pin that scale by the detail each check returns.
"""

import csv
import io
import itertools
import json
import time
from functools import cache

from lenspec import _kernels, genfun, isospec
from lenspec import compare_spaces, f_rational, isometry_classes, lattice_from_lens, search, theta_rational
from lenspec.cli import main as cli_main
from lenspec.lattice import lens_label
from lenspec.verify import (
    check_central_identity,
    check_dimension_sums,
    check_multiplicity_closed_form,
    check_reduced_convolution,
    check_sphere_spectrum,
    check_theta_rational,
    check_zero_form_closed_form,
)
from support import norm_star_isospectral


def report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {label}")


@cache
def suite_lattices():
    """Trivial groups plus every lens isometry class with q <= 12, n in {2, 3}."""
    return [lattice_from_lens(q, s) for n in (2, 3) for q in range(1, 13) for s in isometry_classes(q, n, "orbifolds")]


def test_acceptance_01_closed_form_certified_by_freudenthal():
    detail = check_multiplicity_closed_form(4, 6)
    assert detail == "1281 classes, n <= 4, k <= 6"
    report(1, f"closed multiplicity formula == Freudenthal on {detail}")


def test_acceptance_02_dimension_sums():
    detail = check_dimension_sums(4, 6)
    assert detail == "63 representations"
    report(2, f"class-weighted multiplicity sums == Weyl dimensions, {detail}")


def test_acceptance_03_central_identity():
    detail = check_central_identity(suite_lattices(), 30)
    assert detail == "181 lattices to order 30"
    report(3, f"rational series == invariant-dimension route on {detail}")


def test_acceptance_04_zero_form_closed_form():
    detail = check_zero_form_closed_form(suite_lattices())
    assert detail == "181 lattices"
    report(4, f"F^0 equals its direct theta form on {detail}")


def test_acceptance_05_theta_rationality():
    detail = check_theta_rational(suite_lattices())
    assert detail == "181 lattices to order 3q"
    report(5, f"refined theta series match shell counts on {detail}")


def test_acceptance_06_sphere_sanity():
    report(6, check_sphere_spectrum())


def _characterization_pairs():
    """Family pairs from every search plus sampled non-family pairs."""
    for n in (2, 3):
        for q in range(2, 13):
            keys = isometry_classes(q, n, "orbifolds")
            lattices = [lattice_from_lens(q, s) for s in keys]
            sampled = list(itertools.combinations(lattices[:5], 2))
            for p0 in range(n):
                family_pairs = []
                for fam in search(q, n, p0, mode="orbifolds"):
                    members = [lattice_from_lens(q, s) for s in fam.members]
                    family_pairs.extend(itertools.combinations(members, 2))
                yield q, n, p0, family_pairs + sampled


def test_acceptance_07_characterization_equivalence():
    pairs_checked = 0
    for q, n, p0, pairs in _characterization_pairs():
        for L1, L2 in pairs:
            # the verdict of every p <= p0, by the moment series and by F^p
            by_moments = [same for same, _ in compare_spaces(L1, L2, p0)]
            agree = [f_rational(L1, p) == f_rational(L2, p) for p in range(p0 + 1)]
            by_series = [all(agree[: p + 1]) for p in range(p0 + 1)]
            assert by_moments == by_series, (q, n, p0, L1.label(), L2.label())
            if p0 == n - 1:
                assert by_moments[-1] == norm_star_isospectral(L1, L2), (q, n, L1.label(), L2.label())
            pairs_checked += 1
    report(7, f"moment criterion <=> per-degree series equality on {pairs_checked} pairs")


def _timed_search(*args):
    # the result and the least CPU time of seven runs of one search, in
    # seconds: CPU time, so that other processes on the machine do not count
    times = []
    for _ in range(7):
        start = time.process_time()
        families = search(*args)
        times.append(time.process_time() - start)
    return families, min(times)


def _search_work(monkeypatch, *args):
    # the calls of the box count, the series work count, the moment
    # fingerprints, the moment series and F^p in one search, and the word
    # steps of its box counts: its work, alike on every machine
    calls = {}
    for module, name in (
        (_kernels, "box_table"), (genfun, "check_series_work"), (isospec, "check_series_work"),
        (isospec, "_moment_fingerprint"), (genfun, "moment_series"), (isospec, "f_rational"),
    ):
        log = calls.setdefault(name, [])
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, log=log, **k: log.append(a) or fn(*a, **k))
    search(*args)
    monkeypatch.undo()
    work = {name: len(log) for name, log in calls.items()}
    work["box_work"] = sum(_kernels.box_work(*a) for a in calls["box_table"])
    return work


def test_acceptance_08_existence_reproduction(monkeypatch):
    # the paper-line pairs exactly: Ikeda's 0-isospectral pair at q = 11
    # (Ann. Sci. ENS 13, 1980), and the first n = 3 manifold pair that is
    # p-isospectral on every degree, at q = 49
    expected = {
        (11, 3, 0): [("L(11;1,2,3)", "L(11;1,2,4)")],
        (49, 3, 2): [("L(49;1,6,15)", "L(49;1,6,20)")],
    }
    times = []
    for (q, n, p0), labels in expected.items():
        families, seconds = _timed_search(q, n, p0, "manifolds")
        times.append(f"{seconds * 1000:.1f} ms")
        assert [tuple(lens_label(q, s) for s in fam.members) for fam in families] == labels, (q, n, p0)
        assert seconds < 0.02, (q, n, p0, seconds)
        for fam in families:
            lattices = [lattice_from_lens(q, s) for s in fam.members]
            for L1, L2 in itertools.combinations(lattices, 2):
                # two independent certificates must agree
                assert all(f_rational(L1, p) == f_rational(L2, p) for p in range(p0 + 1))
                assert norm_star_isospectral(L1, L2) == (p0 == n - 1)
                assert theta_rational(L1) == theta_rational(L2)
    # the CPU pin above moves with the machine; these counts do not
    assert len(isometry_classes(49, 3, "manifolds")) == 85
    assert _search_work(monkeypatch, 49, 3, 2, "manifolds") == {
        "box_table": 2,
        "box_work": 2790764,
        "check_series_work": 1,
        "_moment_fingerprint": 2,
        "moment_series": 0,
        "f_rational": 0,
    }
    labels = "; ".join(
        f"q={q}: " + " ~ ".join(pair) + f" in {time}"
        for ((q, _, _), pairs), time in zip(expected.items(), times)
        for pair in pairs
    )
    report(8, f"n=3 manifold searches reproduce exactly {labels}")


def test_acceptance_09_reduced_count_convolution():
    detail = check_reduced_convolution(suite_lattices())
    assert detail == "181 lattices, a <= 3"
    report(9, f"periodicity convolution identity on {detail}")


def _spectrum_columns(text, fmt):
    """(eigenvalue, multiplicity) rows of a rendered spectrum table."""
    if fmt == "json":
        return [(str(r["eigenvalue"]), r["multiplicity"]) for r in json.loads(text)]
    if fmt == "csv":
        return [(r["eigenvalue"], r["multiplicity"]) for r in csv.DictReader(io.StringIO(text))]
    return [tuple(line.split()[3:5]) for line in text.splitlines()[1:]]


def test_acceptance_10_cli_determinism(capsys):
    configs = [
        (["spectrum", "--space", "L(11;1,2,3)", "--kmax", "12", "--format", "json"], 3, 1),
        (["spectrum", "--space", "L(12;1,5)", "--kmax", "20", "--format", "csv"], 2, 0),
        (["spectrum", "--space", "L(8;1,3,5)", "--kmax", "10", "--format", "table"], 3, 2),
    ]
    for cfg, n, p in configs:
        outputs = []
        for degree in (p, p, 2 * n - 1 - p):
            assert cli_main(cfg + ["--p", str(degree)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], cfg
        fmt = cfg[-1]
        columns = _spectrum_columns(outputs[0], fmt)
        assert columns and columns == _spectrum_columns(outputs[2], fmt), cfg
    report(10, "byte-identical repeated spectrum output and p <-> 2n-1-p columns on 3 configs")
