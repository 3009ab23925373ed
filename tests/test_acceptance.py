"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every comparison is exact integer or exact rational-function equality.
"""

import csv
import io
import itertools
import json
import time
from functools import cache

from lenspec import _kernels, isospec
from lenspec import (
    f_rational,
    compare_spaces,
    isometry_classes,
    lattice_from_lens,
    search,
    spectrum_table,
    theta_ell_rational,
    theta_rational,
)
from lenspec.cli import main as cli_main
from lenspec.oracle import family_highest_weights, oracle_weight_multiplicity, weyl_dimension
from lenspec.polyseries import RationalSeries
from lenspec.verify import convolution_rhs, f_rational_p0_direct
from lenspec.weights import (
    _class_multiplicity,
    class_representative,
    class_size,
    invariant_dimensions,
    shell_table,
    weight_classes,
)
from support import norm_star_isospectral


def report(number: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}"


@cache
def suite_lattices():
    """Trivial groups plus every lens isometry class with q <= 12, n in {2, 3}."""
    out = []
    for n in (2, 3):
        for q in range(1, 13):
            for key in isometry_classes(q, n, "orbifolds"):
                out.append((key.label(), key.lattice()))
    return out


def test_acceptance_01_closed_form_certified_by_freudenthal():
    checked = 0
    for n in (2, 3, 4):
        for p in range(1, n + 1):
            for k in range(7):
                for norm, zeros in weight_classes(n, k + p + 2):
                    lhs = _class_multiplicity(n, k, p, norm, zeros)
                    rhs = oracle_weight_multiplicity(k, p, class_representative(n, norm, zeros), n)
                    assert lhs == rhs, (n, k, p, norm, zeros, lhs, rhs)
                    checked += 1
    report(1, True, f"closed multiplicity formula == Freudenthal on {checked} classes")


def test_acceptance_02_dimension_sums():
    checked = 0
    for n in (2, 3, 4):
        for p in range(1, n + 1):
            for k in range(7):
                total = sum(
                    class_size(n, norm, zeros) * _class_multiplicity(n, k, p, norm, zeros)
                    for norm, zeros in weight_classes(n, k + p)
                )
                expected = sum(weyl_dimension(lam, n) for lam in family_highest_weights(k, p, n))
                assert total == expected, (n, k, p, total, expected)
                checked += 1
    report(2, True, f"class-weighted multiplicity sums == Weyl dimensions, {checked} reps")


def test_acceptance_03_central_identity():
    order = 30
    pairs = 0
    for label, L in suite_lattices():
        for p, want in enumerate(invariant_dimensions(L, order), 1):
            assert f_rational(L, p - 1).expand(order) == want, (label, p)
            pairs += 1
    report(3, True, f"rational series == invariant-dimension route to order 30, {pairs} series")


def test_acceptance_04_zero_form_closed_form():
    for label, L in suite_lattices():
        assert f_rational(L, 0) == f_rational_p0_direct(L), label
    report(4, True, f"F^0 equals its direct theta form on {len(suite_lattices())} lattices")


def test_acceptance_05_theta_rationality():
    for label, L in suite_lattices():
        top = 3 * L.exponent
        table = shell_table(L, top)
        for ell in range(L.n + 1):
            got = theta_ell_rational(L, ell).expand(top)
            assert got == [table[k][ell] for k in range(top + 1)], (label, ell)
        summed = RationalSeries(0)
        for ell in range(L.n + 1):
            summed = summed + theta_ell_rational(L, ell)
        assert theta_rational(L) == summed, label
    report(5, True, f"refined theta series match shell counts to 3q on {len(suite_lattices())} lattices")


def test_acceptance_06_sphere_sanity():
    table = spectrum_table(lattice_from_lens(1, (0, 0)), 0, 20)
    got = [(e.eigenvalue, e.multiplicity) for e in table.entries]
    want = [(k * (k + 2), (k + 1) ** 2) for k in range(21)]
    assert got == want
    report(6, True, "3-sphere functions: eigenvalue k(k+2) with multiplicity (k+1)^2, k <= 20")


def _characterization_pairs():
    """Family pairs from every search plus sampled non-family pairs."""
    for n in (2, 3):
        for q in range(2, 13):
            keys = isometry_classes(q, n, "orbifolds")
            lattices = [k.lattice() for k in keys]
            sampled = list(itertools.combinations(lattices[:5], 2))
            for p0 in range(n):
                family_pairs = []
                for fam in search(q, n, p0, mode="orbifolds"):
                    members = [k.lattice() for k in fam.members]
                    family_pairs.extend(itertools.combinations(members, 2))
                yield q, n, p0, family_pairs + sampled


def test_acceptance_07_characterization_equivalence():
    pairs_checked = 0
    for q, n, p0, pairs in _characterization_pairs():
        for L1, L2 in pairs:
            # the verdict of every p <= p0, by the moment series and by F^p
            by_moments = [same for same, _ in compare_spaces(L1, L2, p0)]
            by_series = [same for same, _ in compare_spaces(L1, L2, p0, "direct")]
            assert by_moments == by_series, (q, n, p0, L1.label(), L2.label())
            if p0 == n - 1:
                assert by_moments[-1] == norm_star_isospectral(L1, L2), (q, n, L1.label(), L2.label())
            pairs_checked += 1
    report(7, True, f"moment criterion <=> per-degree series equality on {pairs_checked} pairs")


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
    # the calls of the box count, the moment series and F^p in one search,
    # and the word steps of its box counts: its work, alike on every machine
    calls = {}
    for module, name in ((_kernels, "box_table"), (isospec, "moment_series"), (isospec, "f_rational")):
        log = calls[name] = []
        monkeypatch.setattr(module, name, lambda *a, fn=getattr(module, name), log=log: log.append(a) or fn(*a))
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
        assert [tuple(k.label() for k in fam.members) for fam in families] == labels, (q, n, p0)
        assert seconds < 0.02, (q, n, p0, seconds)
        for fam in families:
            lattices = [k.lattice() for k in fam.members]
            for L1, L2 in itertools.combinations(lattices, 2):
                # two independent certificates must agree
                assert all(same for same, _ in compare_spaces(L1, L2, p0, "direct"))
                assert norm_star_isospectral(L1, L2) == (p0 == n - 1)
                assert theta_rational(L1) == theta_rational(L2)
    # the CPU pin above moves with the machine; these counts do not
    assert len(isometry_classes(49, 3, "manifolds")) == 85
    assert _search_work(monkeypatch, 49, 3, 2, "manifolds") == {
        "box_table": 2,
        "box_work": 2790764,
        "moment_series": 2,
        "f_rational": 6,
    }
    labels = "; ".join(
        f"q={q}: " + " ~ ".join(pair) + f" in {time}"
        for ((q, _, _), pairs), time in zip(expected.items(), times)
        for pair in pairs
    )
    report(8, True, f"n=3 manifold searches reproduce exactly {labels}")


def test_acceptance_09_reduced_count_convolution():
    checked = 0
    for label, L in suite_lattices():
        q = L.exponent
        table = shell_table(L, 4 * q)
        for a in range(4):
            for r in range(q):
                for ell in range(L.n + 1):
                    assert table[a * q + r][ell] == convolution_rhs(L, a, r, ell), (
                        label,
                        a,
                        r,
                        ell,
                    )
                    checked += 1
    report(9, True, f"periodicity convolution identity on {checked} shell counts")


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
    report(10, True, "byte-identical repeated spectrum output and p <-> 2n-1-p columns on 3 configs")
