import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import lenspec.cli
import lenspec.genfun
import lenspec.polyseries
import lenspec.spectrum
from lenspec.cli import main
from lenspec.errors import InvalidParameters, LenspecError
from lenspec.lattice import lattice_from_lens
from lenspec.polyseries import LaurentPolynomial, RationalSeries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_json(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--space", "L(4;1,1)", "--p", "0", "--kmax", "10",
        "--format", "json",
    )
    assert code == 0 and err == ""
    records = json.loads(out)
    assert records[0]["space"] == "L(4;1,1)"
    assert records[0]["eigenvalue"] == 0
    assert records[0]["multiplicity"] == "1"
    assert all(isinstance(r["multiplicity"], str) for r in records)


def test_spectrum_sphere_table(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--space", "L(1;0,0)", "--p", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split()[3:5] == ["0", "1"]
    assert lines[2].split()[3:5] == ["3", "4"]
    assert lines[3].split()[3:5] == ["8", "9"]


def test_spectrum_duality_remap(capsys):
    # forms of complementary degree share their spectrum
    import csv
    import io

    code1, out1, _ = run_cli(capsys, "spectrum", "--space", "L(5;1,2)", "--p", "1", "--format", "csv")
    code2, out2, _ = run_cli(capsys, "spectrum", "--space", "L(5;1,2)", "--p", "2", "--format", "csv")
    assert code1 == code2 == 0

    def strip(text):
        rows = list(csv.reader(io.StringIO(text)))
        return [row[3:] for row in rows[1:]]

    assert strip(out1) == strip(out2)


def test_spectrum_p_out_of_range(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--space", "L(7;1,2)", "--p", "5")
    assert code == 2
    assert err.startswith("error:")
    assert "\n" not in err.strip()
    # a negative number is a value, so -1 meets the range check
    code, out, err = run_cli(capsys, "spectrum", "--space", "L(5;1,2)", "--p", "-1")
    assert (code, out, err) == (2, "", "error: p must lie in 0..3 for this space\n")


def test_bad_space_string(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--space", "lens(4,1,1)")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "spectrum", "--space", "L(4;1,,1)")
    assert code == 2 and err.startswith("error:")


# the lens shorthand as a regular expression read it, each field stripped
# of its whitespace, the reference for the str-method parser
_LENS_RE = re.compile(r"^\s*L\(\s*(\d+)\s*;\s*([-\d\s,]+)\)\s*$")


def _reference_parse_space(text):
    m = _LENS_RE.match(text)
    if not m:
        raise LenspecError(f"cannot parse space {text!r}; expected L(q;s1,...,sn)")
    try:
        q = int(m.group(1))
        s = tuple(int(x.strip()) for x in m.group(2).split(","))
    except ValueError:
        raise LenspecError(f"cannot parse space {text!r}; expected L(q;s1,...,sn)")
    return f"L({q};{','.join(str(x % max(q, 1)) for x in s)})", lattice_from_lens(q, s)


def _parse_lens_space(text):
    return lenspec.cli.parse_space(text, None)


def _outcome(parse, text):
    try:
        return parse(text)
    except LenspecError as exc:
        return type(exc), str(exc)


# Unicode whitespace (\x1c, \x85, no-break and ideographic spaces among it),
# decimal digits of several scripts, and characters that are neither: the
# superscript two is a digit but not a decimal one
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"
_DIGITS = "0123456789\u0660\u0663\u0967\uff10\uff15\U0001d7ce"
_OTHER = "L()l;,-+_x\xb2"


def _mostly(usual, rare):
    # three draws in four from ``usual``
    return st.sampled_from((usual, usual, usual, rare)).flatmap(lambda strategy: strategy)


def _lens_like():
    # mostly well-formed shorthand with Unicode digits and whitespace, some
    # fields and moduli spoiled by a sign, "_" or a missing digit, and
    # arbitrary text from the same characters
    ws = st.text(_WHITESPACE, max_size=2)
    digits = st.text(_DIGITS, min_size=1, max_size=3)
    spoiled = st.text(_DIGITS + _WHITESPACE + "+-_", max_size=4)
    field = st.builds(lambda a, sign, x, b: a + sign + x + b, ws, st.sampled_from(["", "", "", "-"]), digits, ws)
    fields = st.lists(_mostly(field, spoiled), min_size=1, max_size=4).map(",".join)
    shorthand = st.builds(lambda a, q, b, f, c: f"{a}L({q}{b};{f}){c}", ws, _mostly(digits, spoiled), ws, fields, ws)
    return _mostly(shorthand, st.text(_WHITESPACE + _DIGITS + _OTHER, max_size=14))


@pytest.mark.parametrize(
    "text",
    [
        "L(5;1,2)", " L( 5 ; 1 , -2 ) ", "L(5;1,2)\n", "L(5;1,2)\n\n", "\u3000L(5;1,2)\x85",
        "L(\uff15;1,\u0663)", "L(5;+1,2)", "L(5;1_0,2)", "L(1_0;1,2)", "L(+5;1,2)", "L(-5;1,2)",
        "L(5;,1)", "L(5;1,,2)", "L(5;1,)", "L(5;)", "L(5; )", "L(5;1,2", "L(5;1,2))", "L((5;1,2)",
        "L(5;;1)", "L(5;1;2)", "L(5;--1,2)", "L(5;1 2)", "L(5 5;1,2)", "L(5;\xb2,1)", "l(5;1,2)",
        "L (5;1,2)", "L(5;1,2) x", "L()", "L(", "", "L(0;1,2)", "L(4;2,2)", "L(5;1)",
        "L(5;\x1c1,2)", "L(5;1\x1c,2)", "L(5;1,\x1c2)", "L(\x1c5\x1c;1,2)", "L(5;\x1c)",
        "L(" + "1" * 5000 + ";1,2)", "L(5;" + "1" * 5000 + ",1)",
    ],
)
def test_lens_parser_matches_the_regular_expression(text):
    assert _outcome(_parse_lens_space, text) == _outcome(_reference_parse_space, text)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_lens_like())
def test_lens_parser_matches_the_regular_expression_everywhere(text):
    assert _outcome(_parse_lens_space, text) == _outcome(_reference_parse_space, text)


def test_bad_gen_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("junk line\n")
    code, _, err = run_cli(capsys, "spectrum", "--gen-file", str(path))
    assert code == 2 and "expected" in err
    missing = tmp_path / "missing.txt"
    code, _, err = run_cli(capsys, "spectrum", "--gen-file", str(missing))
    assert code == 2 and err.startswith("error:")
    binary = tmp_path / "utf16.txt"
    binary.write_bytes(b"\xff\xfe1: 1,2\n")
    code, out, err = run_cli(capsys, "spectrum", "--gen-file", str(binary))
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1 and "UTF-8" in err


def test_bad_parameters_exit_code(tmp_path, capsys):
    comments = tmp_path / "comments.txt"
    comments.write_text("# no generator here\n\n   # nor here\n")
    for argv in (
        ("spectrum", "--space", "L(4;2,2)"),
        ("isospectral", "--space", "L(7;1,2)", "--space2", "L(7;1,3)", "--p0", "-1"),
        # rank mismatch, and p0 above n - 1, by either method
        ("isospectral", "--space", "L(7;1,2)", "--space2", "L(7;1,2,3)", "--method", "range"),
        ("isospectral", "--space", "L(7;1,2)", "--space2", "L(7;1,2,3)", "--method", "direct"),
        ("isospectral", "--space", "L(7;1,2)", "--space2", "L(7;1,3)", "--p0", "2", "--method", "range"),
        ("isospectral", "--space", "L(7;1,2)", "--space2", "L(7;1,3)", "--p0", "2", "--method", "direct"),
        ("verify", "--n", "1"),
        ("verify", "--kmax", "-2"),
        # verify scales beyond its Freudenthal work bound, rejected before any check
        ("verify", "--kmax", "1000"),
        ("verify", "--n", "1000"),
        # box count over 10^10 fundamental-domain points, rejected before it starts
        ("genfun", "--space", "L(100003;1,2,3)", "--order", "2"),
        # F^p weights of rank 60 (about 1.9 * 10^7 a_laurent terms) and 70,
        # rejected before any is built
        ("genfun", "--space", f"L(2;{','.join(['1'] * 60)})", "--order", "2"),
        ("spectrum", "--space", f"L(2;{','.join(['1'] * 70)})", "--p", "69", "--kmax", "2"),
        # class lists over more than 10^6 candidate entries, rejected before they start
        ("search", "--q", "100000", "--n", "3"),
        ("search", "--q", "1000", "--n", "6"),
        # a rank below 2 is reported as such, not as a p0 range
        ("search", "--q", "5", "--n", "0"),
        # a modulus below 1 and a table that ends before its first row
        ("search", "--q", "0", "--n", "3"),
        ("spectrum", "--space", "L(5;1,2)", "--kmax", "0"),
        # rank-driven work: box plans, phi_m weights and character sums, each
        # rejected before it starts
        ("spectrum", "--space", f"L(5;{','.join(['1'] * 400)})", "--kmax", "1"),
        ("spectrum", "--space", f"L(5;{','.join(['1'] * 10000)})", "--kmax", "1"),
        ("isospectral", "--space", f"L(5;{','.join(['1'] * 20000)})", "--space2", f"L(5;{','.join(['1'] * 20000)})"),
        ("search", "--q", "2", "--n", "100", "--p0", "0", "--mode", "orbifolds"),
        ("isospectral", "--space", f"L(2;{','.join(['1'] * 90)})", "--space2", f"L(2;{','.join(['1'] * 90)})"),
        # bad usage: no or an unknown subcommand, a missing, mistyped, unknown
        # or valueless option, a value outside the choices
        (),
        ("bogus",),
        ("search", "--n", "3"),
        ("search", "--q", "abc", "--n", "3"),
        ("search", "--q", "5", "--n", "3", "--mode", "foo"),
        ("search", "--q", "5", "--n", "3", "--bogus", "1"),
        ("search", "--q"),
        ("isospectral", "--s", "L(7;1,2)", "--space2", "L(7;1,3)"),
        # a stray positional token, a negative series order, a generator
        # file with no generator
        ("search", "--q", "5", "--n", "3", "stray"),
        ("genfun", "--space", "L(5;1,2)", "--order", "-1"),
        ("spectrum", "--gen-file", str(comments)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1, argv
        assert out == "", argv


@pytest.mark.parametrize("argv", [("--help",), ("-h",), *((name, "--help") for name in lenspec.cli.COMMANDS)])
def test_help_lists_every_command_and_option(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: lenspec")
    if len(argv) == 1:
        for name, command in lenspec.cli.COMMANDS.items():
            assert f"  {name}" in out and command.help in out
        return
    assert out == run_cli(capsys, argv[0], "-h")[1]
    command = lenspec.cli.COMMANDS[argv[0]]
    assert command.help in out
    lines = out.splitlines()
    for opt in command.options:
        (line,) = [line for line in lines if line.startswith(f"  --{opt.name} ")]
        assert opt.help in line
        assert all(choice in line for choice in opt.choices)
        if opt.default is not None:
            assert f"(default {opt.default})" in line
        assert ("(required)" in line) == opt.required


def test_options_by_prefix_and_repeat(capsys):
    # a unique prefix names an option and the last of repeated options counts,
    # as --name value or --name=value
    full = run_cli(capsys, "search", "--q", "11", "--n", "3", "--format", "json")
    assert full[0] == 0 and json.loads(full[1])
    assert run_cli(capsys, "search", "--q", "11", "--n", "3", "--form", "json") == full
    assert run_cli(capsys, "search", "--q=11", "--n=3", "--fo=json") == full
    assert run_cli(capsys, "search", "--q", "12", "--n", "3", "--q=11", "--format", "csv", "--format", "json") == full


def test_large_exponent_within_box_work_bound(capsys):
    code, out, err = run_cli(capsys, "genfun", "--space", "L(10007;1,2)", "--order", "2")
    assert code == 0 and err == ""
    # the only vectors with one zero entry are (+-q, 0) and (0, +-q)
    assert "theta^(1) = 4*z^10007 | (1-z^10007)^1\n" in out


def _fail_if_called(*args, **kwargs):
    raise AssertionError("series computed before the work bound was checked")


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--space", "L(11;1,2)", "--p", "1", "--kmax", "1000000000"),
        ("spectrum", "--space", "L(11;1,2,3)", "--p", "2", "--kmax", "1000000000"),
        ("genfun", "--space", "L(11;1,2)", "--order", "1000000000"),
        ("genfun", "--space", "L(11;1,2,3)", "--order", "1000000000"),
    ],
)
def test_expansion_work_rejected_before_any_series(capsys, monkeypatch, argv):
    # the series builders fail the test if reached, so an unbounded run never
    # starts; the commands import them from genfun when called, and spectrum
    # binds f_rational at import
    for name in ("f_rational", "theta_rational", "theta_ell_rational", "moment_series"):
        monkeypatch.setattr(lenspec.genfun, name, _fail_if_called)
    monkeypatch.setattr(lenspec.spectrum, "f_rational", _fail_if_called)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1
    assert out == ""


def _ones(q, n, last=1):
    return f"L({q};{','.join(['1'] * (n - 1) + [str(last)])})"


# per stage, a call whose work of that stage is just over the one limit, every
# earlier stage of the call admitted, and what would run once it is admitted
_JUST_OVER = {
    "box count": (("spectrum", "--space", "L(437;1,2,3)", "--kmax", "2"), ("lenspec._kernels._group_ops",)),
    "class listing": (
        ("search", "--q", "60", "--n", "5", "--mode", "orbifolds"),
        ("lenspec.isospec.combinations_with_replacement",),
    ),
    "character sums": (("search", "--q", "2", "--n", "152"), ("lenspec.isospec._is_prime",)),
    "character sums, n = 3": (("search", "--q", "383", "--n", "3"), ("lenspec.isospec._is_prime",)),
    "member box counts": (("search", "--q", "169", "--n", "3"), ("lenspec._kernels._group_ops",)),
    "phi_m weights": (
        ("isospectral", "--space", _ones(2, 47), "--space2", _ones(2, 47, 3)),
        ("lenspec.genfun.phi_weights", "lenspec._kernels._group_ops"),
    ),
    "direct weights": (
        ("isospectral", "--space", _ones(7, 31), "--space2", _ones(7, 31, 2), "--method", "direct"),
        ("lenspec.genfun.a_laurent",),
    ),
    "direct products": (
        ("isospectral", "--space", _ones(7, 24), "--space2", _ones(7, 24, 2), "--method", "direct"),
        ("lenspec.genfun.a_laurent",),
    ),
    "F^p weights": (
        ("spectrum", "--space", _ones(2, 62), "--p", "61", "--kmax", "1"), ("lenspec.genfun.a_laurent",),
    ),
    "phi_m W_m products": (
        ("genfun", "--space", "L(218159;1,2)", "--order", "2"),
        ("lenspec.genfun._phi_sum", "lenspec._kernels._group_ops"),
    ),
    "expansion": (
        ("genfun", "--space", "L(5;1,2)", "--order", "109075"),
        ("lenspec.polyseries.RationalSeries.expand", "lenspec._kernels._group_ops"),
    ),
    "spectrum table": (
        ("spectrum", "--space", "L(11;1,2)", "--p", "1", "--kmax", "65790"), ("lenspec.spectrum.f_rational",),
    ),
    "spectrum table, p = 0": (
        ("spectrum", "--space", "L(11;1,2)", "--p", "0", "--kmax", "131579"), ("lenspec.spectrum.f_rational",),
    ),
    "verify": (("verify", "--n", "8"), ("lenspec.verify.random",)),
}


@pytest.mark.parametrize("stage", sorted(_JUST_OVER))
def test_each_stage_is_refused_just_over_the_limit(capsys, monkeypatch, stage):
    argv, targets = _JUST_OVER[stage]
    for target in targets:
        monkeypatch.setattr(target, _fail_if_called)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "word steps, above the limit of 500000000" in err


def test_isospectral_admits_both_box_counts_before_either(capsys, monkeypatch):
    # the box count of L(437;1,2,3) is over the limit, that of L(433;1,2,3)
    # under it: neither runs, whichever space comes first
    monkeypatch.setattr("lenspec._kernels.box_table", _fail_if_called)
    for spaces in (("L(433;1,2,3)", "L(437;1,2,3)"), ("L(437;1,2,3)", "L(433;1,2,3)")):
        code, out, err = run_cli(capsys, "isospectral", "--space", spaces[0], "--space2", spaces[1], "--p0", "0")
        assert (code, out) == (2, ""), spaces
        assert err == (
            "error: the box count in rank 3 over exponent 437: at least 512785524 word steps,"
            " above the limit of 500000000\n"
        ), spaces


def test_direct_admits_f_series_only_from_a_differing_row(capsys, monkeypatch):
    # the pair is isometric (2 = -1 mod 3), so no row differs and direct
    # counts and builds the moment series alone: with F^0..F^30 counted too,
    # the phi_m weights of rank 31 would be over the limit
    spaces = ("--space", _ones(3, 31), "--space2", _ones(3, 31, 2))
    expected = run_cli(capsys, "isospectral", *spaces)
    monkeypatch.setattr("lenspec.isospec.f_rational", _fail_if_called)
    assert expected[0] == 0 and run_cli(capsys, "isospectral", *spaces, "--method", "direct") == expected


class _Reached(Exception):
    pass


def _reach(*args, **kwargs):
    raise _Reached


# per row of the README's table of largest admitted inputs, that input and the
# first function that runs once every stage before it is admitted
_JUST_UNDER = {
    "spectrum table": (
        ("spectrum", "--space", "L(11;1,2)", "--p", "1", "--kmax", "65789"), "lenspec.spectrum.f_rational",
    ),
    "spectrum table, n = 3": (
        ("spectrum", "--space", "L(11;1,2,3)", "--p", "1", "--kmax", "59808"), "lenspec.spectrum.f_rational",
    ),
    "spectrum table, p = 0": (
        ("spectrum", "--space", "L(11;1,2)", "--p", "0", "--kmax", "131578"), "lenspec.spectrum.f_rational",
    ),
    "spectrum --p n-1": (
        ("spectrum", "--space", _ones(2, 61), "--p", "60", "--kmax", "2"), "lenspec.spectrum.f_rational",
    ),
    "genfun order": (("genfun", "--space", "L(5;1,2)", "--order", "109074"), "lenspec.genfun.f_rational"),
    "genfun exponent": (("genfun", "--space", "L(218149;1,2)", "--order", "2"), "lenspec.genfun.f_rational"),
    "genfun rank": (("genfun", "--space", _ones(2, 34), "--order", "2"), "lenspec.genfun.f_rational"),
    "direct, q = 3": (
        ("isospectral", "--space", _ones(3, 46), "--space2", _ones(3, 46, 2), "--method", "direct"),
        "lenspec.lattice.CongruenceLattice.phi_polynomials",
    ),
    "direct, q = 7": (
        ("isospectral", "--space", _ones(7, 23), "--space2", _ones(7, 23, 2), "--method", "direct"),
        "lenspec.lattice.CongruenceLattice.phi_polynomials",
    ),
    "range, q = 2": (
        ("isospectral", "--space", _ones(2, 46), "--space2", _ones(2, 46, 3)),
        "lenspec.lattice.CongruenceLattice.phi_polynomials",
    ),
    "search n = 3 manifolds": (("search", "--q", "930", "--n", "3"), "lenspec.isospec._phi_sums"),
    "search n = 3 orbifolds": (
        ("search", "--q", "379", "--n", "3", "--mode", "orbifolds"), "lenspec.isospec._phi_sums",
    ),
    "search n = 4 orbifolds": (
        ("search", "--q", "119", "--n", "4", "--mode", "orbifolds"), "lenspec._kernels._group_ops",
    ),
    "search n = 5 orbifolds": (
        ("search", "--q", "61", "--n", "5", "--mode", "orbifolds"), "lenspec.isospec._phi_sums",
    ),
    "verify --n 7": (("verify", "--n", "7"), "lenspec.verify.random.Random"),
    "verify --kmax 22": (("verify", "--n", "3", "--kmax", "22"), "lenspec.verify.random.Random"),
    "verify --n 9 --kmax 2": (("verify", "--n", "9", "--kmax", "2"), "lenspec.verify.random.Random"),
}


@pytest.mark.parametrize("row", sorted(_JUST_UNDER))
def test_each_row_is_admitted_at_its_largest_input(capsys, monkeypatch, row):
    argv, target = _JUST_UNDER[row]
    monkeypatch.setattr(target, _reach)
    with pytest.raises(_Reached):
        main(list(argv))


def test_internal_inconsistency_is_not_a_user_error(capsys, monkeypatch):
    # a numerator with a surviving negative power, as a failed pole cancellation leaves
    broken = RationalSeries(LaurentPolynomial.term(1, -1))
    monkeypatch.setattr(lenspec.spectrum, "f_rational", lambda L, p: broken)
    code, out, err = run_cli(capsys, "spectrum", "--space", "L(5;1,2)", "--p", "0")
    assert code == 3 and out == ""
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def test_genfun_reports_a_failed_pole_cancellation_before_any_row(capsys, monkeypatch):
    # an a_laurent broken for F^1 alone leaves a negative power in its
    # numerator: f_rational reports it while the series are built, so stdout
    # stays empty, as for every error of genfun
    a_laurent = lenspec.genfun.a_laurent

    def broken(p, ell, n):
        weight = a_laurent(p, ell, n)
        return weight + LaurentPolynomial.term(1, -p) if p == 2 else weight

    monkeypatch.setattr(lenspec.genfun, "a_laurent", broken)
    code, out, err = run_cli(capsys, "genfun", "--space", "L(5;1,2)", "--order", "3")
    assert code == 3 and out == ""
    assert err.startswith("error: internal: pole cancellation failed for L(5;1,2) at p=1") and err.count("\n") == 1


def test_genfun_table_and_series(capsys):
    code, out, _ = run_cli(
        capsys, "genfun", "--space", "L(1;0,0)", "--order", "5"
    )
    assert code == 0
    assert "theta = 1*z^0 + 2*z^1 + 1*z^2 | (1-z^1)^2" in out
    assert "series[0..5] = 1 4 8 12 16 20" in out
    assert "F^0 =" in out
    assert "theta^(0)" in out and "theta^(2)" in out


def test_genfun_order_preview_length(capsys):
    code, out, _ = run_cli(
        capsys, "genfun", "--space", "L(4;1,1)", "--order", "40", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    for rec in records:
        assert len(rec["series"].split()) == 41


def test_genfun_matches_direct_formula(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--space", "L(4;1,2)", "--format", "json")
    assert code == 0
    records = {r["name"]: r["rational"] for r in json.loads(out)}
    from lenspec import RationalSeries, lattice_from_lens
    from lenspec.polyseries import LaurentPolynomial
    from lenspec.verify import f_rational_p0_direct

    # re-parse the printed F^0 and compare exactly with the direct formula
    num_text, den_text = records["F^0"].split(" | ")
    coeffs = {}
    for term in num_text.split(" + "):
        c, e = term.split("*z^")
        coeffs[int(e)] = int(c)
    factors = []
    if den_text != "1":
        for factor in den_text.split(" * "):
            base, b = factor.rsplit("^", 1)
            factors.append((int(base[len("(1-z^"):-1]), int(b)))
    printed = RationalSeries(LaurentPolynomial(coeffs), factors)
    assert printed == f_rational_p0_direct(lattice_from_lens(4, (1, 2)))


def test_isospectral_identical(capsys):
    code, out, _ = run_cli(
        capsys, "isospectral", "--space", "L(7;1,2)", "--space2", "L(7;1,4)",
        "--p0", "1", "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert all(r["isospectral_upto_p"] for r in records)


def test_isospectral_reports_first_difference(capsys):
    code, out, _ = run_cli(
        capsys, "isospectral", "--space", "L(1;0,0)", "--space2", "L(2;1,1)",
        "--p0", "0", "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["isospectral_upto_p"] is False
    assert "first difference at z^1" in rec["detail"]


# (space, space2) -> the detail of every p, by range and by direct; the
# verdicts of the two methods agree.  "differs below p" is range's at p=1 for
# L(5;1,1) ~ L(5;1,2) and direct's at p=1 for L(4;0,1) ~ L(4;1,2)
ISOSPECTRAL_DETAILS = {
    ("L(11;1,2,3)", "L(11;1,2,4)"): (
        ("ba29efc0fc54f04d", "first difference at z^3: 2 vs 4", "first difference at z^3: 2 vs 4"),
        ("ba29efc0fc54f04d", "first difference at z^1: 6 vs 4", "first difference at z^0: 2 vs 0"),
    ),
    ("L(8;1,3)", "L(8;1,5)"): (
        ("ac8be5402cfce98f", "0e70ce8c9dd6c07a"),
        ("ac8be5402cfce98f", "0e70ce8c9dd6c07a"),
    ),
    ("L(5;1,1)", "L(5;1,2)"): (
        ("first difference at z^2: 2 vs 0", "differs below p"),
        ("first difference at z^1: 3 vs 1", "first difference at z^0: 4 vs 2"),
    ),
    ("L(4;0,1)", "L(4;1,2)"): (
        ("first difference at z^1: 2 vs 0", "first difference at z^1: 2 vs 0"),
        ("first difference at z^0: 2 vs 0", "differs below p"),
    ),
}


def test_isospectral_methods_agree(capsys):
    for (s1, s2), details in ISOSPECTRAL_DETAILS.items():
        _, out1, _ = run_cli(
            capsys, "isospectral", "--space", s1, "--space2", s2, "--format", "json"
        )
        _, out2, _ = run_cli(
            capsys, "isospectral", "--space", s1, "--space2", s2, "--format", "json",
            "--method", "direct",
        )
        verdicts1 = [r["isospectral_upto_p"] for r in json.loads(out1)]
        verdicts2 = [r["isospectral_upto_p"] for r in json.loads(out2)]
        assert verdicts1 == verdicts2
        got = tuple(tuple(r["detail"] for r in json.loads(out)) for out in (out1, out2))
        assert got == details, (s1, s2)


# (space, space2, method) -> the stdout sha256 of table, json and csv.  The
# benchmark pools compare only spaces of one q; these cover different q,
# whose series are compared over a common denominator, and a q whose
# numerators have about 10^4 terms
ISOSPECTRAL_DIGESTS = {
    ("L(1009;1,1)", "L(1013;1,1)", "range"): (
        "1ec3425555f2446e5a9514942ccb1fc07ab34907f0992b743928e562acfe0d37",
        "34ef6c8f8da288468b92dc1b70bd0c491a18f1ff0befb10241dfdaea7010e39c",
        "49a97ed13bd3d5193db0885c12a3104b60393de8912c858cca9824e555117499",
    ),
    ("L(1009;1,1)", "L(1013;1,1)", "direct"): (
        "c18ab0fbd1f6f3d053c53e19ccd2d5adb764f87f8e6cbe8a815760e9fc001596",
        "d2a7ebc4f145447c9f82184566d3e473da898683867c7e336e336acea5d86bc1",
        "82c6c99ede5818b4b5b7bea6d7b428d473644acc47ef0364551671b2713617e0",
    ),
    ("L(5;1,2)", "L(7;1,2)", "range"): (
        "8e471f2957d445d15d0a3bb747ca8a0f09960fba4c0113e3db3a90225acae845",
        "c1d5306a07738a0e4654076dca21336b91d778942c38a2dbc3e4a10edb00d5af",
        "ec61f7a16235d1a62434b1b957eefe9d20a9080834caf5bd2f5c412c4caec636",
    ),
    ("L(5;1,2)", "L(7;1,2)", "direct"): (
        "7cc357357476d011ed135bc4ddf0920846900c8657ff4aa8b6de0c74f2d0ea34",
        "c7ae5434426bc3ae203321cd7fea6a851be22a3582ccdb7300c8dd3f8b048114",
        "64581ed08c0d88f3cbdac41c643f03f2a6cb4876030bd7c145dad8308b6b3cb4",
    ),
    ("L(10007;1,2)", "L(10007;1,3)", "range"): (
        "a3c3847b7295fd2c754ea0fc4732e90a04c78b5987d21a3508939297be039612",
        "f8c5bd67884c3bc21b17272b72fa2489da523ced205e972c4f2d4bcf8aea2f99",
        "488050610c1c5dedd7b27ed335285ee3b69f6682755b18fd96033d413dda383d",
    ),
    ("L(10007;1,2)", "L(10007;1,3)", "direct"): (
        "2f0e879de0065719b12f98e70a63743924995ae005d168e771e769d3db9747e0",
        "a9d18a9f1186b40a4601cb68eeb38b1421df1be1bbaae540bed61048430bb6be",
        "2a433e1704a3d2ee86af4746263501286f114bde8d92ee7b15961828da4d2994",
    ),
}


@pytest.mark.parametrize("s1, s2, method", sorted(ISOSPECTRAL_DIGESTS))
def test_isospectral_stdout_matches_its_recorded_digest(capsys, s1, s2, method):
    for fmt, recorded in zip(("table", "json", "csv"), ISOSPECTRAL_DIGESTS[s1, s2, method]):
        code, out, err = run_cli(
            capsys, "isospectral", "--space", s1, "--space2", s2, "--method", method, "--format", fmt
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == recorded, fmt


@pytest.mark.parametrize(
    "method, detail",
    [("range", "first difference at z^1009: 2020 vs 0"), ("direct", "first difference at z^1008: 2020 vs 0")],
)
def test_isospectral_reports_a_difference_past_the_expansion_bound(capsys, monkeypatch, method, detail):
    # the two coefficients of the first difference are read off one
    # expansion of each series of p=0, up to the differing power and no
    # further
    expand, orders = lenspec.polyseries.RationalSeries.expand, []
    monkeypatch.setattr(
        lenspec.polyseries.RationalSeries, "expand", lambda self, order: orders.append(order) or expand(self, order)
    )
    code, out, err = run_cli(
        capsys, "isospectral", "--space", "L(1009;1,1)", "--space2", "L(1013;1,1)",
        "--p0", "0", "--method", method, "--format", "csv",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f'"L(1009;1,1)","L(1013;1,1)",0,False,{detail}'
    k = 1009 if method == "range" else 1008
    assert orders == [k, k]


def test_search_q11(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--q", "11", "--n", "3", "--p0", "0", "--format", "json"
    )
    assert code == 0
    families = json.loads(out)
    assert families
    assert all(len(f["members"].split()) >= 2 for f in families)


def test_search_empty(capsys):
    code, out, _ = run_cli(capsys, "search", "--q", "5", "--n", "2", "--p0", "0")
    assert code == 0


def test_gen_file_space(tmp_path, capsys):
    path = tmp_path / "group.txt"
    path.write_text("# two generators\n2: 1,1,0\n2: 0,1,1\n")
    code, out, _ = run_cli(
        capsys, "spectrum", "--gen-file", str(path), "--p", "0", "--kmax", "6",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert records[0]["space"] == "G(2:1,1,0|2:0,1,1)"
    # every field is stripped of its whitespace, \x1c included, as in the shorthand
    path.write_text("2: 1\x1c,1, 0\n2:\x1c0,1\x1c,1\n")
    assert run_cli(capsys, "spectrum", "--gen-file", str(path), "--p", "0", "--kmax", "6", "--format", "json") == (
        0, out, ""
    )


def test_space_and_gen_file_conflict(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--space", "L(4;1,1)", "--gen-file", "x.txt"
    )
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("fmt, digest", [("table", "853575ac92195071"), ("json", "afc408dec1a26aeb")])
def test_verify_output_is_pinned(capsys, fmt, digest):
    # every check's name, verdict and detail at n = 3, kmax = 6, byte for byte
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--kmax", "6", "--format", fmt)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_verify_small(capsys):
    import csv
    import io

    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--kmax", "3")
    assert code == 0
    assert "multiplicity-closed-form" in out
    assert "FAIL" not in out
    # the defaults (--n 3 --kmax 6) add the rank-3 samples, the non-cyclic
    # group among them; csv is real CSV, not the table
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "verify", "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "json":
            records = json.loads(out)
        else:
            header, *rows = csv.reader(io.StringIO(out))
            assert header == ["check", "ok", "detail"]
            records = [dict(zip(header, row)) for row in rows]
        assert len(records) == 11 and [list(r) for r in records] == [["check", "ok", "detail"]] * 11
        assert all(r["ok"] in (True, "True") for r in records)
        assert any(r["check"] == "theta-rational" and r["detail"] == "9 lattices to order 3q" for r in records)


def test_verify_reports_each_failed_check_and_exits_1(capsys, monkeypatch):
    # a check that fails an assertion with no message and one that raises a
    # library error are FAIL rows with their details; the other checks run
    import lenspec.verify

    def bare(*args):
        raise AssertionError

    def refused(*args):
        raise InvalidParameters("refused here")

    monkeypatch.setattr(lenspec.verify, "check_theta_rational", bare)
    monkeypatch.setattr(lenspec.verify, "check_sphere_spectrum", refused)
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--kmax", "2")
    assert code == 1 and err == ""
    assert [line for line in out.splitlines() if not line.startswith("ok ")] == [
        "FAIL theta-rational: assertion failed",
        "FAIL sphere-spectrum: refused here",
    ]
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--kmax", "2", "--format", "json")
    assert code == 1 and err == "" and '"ok": false' in out
    failed = [(r["check"], r["detail"]) for r in json.loads(out) if not r["ok"]]
    assert failed == [("theta-rational", "assertion failed"), ("sphere-spectrum", "refused here")]


# the environment of a fresh interpreter that imports lenspec from this tree
_SRC = os.path.dirname(os.path.dirname(lenspec.cli.__file__))
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))


def _python_c(code, argv):
    return [sys.executable, "-c", code, *argv]


# runs one CLI call in a fresh interpreter without site hooks (python -S),
# which could load re or typing first and so hide them, and reports, on
# stderr's last line, its exit status and which of the watched modules the
# import of lenspec.cli and the call loaded
_IMPORT_PROBE = """
import sys
watched = ("__future__", "argparse", "dataclasses", "re", "typing", "numpy", "_hashlib", "lenspec.isospec",
           "lenspec.spectrum", "lenspec.weights", "lenspec.oracle", "lenspec.verify")
before = set(sys.modules)
from lenspec.cli import main
code = main(sys.argv[1:])
loaded = " ".join(m for m in watched if m in sys.modules and m not in before)
sys.stderr.write(f"\\nexit {code}, loaded: {loaded}\\n")
"""

# the watched modules each subcommand loads: the certification side
# (weights, oracle, verify) only behind verify, and dataclasses, re and
# typing behind no table-format call, numpy, OpenSSL's _hashlib (the
# fingerprint digests use the builtin sha256) and __future__ (no module
# postpones its annotations) behind none
_LOADED = {
    "--help": "",
    "search": "lenspec.isospec",
    "spectrum": "lenspec.spectrum",
    "genfun": "",
    "isospectral": "lenspec.isospec",
    "verify": "lenspec.spectrum lenspec.weights lenspec.oracle lenspec.verify",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("search", "--q", "13", "--n", "3"),
        ("spectrum", "--space", "L(11;1,2,3)", "--p", "1", "--kmax", "10"),
        ("genfun", "--space", "L(11;1,2,4)", "--order", "10"),
        ("isospectral", "--space", "L(11;1,2,3)", "--space2", "L(11;1,2,4)"),
        ("verify", "--n", "2", "--kmax", "3"),
    ],
)
def test_each_command_loads_only_its_modules(argv):
    res = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, *argv], capture_output=True, text=True, env=_ENV, timeout=120
    )
    assert res.stdout
    assert res.stderr.splitlines()[-1] == f"exit 0, loaded: {_LOADED[argv[0]]}"


# the process entry, as the console script and `python -m lenspec.cli` call it,
# with stdout block-buffered as users have it (PYTHONUNBUFFERED would flush
# every write and hide a missing final flush)
_ENTRY = "import sys; from lenspec.cli import main; sys.exit(main())"
_ENTRY_ENV = {k: v for k, v in _ENV.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize(
    "argv", [("--help",), ("search", "--q", "11", "--n", "3"), ("search", "--q", "5", "--n", "0")]
)
def test_process_entry_matches_in_process_call(capsys, argv):
    # main() as the process entry ends the process itself; stdout, the exit
    # status and stderr are those of main(argv)
    code, out, err = run_cli(capsys, *argv)
    res = subprocess.run(_python_c(_ENTRY, argv), capture_output=True, text=True, env=_ENTRY_ENV, timeout=120)
    assert (res.returncode, res.stdout, res.stderr) == (code, out, err)
    if code:
        assert err.startswith("error:") and err.count("\n") == 1
    else:
        assert out and err == ""


def test_in_process_call_returns(capsys, monkeypatch):
    # main(argv) returns its status on every path and never ends the process
    def refuse(code):
        raise AssertionError(f"os._exit({code}) in an in-process call")

    monkeypatch.setattr(os, "_exit", refuse)
    assert main(["--help"]) == 0
    assert main(["search", "--q", "5", "--n", "0"]) == 2
    assert main(["search", "--q", "11", "--n", "3"]) == 0
    assert capsys.readouterr().err == "error: rank n must be >= 2\n"


def test_huge_rank_search_is_refused_before_anything_of_its_size():
    # the class listing counts its candidates from q and n alone: a tuple of
    # 10^8 exponents alone would take 800 MB, above the child's address space
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    # past 2^63 the rank no longer fits a machine word
    for q, n in (("2", "100000000"), ("1", "100000000"), ("3", str(2**63)), ("3", str(10**20))):
        start = time.monotonic()
        res = subprocess.run(
            _python_c(_ENTRY, ("search", "--q", q, "--n", n)), capture_output=True, text=True,
            env=_ENTRY_ENV, timeout=60, preexec_fn=limit,
        )
        assert time.monotonic() - start < 5, (q, n)
        assert res.returncode == 2 and res.stdout == "", (q, n)
        assert res.stderr.startswith("error:") and res.stderr.count("\n") == 1, (q, n)


def test_process_entry_runs_atexit_handlers_and_flushes_after_them():
    # handlers registered before main() run, and what they write still
    # reaches both streams
    code = (
        "import atexit, sys; atexit.register(print, 'atexit ran'); "
        "atexit.register(sys.stderr.write, 'atexit on stderr\\n'); " + _ENTRY
    )
    res = subprocess.run(_python_c(code, ("--help",)), capture_output=True, text=True, env=_ENTRY_ENV, timeout=120)
    assert res.returncode == 0
    assert res.stdout == lenspec.cli.help_text() + "atexit ran\n"
    assert res.stderr == "atexit on stderr\n"


def test_process_entry_writes_every_byte_to_a_file(capsys, tmp_path):
    # about 350 kB of rows into a file: the entry's own flush writes the last
    # partial buffer, so the file holds exactly what main(argv) writes
    argv = ("spectrum", "--space", "L(11;1,2)", "--p", "1", "--kmax", "3000")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and len(out) > 300_000
    path = tmp_path / "stdout"
    with open(path, "wb") as fh:
        res = subprocess.run(_python_c(_ENTRY, argv), stdout=fh, stderr=subprocess.PIPE, env=_ENTRY_ENV, timeout=120)
    assert (res.returncode, res.stderr) == (0, b"")
    assert path.read_bytes() == out.encode()


def test_process_entry_error_writes_one_line_and_no_stdout(tmp_path):
    path = tmp_path / "stdout"
    with open(path, "wb") as fh:
        res = subprocess.run(
            _python_c(_ENTRY, ("spectrum", "--space", "L(5;1,2")), stdout=fh, stderr=subprocess.PIPE, env=_ENTRY_ENV,
            timeout=120,
        )
    assert res.returncode == 2 and path.read_bytes() == b""
    assert res.stderr == b"error: cannot parse space 'L(5;1,2'; expected L(q;s1,...,sn)\n"


def test_closed_stdout_exits_141_silently():
    # about 350 kB of rows, far more than a pipe holds, so the call is still
    # writing when the reader closes its end: the reader's choice, not a user
    # error, so exit 141 (the shell's status for SIGPIPE) and no error line
    argv = ("spectrum", "--space", "L(11;1,2)", "--p", "1", "--kmax", "3000")
    with subprocess.Popen(_python_c(_ENTRY, argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_ENTRY_ENV) as proc:
        assert proc.stdout.readline().startswith(b"space")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


def test_stdout_closed_before_the_first_write_exits_141_silently():
    # no reader from the start: the small help text stays buffered until the
    # entry's flushes, which meet the broken pipe and still give 141
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            _python_c(_ENTRY, ("--help",)), stdout=write_end, stderr=subprocess.PIPE, env=_ENTRY_ENV, timeout=120
        )
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (141, b"")
