import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import lenspec.cli
import lenspec.genfun
import lenspec.isospec
import lenspec.spectrum
from lenspec.cli import main
from lenspec.errors import LenspecError
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


def test_bad_space_string(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--space", "lens(4,1,1)")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "spectrum", "--space", "L(4;1,,1)")
    assert code == 2 and err.startswith("error:")


# the lens shorthand as a regular expression read it, the reference for the
# str-method parser
_LENS_RE = re.compile(r"^\s*L\(\s*(\d+)\s*;\s*([-\d\s,]+)\)\s*$")


def _reference_parse_space(text):
    m = _LENS_RE.match(text)
    if not m:
        raise LenspecError(f"cannot parse space {text!r}; expected L(q;s1,...,sn)")
    try:
        q = int(m.group(1))
        s = tuple(int(x) for x in m.group(2).split(","))
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
        # F^p weights of rank 60 (about 1.9 * 10^7 a_laurent terms), 50 and 40, rejected before any is built
        ("genfun", "--space", f"L(2;{','.join(['1'] * 60)})", "--order", "2"),
        ("spectrum", "--space", f"L(2;{','.join(['1'] * 50)})", "--p", "49", "--kmax", "2"),
        ("isospectral", "--space", f"L(3;{','.join(['1'] * 40)})", "--space2", f"L(3;{','.join(['1'] * 39)},2)",
         "--method", "direct"),
        # class lists over more than 10^6 candidate entries, rejected before they start
        ("search", "--q", "100000", "--n", "3"),
        ("search", "--q", "1000", "--n", "6"),
        # a rank below 2 is reported as such, not as a p0 range
        ("search", "--q", "5", "--n", "0"),
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


def test_internal_inconsistency_is_not_a_user_error(capsys, monkeypatch):
    # no two series of the family check are equal
    monkeypatch.setattr(lenspec.isospec, "f_rational", lambda L, p: object())
    code, out, err = run_cli(capsys, "search", "--q", "11", "--n", "3", "--p0", "0")
    assert code == 3 and out == ""
    assert err == "error: internal: fingerprint bucket failed exact verification\n"

    # a numerator with a surviving negative power, as a failed pole cancellation leaves
    broken = RationalSeries(LaurentPolynomial.term(1, -1))
    monkeypatch.setattr(lenspec.spectrum, "f_rational", lambda L, p: broken)
    code, out, err = run_cli(capsys, "spectrum", "--space", "L(5;1,2)", "--p", "0")
    assert code == 3 and out == ""
    assert err.startswith("error: internal: ") and err.count("\n") == 1


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
    from lenspec import RationalSeries, f_rational_p0_direct, lattice_from_lens
    from lenspec.polyseries import LaurentPolynomial

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


def test_isospectral_methods_agree(capsys):
    pairs = [
        ("L(11;1,2,3)", "L(11;1,2,4)"),
        ("L(8;1,3)", "L(8;1,5)"),
        ("L(5;1,1)", "L(5;1,2)"),
    ]
    for s1, s2 in pairs:
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


def test_space_and_gen_file_conflict(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--space", "L(4;1,1)", "--gen-file", "x.txt"
    )
    assert code == 2 and err.startswith("error:")


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


# the environment of a fresh interpreter that imports lenspec from this tree
_SRC = os.path.dirname(os.path.dirname(lenspec.cli.__file__))
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))


def _python_c(code, argv):
    return [sys.executable, "-c", code, *argv]


# runs one CLI call in a fresh interpreter without site hooks (python -S),
# which could load re or typing first and so hide them, and reports, on
# stderr's last line, its exit status, whether numpy was imported by then and
# which of the watched modules the import of lenspec.cli and the call loaded
_IMPORT_PROBE = """
import sys
watched = ("argparse", "dataclasses", "re", "typing", "numpy", "_hashlib", "lenspec.isospec", "lenspec.spectrum",
           "lenspec.weights", "lenspec.oracle", "lenspec.verify")
before = set(sys.modules)
from lenspec.cli import main
code = main(sys.argv[1:])
loaded = " ".join(m for m in watched if m in sys.modules and m not in before)
sys.stderr.write(f"\\nexit {code}, numpy imported: {'numpy' in sys.modules}, loaded: {loaded}\\n")
"""

# the watched modules each subcommand loads: the certification side
# (weights, oracle, verify) and dataclasses only behind verify, re and typing
# behind no table-format call of the production path, and numpy and OpenSSL's
# _hashlib behind none (the fingerprint digests use the builtin sha256)
_LOADED = {
    "--help": "",
    "search": "lenspec.isospec",
    "spectrum": "lenspec.spectrum",
    "genfun": "",
    "isospectral": "lenspec.isospec",
    "verify": "dataclasses re typing lenspec.spectrum lenspec.weights lenspec.oracle lenspec.verify",
}


@pytest.mark.parametrize(
    "argv, numpy_imported",
    [
        (("--help",), False),
        (("search", "--q", "13", "--n", "3"), False),
        (("spectrum", "--space", "L(11;1,2,3)", "--p", "1", "--kmax", "10"), False),
        (("genfun", "--space", "L(11;1,2,4)", "--order", "10"), False),
        (("isospectral", "--space", "L(11;1,2,3)", "--space2", "L(11;1,2,4)"), False),
        # the certification route behind verify is pure Python too
        (("verify", "--n", "2", "--kmax", "3"), False),
    ],
)
def test_numpy_only_on_the_certification_route(argv, numpy_imported):
    res = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, *argv], capture_output=True, text=True, env=_ENV, timeout=120
    )
    assert res.stdout
    assert res.stderr.splitlines()[-1] == (
        f"exit 0, numpy imported: {numpy_imported}, loaded: {_LOADED[argv[0]]}"
    )


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
