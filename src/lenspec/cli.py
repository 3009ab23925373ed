"""Command-line interface.

Subcommands: ``spectrum``, ``genfun``, ``isospectral``, ``search`` and
``verify``.  Spaces are given either as the lens shorthand ``L(q;s1,...,sn)``
or as a generator file (one ``q: s1,s2,...,sn`` line per generator) for
non-cyclic torus subgroups.  Structured output renders multiplicities as
decimal strings since they outgrow 64-bit integers quickly.

Options are ``--name value`` or ``--name=value``; a unique prefix of a name
is accepted and the last of repeated options counts.  One table,
:data:`COMMANDS`, gives every subcommand's handler, help line and options;
:func:`parse_args` and the ``--help`` texts are both read off it, so no
argument-parsing library is loaded.

Identical invocations produce byte-identical output.  Invalid input,
bad usage included, exits 2 and an internal inconsistency exits 3, each with
a single ``error:`` line on stderr and nothing on stdout; the work of every
series expansion is bounded before it starts.  A reader that closes stdout
early (``lenspec ... | head -1``) ends the call with status 141, the shell's
status for SIGPIPE, and nothing on stderr.

``main()`` with no argument is the process entry: the console script,
``python -m lenspec.cli``.  It does not return: it runs the ``atexit``
handlers, flushes stdout and stderr and ends the process with
:func:`os._exit`, which skips the rest of the interpreter's shutdown (its
module teardown and collection passes).  ``main(argv)`` is an in-process
call and returns the exit status.

Each subcommand imports the modules it runs when it is called, so ``--help``
and ``search`` never load the certification side (:mod:`lenspec.verify`,
:mod:`lenspec.oracle`, :mod:`lenspec.weights`).  No module of the
production path loads :mod:`re` or :mod:`typing`: the lens shorthand is read
with str methods and its records are :func:`collections.namedtuple` types
or plain classes.  Every subcommand names its columns once and hands its
rows, tuples in that order, to :func:`_emit_records`, the one writer of
records.  Apart from it only the help text reaches stdout.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import DimensionMismatch, InternalError, LenspecError


def _lens_parameters(text: str) -> tuple[int, tuple[int, ...]]:
    r"""(q, (s1, ..., sn)) of the lens shorthand ``L(q;s1,...,sn)``.

    Whitespace (``str.isspace``) may surround the whole and every part, q is
    decimal digits (``str.isdecimal``) and each s_j is what ``int`` reads
    from a field of digits, ``-`` and whitespace.  Anything else raises
    ValueError.  This accepts and reads exactly what the pattern
    ``^\s*L\(\s*(\d+)\s*;\s*([-\d\s,]+)\)\s*$`` followed by ``int`` does,
    without loading :mod:`re`.
    """
    body = text.strip()
    if not (body.startswith("L(") and body.endswith(")")):
        raise ValueError(text)
    digits, semicolon, fields = body[2:-1].partition(";")
    # the pattern drops the whitespace after ";" before int reads the first
    # field; int itself would refuse some of it (\x1c-\x1f)
    digits, fields = digits.strip(), fields.lstrip()
    if not (semicolon and fields and digits.isdecimal()) or not all(
        c in "-," or c.isdecimal() or c.isspace() for c in fields
    ):
        raise ValueError(text)
    return int(digits), tuple(int(x) for x in fields.split(","))


def parse_space(text: str | None, gen_file: str | None):
    """Resolve --space / --gen-file into (label, lattice)."""
    from .lattice import CongruenceLattice, lattice_from_lens

    if (text is None) == (gen_file is None):
        raise LenspecError("exactly one of --space or --gen-file is required")
    if text is not None:
        try:
            q, s = _lens_parameters(text)
        except ValueError:
            raise LenspecError(f"cannot parse space {text!r}; expected L(q;s1,...,sn)") from None
        return f"L({q};{','.join(str(x % max(q, 1)) for x in s)})", lattice_from_lens(q, s)
    generators = []
    n = None
    with open(gen_file, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise LenspecError(f"generator file {gen_file!r} is not UTF-8 ({exc.reason} at byte {exc.start})")
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, rest = line.partition(":")
            try:
                q = int(head.strip())
                s = tuple(int(x) for x in rest.split(","))
            except ValueError:
                raise LenspecError(f"{gen_file}:{lineno}: expected 'q: s1,s2,...,sn'")
            if n is None:
                n = len(s)
            generators.append((q, s))
    if n is None:
        raise LenspecError(f"generator file {gen_file!r} defines no generators")
    lattice = CongruenceLattice(n, generators)
    return lattice.label(), lattice


def _emit_records(fmt: str, columns: tuple[str, ...], rows, line=None) -> None:
    """Write the rows of a subcommand to stdout.

    Every subcommand writes its records through here.  ``rows`` is an
    iterable of tuples in the order of ``columns``, read once.  json writes
    what ``json.dumps(..., indent=2)`` writes for the list of
    ``dict(zip(columns, row))``, csv a header of the column names and then one
    line per row; both write each row as it is rendered.  table writes
    ``line(row)`` per row when the command has a line format of its own, and
    otherwise space-padded columns, whose widths need every cell first: each
    row's cells are rendered once and kept until they are written.
    """
    write = sys.stdout.write
    if fmt == "json":
        import json

        # one flat record at indent 2 inside the list: the C encoder with
        # these separators writes the same bytes, since json escapes every
        # newline inside a string
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        sep = "[\n  {\n    "
        for row in rows:
            write(sep + encode(dict(zip(columns, row)))[1:-1] + "\n  }")
            sep = ",\n  {\n    "
        write("[]\n" if sep.startswith("[") else "\n]\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    elif line is not None:
        for row in rows:
            write(line(row) + "\n")
    else:
        from itertools import islice

        # a rendered row is kept as one string, its cells joined by NUL, which
        # no cell holds (cells are numbers, labels, digests and fixed
        # phrases), since a tuple of cell strings takes about 3.5 times the
        # memory; the widths grow a chunk of rows at a time
        widths, kept, rows = list(map(len, columns)), [], iter(rows)
        while chunk := [tuple(map(str, row)) for row in islice(rows, 1024)]:
            widths = list(map(max, widths, *[map(len, cells) for cells in chunk]))
            kept += map("\0".join, chunk)
        write("  ".join(map(str.ljust, columns, widths)) + "\n")
        for cells in kept:
            write("  ".join(map(str.ljust, cells.split("\0"), widths)) + "\n")


def cmd_spectrum(args) -> int:
    from .spectrum import spectrum_table

    label, lattice = parse_space(args.space, args.gen_file)
    n = lattice.n
    p = args.p
    if not 0 <= p <= 2 * n - 1:
        raise LenspecError(f"p must lie in 0..{2 * n - 1} for this space")
    internal = min(p, 2 * n - 1 - p)  # spectra on p- and (2n-1-p)-forms agree
    table = spectrum_table(lattice, internal, args.kmax)

    rows = (
        (label, n, p, entry.eigenvalue, str(entry.multiplicity),
         ";".join(f"{c.k}:{c.family}:{c.multiplicity}" for c in entry.contributors))
        for entry in table.entries
    )
    _emit_records(args.format, ("space", "n", "p", "eigenvalue", "multiplicity", "contributors"), rows)
    return 0


def cmd_genfun(args) -> int:
    from .genfun import check_f_expand_work, check_laurent_work, f_rational, theta_ell_rational, theta_rational

    if args.order < 0:
        raise LenspecError("--order must be >= 0")
    label, lattice = parse_space(args.space, args.gen_file)
    n = lattice.n
    check_f_expand_work(n, args.order)
    check_laurent_work(n, range(1, n + 1))
    # every series is built before the first row is written, so an error
    # leaves stdout empty; each row is rendered only when written
    named = [(f"F^{p}", f_rational(lattice, p)) for p in range(n)]
    named.append(("theta", theta_rational(lattice)))
    named.extend((f"theta^({ell})", theta_ell_rational(lattice, ell)) for ell in range(n + 1))

    rows = (
        (label, name, series.to_text(), " ".join(map(str, series.expand(args.order))))
        for name, series in named
    )

    def line(row):
        _, name, rational, series = row
        return f"{name} = {rational}\n  series[0..{args.order}] = {series}"

    _emit_records(args.format, ("space", "name", "rational", "series"), rows, line)
    return 0


def _first_series_difference(r1, r2):
    diff = (r1 - r2).numerator
    if diff.is_zero():
        return None
    at = max(diff.min_exp(), 0)
    a = r1.expand(at)[at]
    b = r2.expand(at)[at]
    return at, a, b


def cmd_isospectral(args) -> int:
    from .genfun import check_laurent_work, f_rational, moment_series
    from .isospec import fingerprint_digest, numerator_fingerprint

    label1, lat1 = parse_space(args.space, args.gen_file)
    label2, lat2 = parse_space(args.space2, None)
    if lat1.n != lat2.n:
        raise DimensionMismatch(f"rank mismatch: {lat1.n} vs {lat2.n}")
    p0 = args.p0 if args.p0 is not None else lat1.n - 1
    if args.method == "direct" and p0 < lat1.n:  # moment_series rejects a larger p0
        check_laurent_work(lat1.n, range(1, p0 + 2))
    # isospectral up to p: the moment series (range) or F series (direct) of
    # every order <= p agree
    moments1 = moment_series(lat1, p0)  # rejects p0 outside 0..n-1
    fingerprint = numerator_fingerprint(moments1)
    if args.method == "direct":
        series1, series2 = ([f_rational(L, p) for p in range(p0 + 1)] for L in (lat1, lat2))
    else:
        series1, series2 = moments1, moment_series(lat2, p0)
    rows = []
    cumulative = True
    for p in range(p0 + 1):
        cumulative = cumulative and series1[p] == series2[p]
        detail = fingerprint_digest(fingerprint[: p + 1])
        if not cumulative:
            diff = _first_series_difference(series1[p], series2[p])
            if diff is not None:
                detail = f"first difference at z^{diff[0]}: {diff[1]} vs {diff[2]}"
            else:
                detail = "differs below p"
        rows.append((label1, label2, p, cumulative, detail))
    _emit_records(args.format, ("space", "space2", "p", "isospectral_upto_p", "detail"), rows)
    return 0


def cmd_search(args) -> int:
    from .isospec import search

    families = search(args.q, args.n, args.p0, mode=args.mode)
    rows = [
        (i, fam.q, fam.n, fam.p0, " ".join(key.label() for key in fam.members), fam.fingerprint)
        for i, fam in enumerate(families)
    ]
    _emit_records(args.format, ("family", "q", "n", "p0", "members", "fingerprint"), rows)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(max_n=args.n, kmax=args.kmax)
    _emit_records(
        args.format, ("check", "ok", "detail"), results,
        lambda r: f"{'ok' if r.ok else 'FAIL':4s} {r.name}: {r.detail}",
    )
    return 0 if all(r.ok for r in results) else 1


class Option:
    """One ``--name value`` option of a subcommand."""

    __slots__ = ("name", "type", "default", "choices", "required", "help")

    def __init__(self, name, type=str, default=None, choices=(), required=False, help=""):
        self.name, self.type, self.default = name, type, default
        self.choices, self.required, self.help = choices, required, help


class Command:
    """A subcommand: the function that runs it, its help line, its options."""

    __slots__ = ("handler", "help", "options")

    def __init__(self, handler, help, options):
        self.handler, self.help, self.options = handler, help, options


_SPACE = (
    Option("space", help="lens shorthand L(q;s1,...,sn)"),
    Option("gen-file", help="generator file, one 'q: s1,...,sn' line each"),
)
_FORMAT = Option("format", default="table", choices=("table", "json", "csv"), help="output format")

# subcommand -> its handler, help line and options; parse_args and the help
# text both read this table
COMMANDS = {
    "spectrum": Command(cmd_spectrum, "eigenvalue/multiplicity table on p-forms", (
        *_SPACE,
        Option("p", int, 0, help="form degree, 0..2n-1"),
        Option("kmax", int, 25, help="largest eigenvalue index k"),
        _FORMAT,
    )),
    "genfun": Command(cmd_genfun, "exact rational generating functions", (
        *_SPACE,
        Option("order", int, 30, help="series preview order"),
        _FORMAT,
    )),
    "isospectral": Command(cmd_isospectral, "decide p-isospectrality of two spaces", (
        *_SPACE,
        Option("space2", required=True, help="second space, lens shorthand"),
        Option("p0", int, help="check p = 0..p0 (default n-1)"),
        Option("method", default="range", choices=("range", "direct"), help="moment series or every F^p"),
        _FORMAT,
    )),
    "search": Command(cmd_search, "families of isospectral lens parameters", (
        Option("q", int, required=True, help="modulus"),
        Option("n", int, required=True, help="rank"),
        Option("p0", int, 0, help="isospectral for p = 0..p0"),
        Option("mode", default="manifolds", choices=("manifolds", "orbifolds"), help="free actions only, or all"),
        _FORMAT,
    )),
    "verify": Command(cmd_verify, "run the cross-route identity checks", (
        Option("n", int, 3, help="largest rank to certify"),
        Option("kmax", int, 6, help="largest eigenvalue index k"),
        _FORMAT,
    )),
}


def help_text(command: str | None = None) -> str:
    """The ``--help`` text of the program, or of one subcommand."""
    if command is None:
        width = max(map(len, COMMANDS))
        lines = [f"usage: lenspec <command> [options]\n\nExact Hodge-Laplace spectra of lens spaces and lens orbifolds.\n\ncommands:"]
        lines += [f"  {name.ljust(width)}  {cmd.help}" for name, cmd in COMMANDS.items()]
        lines.append("\nRun 'lenspec <command> --help' for the options of a command.")
        return "\n".join(lines) + "\n"
    cmd = COMMANDS[command]
    rows = [("-h, --help", "show this help")]
    for opt in cmd.options:
        value = "{" + ",".join(opt.choices) + "}" if opt.choices else opt.name.replace("-", "_").upper()
        note = " (required)" if opt.required else "" if opt.default is None else f" (default {opt.default})"
        rows.append((f"--{opt.name} {value}", opt.help + note))
    width = max(len(flag) for flag, _ in rows)
    lines = [f"usage: lenspec {command} [options]\n\n{cmd.help}\n\noptions:"]
    lines += [f"  {flag.ljust(width)}  {text}" for flag, text in rows]
    return "\n".join(lines) + "\n"


def _show_help(text: str) -> int:
    sys.stdout.write(text)
    return 0


def parse_args(argv: list[str]):
    """Parse ``<command> --name value ...`` against :data:`COMMANDS`.

    Returns (handler, args), ``args`` holding every option of the command
    under its name with ``-`` read as ``_``.  An option is ``--name value``
    or ``--name=value``, ``name`` may be shortened to any unique prefix and
    the last of repeated options counts.  ``-h``/``--help`` returns a handler
    that writes the help text.  Bad usage raises LenspecError.
    """
    if not argv:
        raise LenspecError(f"a command is required: {', '.join(COMMANDS)}")
    command, *rest = argv
    if command in ("-h", "--help"):
        return _show_help, help_text()
    if command not in COMMANDS:
        raise LenspecError(f"invalid command {command!r}, choose from {', '.join(COMMANDS)}")
    options = {opt.name: opt for opt in COMMANDS[command].options}
    values = {name: opt.default for name, opt in options.items()}
    given = set()
    tokens = iter(rest)
    for token in tokens:
        token = "--help" if token == "-h" else token
        name, has_value, value = token[2:].partition("=")
        if not token.startswith("--") or not name:
            raise LenspecError(f"unrecognized argument {token!r}")
        if name not in options and name != "help":
            matches = [known for known in (*options, "help") if known.startswith(name)]
            if not matches:
                raise LenspecError(f"unrecognized option --{name}")
            if len(matches) > 1:
                raise LenspecError(f"ambiguous option --{name}: could be {', '.join('--' + m for m in matches)}")
            name = matches[0]
        if name == "help":
            return _show_help, help_text(command)
        if not has_value:
            value = next(tokens, None)
            # a negative number is a value, any other dash word an option
            if value is None or value.startswith("-") and not value[1:].isdigit():
                raise LenspecError(f"option --{name} expects a value")
        opt = options[name]
        if opt.type is int:
            try:
                value = int(value)
            except ValueError:
                raise LenspecError(f"option --{name} expects an integer, got {value!r}") from None
        if opt.choices and value not in opt.choices:
            raise LenspecError(f"option --{name} must be one of {', '.join(opt.choices)}, got {value!r}")
        values[name] = value
        given.add(name)
    missing = [f"--{name}" for name, opt in options.items() if opt.required and name not in given]
    if missing:
        raise LenspecError(f"{command} requires {', '.join(missing)}")
    return COMMANDS[command].handler, SimpleNamespace(**{k.replace("-", "_"): v for k, v in values.items()})


def _call(argv: list[str]) -> int:
    """Run one call and return its exit status; report errors on stderr."""
    try:
        handler, args = parse_args(argv)
        code = handler(args)
        sys.stdout.flush()  # a closed stdout shows here rather than at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout, as `| head -1` does: not a user error
        return 141
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    except LenspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run one call with the arguments ``argv`` and return its exit status.

    ``main(argv)``, for tests and library callers, returns.  ``main()``, with
    ``argv`` None, reads ``sys.argv[1:]`` and is the process entry: it ends
    the process itself.  As the interpreter's shutdown would, it runs the
    ``atexit`` handlers and then flushes stdout (a reader that closed it
    gives 141) and stderr; :func:`os._exit` then skips the rest of that
    shutdown, the teardown of every module and live object.  An exception
    other than the call's errors (a bug, or an interrupt) propagates, and
    the interpreter reports it and shuts down as usual.
    """
    if argv is not None:
        return _call(list(argv))
    code = _call(sys.argv[1:])
    import atexit

    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = 141
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
