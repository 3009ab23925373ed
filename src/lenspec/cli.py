"""Command-line interface.

Subcommands: ``spectrum``, ``genfun``, ``isospectral``, ``search`` and
``verify``.  Spaces are given either as the lens shorthand ``L(q;s1,...,sn)``
or as a generator file (one ``q: s1,s2,...,sn`` line per generator) for
non-cyclic torus subgroups.  Structured output renders multiplicities as
decimal strings since they outgrow 64-bit integers quickly.

Identical invocations produce byte-identical output.  Invalid input exits 2
and an internal inconsistency exits 3, each with a single ``error:`` line;
the work of every series expansion is bounded before it starts.

Each subcommand imports the modules it runs when it is called, so ``--help``
and ``search`` never load the certification side (:mod:`lenspec.verify`,
:mod:`lenspec.oracle`, :mod:`lenspec.weights`) or numpy, and output rows are
written as they are rendered.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import DimensionMismatch, InternalError, LenspecError

_LENS_RE = re.compile(r"^\s*L\(\s*(\d+)\s*;\s*([-\d\s,]+)\)\s*$")


def parse_space(text: str | None, gen_file: str | None):
    """Resolve --space / --gen-file into (label, lattice)."""
    from .lattice import CongruenceLattice, lattice_from_lens

    if (text is None) == (gen_file is None):
        raise LenspecError("exactly one of --space or --gen-file is required")
    if text is not None:
        m = _LENS_RE.match(text)
        if not m:
            raise LenspecError(f"cannot parse space {text!r}; expected L(q;s1,...,sn)")
        try:
            q = int(m.group(1))
            s = tuple(int(x) for x in m.group(2).split(","))
        except ValueError:
            raise LenspecError(f"cannot parse space {text!r}; expected L(q;s1,...,sn)")
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


def _emit_records(fmt: str, records, columns: list[str]) -> None:
    """Write the records to stdout one row at a time.

    ``records`` is a function returning a fresh iterator of record dicts; the
    table format calls it twice, first for the column widths.  The output is
    that of rendering the whole list at once: ``json.dumps(..., indent=2)``,
    a csv ``DictWriter`` or space-padded columns.
    """
    write = sys.stdout.write
    if fmt == "json":
        import json

        # one flat record at indent 2 inside the list: the C encoder with
        # these separators writes the same bytes, since json escapes every
        # newline inside a string
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        sep = "[\n  {\n    "
        for rec in records():
            write(sep + encode(rec)[1:-1] + "\n  }")
            sep = ",\n  {\n    "
        write("[]\n" if sep.startswith("[") else "\n]\n")
        return
    if fmt == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for rec in records():
            writer.writerow({c: rec.get(c, "") for c in columns})
        return

    def cells(rec):
        return [str(rec.get(c, "")) for c in columns]

    widths = list(map(len, columns))
    for rec in records():
        widths = list(map(max, widths, map(len, cells(rec))))
    write("  ".join(map(str.ljust, columns, widths)) + "\n")
    for rec in records():
        write("  ".join(map(str.ljust, cells(rec), widths)) + "\n")


def cmd_spectrum(args) -> int:
    from .spectrum import spectrum_table

    label, lattice = parse_space(args.space, args.gen_file)
    n = lattice.n
    p = args.p
    if not 0 <= p <= 2 * n - 1:
        raise LenspecError(f"p must lie in 0..{2 * n - 1} for this space")
    internal = min(p, 2 * n - 1 - p)  # spectra on p- and (2n-1-p)-forms agree
    table = spectrum_table(lattice, internal, args.kmax)

    def records():
        for entry in table.entries:
            yield {
                "space": label,
                "n": n,
                "p": p,
                "eigenvalue": entry.eigenvalue,
                "multiplicity": str(entry.multiplicity),
                "contributors": ";".join(f"{c.k}:{c.family}:{c.multiplicity}" for c in entry.contributors),
            }

    _emit_records(args.format, records, ["space", "n", "p", "eigenvalue", "multiplicity", "contributors"])
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

    def records():
        for name, series in named:
            yield {
                "space": label,
                "name": name,
                "rational": series.to_text(),
                "series": " ".join(str(c) for c in series.expand(args.order)),
            }

    if args.format == "table":
        for rec in records():
            sys.stdout.write(f"{rec['name']} = {rec['rational']}\n  series[0..{args.order}] = {rec['series']}\n")
    else:
        _emit_records(args.format, records, ["space", "name", "rational", "series"])
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
    if args.space2 is None:
        raise LenspecError("--space2 is required for isospectral")
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
    records = []
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
        records.append(
            {
                "space": label1,
                "space2": label2,
                "p": p,
                "isospectral_upto_p": cumulative,
                "detail": detail,
            }
        )
    _emit_records(args.format, lambda: records, ["space", "space2", "p", "isospectral_upto_p", "detail"])
    return 0


def cmd_search(args) -> int:
    from .isospec import search

    families = search(args.q, args.n, args.p0, mode=args.mode)
    records = []
    for i, fam in enumerate(families):
        records.append(
            {
                "family": i,
                "q": fam.q,
                "n": fam.n,
                "p0": fam.p0,
                "members": " ".join(key.label() for key in fam.members),
                "fingerprint": fam.fingerprint,
            }
        )
    _emit_records(args.format, lambda: records, ["family", "q", "n", "p0", "members", "fingerprint"])
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(max_n=args.n, kmax=args.kmax)
    if args.format == "json":
        import json

        records = [{"check": r.name, "ok": r.ok, "detail": r.detail} for r in results]
        sys.stdout.write(json.dumps(records, indent=2) + "\n")
    else:
        for r in results:
            status = "ok" if r.ok else "FAIL"
            sys.stdout.write(f"{status:4s} {r.name}: {r.detail}\n")
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenspec",
        description="Exact Hodge-Laplace spectra of lens spaces and lens orbifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space(p, second=False):
        p.add_argument("--space", help="lens shorthand L(q;s1,...,sn)")
        p.add_argument("--gen-file", help="generator file, one 'q: s1,...,sn' line each")
        if second:
            p.add_argument("--space2", help="second space, lens shorthand")

    def add_common(p):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p_spec = sub.add_parser("spectrum", help="eigenvalue/multiplicity table on p-forms")
    add_space(p_spec)
    p_spec.add_argument("--p", type=int, default=0)
    p_spec.add_argument("--kmax", type=int, default=25)
    add_common(p_spec)
    p_spec.set_defaults(fn=cmd_spectrum)

    p_gen = sub.add_parser("genfun", help="exact rational generating functions")
    add_space(p_gen)
    p_gen.add_argument("--order", type=int, default=30, help="series preview order (default 30)")
    add_common(p_gen)
    p_gen.set_defaults(fn=cmd_genfun)

    p_iso = sub.add_parser("isospectral", help="decide p-isospectrality of two spaces")
    add_space(p_iso, second=True)
    p_iso.add_argument("--p0", type=int, default=None, help="check p = 0..p0 (default n-1)")
    p_iso.add_argument("--method", choices=("range", "direct"), default="range")
    add_common(p_iso)
    p_iso.set_defaults(fn=cmd_isospectral)

    p_sea = sub.add_parser("search", help="families of isospectral lens parameters")
    p_sea.add_argument("--q", type=int, required=True)
    p_sea.add_argument("--n", type=int, required=True)
    p_sea.add_argument("--p0", type=int, default=0)
    p_sea.add_argument("--mode", choices=("manifolds", "orbifolds"), default="manifolds")
    add_common(p_sea)
    p_sea.set_defaults(fn=cmd_search)

    p_ver = sub.add_parser("verify", help="run the cross-route identity checks")
    p_ver.add_argument("--n", type=int, default=3, help="largest rank to certify")
    p_ver.add_argument("--kmax", type=int, default=6)
    add_common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    except LenspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
