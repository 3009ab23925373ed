"""Run one lenspec CLI call with spans around the calls into each layer.

Usage: ``python3 perfbench/tracer.py OUT.json ENTRY ARG...`` where ENTRY is
the console-script target (``lenspec.cli:main``).  stdout and the exit status
are those of the CLI; the span summary is written to OUT.json.

A span is (name, start, end, parent).  The program itself is unchanged: the
tracer replaces every binding of a traced function in the ``lenspec.*``
module namespaces and classes, because several modules import functions by
name.  A traced function the program no longer has is reported as absent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter

PACKAGE = "lenspec"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.absent: list[str] = []
        self.broken_hooks: set[str] = set()
        self.caches: list = []  # lru_cache objects whose hits are reported
        self.fingerprints: Counter = Counter()  # of the search in progress
        self._units: dict[int, int] = {}

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        params = []
        if hook is not None:
            try:
                params = list(inspect.signature(fn).parameters)
            except (TypeError, ValueError):
                tracer.broken_hooks.add(hook.__name__)

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None and hook.__name__ not in tracer.broken_hooks:
                try:
                    bound = dict(zip(params, args))
                    bound.update(kwargs)
                    hook(tracer, result, bound)
                except Exception:  # a changed signature disables the counter only
                    tracer.broken_hooks.add(hook.__name__)
            return result

        return traced

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def count(self, key: str, value: int) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, -1):
            self.maxima[key] = value

    def units(self, q: int) -> int:
        if q not in self._units:
            self._units[q] = sum(1 for t in range(1, q + 1) if math.gcd(t, q) == 1)
        return self._units[q]

    # -- binding ---------------------------------------------------------------

    def install(self, target: str, name: str, hook=None) -> None:
        """Trace ``module:qualname`` under span ``name`` at every binding."""
        modname, _, qualname = target.partition(":")
        try:
            obj = importlib.import_module(f"{PACKAGE}.{modname}")
            for part in qualname.split("."):
                owner, obj = obj, getattr(obj, part)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return
        original = inspect.getattr_static(owner, qualname.split(".")[-1])
        if hasattr(original, "cache_info"):
            self.caches.append((name, original))
        traced = self.wrap(name, original, hook)
        for mod in [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                elif isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for cattr, cvalue in list(vars(value).items()):
                        if cvalue is original:
                            setattr(value, cattr, traced)

    # -- summary ---------------------------------------------------------------

    def summary(self) -> dict:
        """Self time and calls per span name, plus counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: dict[str, dict] = {}
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            rec = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
            rec["self_s"] += end - start - child[i]
            rec["calls"] += 1
            if parent < 0:
                top += end - start
        hits = Counter()
        for name, cached in self.caches:
            hits[name] += cached.cache_info().hits
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "maxima": self.maxima,
            "cache_hits": dict(hits),
            "top_level_s": top,
            "absent": self.absent + [f"hook:{h}" for h in sorted(self.broken_hooks)],
        }


# -- counters at the layer boundaries ----------------------------------------------


def box_hook(tr, table, args):
    n, radius = args["n"], args["radius"]
    tr.count("box_volume", (2 * radius + 1) ** n)
    tr.count("box_points", int(table.sum()))


def shell_hook(tr, table, args):
    # integer points of one-norm <= kmax: sum_i 2^i C(n,i) C(kmax,i)
    n, kmax = args["n"], args["kmax"]
    tr.count("shell_volume", sum((1 << i) * math.comb(n, i) * math.comb(kmax, i) for i in range(n + 1)))


def group_hook(tr, elements, args):
    tr.count("group_elements", len(elements))


def series_hook(tr, series, args):
    coeffs = series.numerator.coeffs
    tr.peak("num_terms_max", len(coeffs))
    tr.peak("coeff_bits_max", max((abs(c).bit_length() for c in coeffs.values()), default=0))


def mul_hook(tr, product, args):
    other = args["other"]
    tr.count("mul_term_pairs", len(args["self"].coeffs) * (len(other.coeffs) if hasattr(other, "coeffs") else 1))


def expand_hook(tr, coeffs, args):
    tr.count("expand_ops", (args["order"] + 1) * sum(b for _, b in args["self"].denominator))


def key_hook(tr, key, args):
    tr.count("key_unit_trials", tr.units(args["q"]))


def classes_hook(tr, keys, args):
    tr.count("classes", len(keys))


def fingerprint_hook(tr, fp, args):
    if tr.inside("isospec.search"):
        tr.fingerprints[fp] += 1


def search_hook(tr, families, args):
    fps, tr.fingerprints = tr.fingerprints, Counter()
    tr.count("buckets", len(fps))
    tr.peak("bucket_max", max(fps.values(), default=0))
    tr.count("families", len(families))


def parser_hook(tr, parser, args):
    parser.parse_args = tr.wrap("cli.parse", parser.parse_args)


# (target, span name, counter hook); every span name is one layer metric
SPANS = [
    ("_kernels:box_table", "kernels.box", box_hook),
    ("_kernels:shell_table", "kernels.shell", shell_hook),
    ("lattice:TorusSubgroup.lattice", "lattice.group", None),
    ("lattice:TorusSubgroup._element_rotations", "lattice.group", group_hook),
    ("lattice:CongruenceLattice.phi_polynomials", "lattice.phi", None),
    ("weights:m_gamma", "weights.mgamma", None),
    ("genfun:theta_ell_rational", "genfun.theta", series_hook),
    ("genfun:theta_rational", "genfun.theta", series_hook),
    ("genfun:f_rational", "genfun.f", series_hook),
    ("polyseries:RationalSeries.__eq__", "polyseries.eq", None),
    ("polyseries:LaurentPolynomial.__mul__", "polyseries.mul", mul_hook),
    ("polyseries:RationalSeries.expand", "polyseries.expand", expand_hook),
    ("isospec:canonical_key", "isospec.key", key_hook),
    ("isospec:isometry_classes", "isospec.classes", classes_hook),
    ("isospec:_moment_fingerprint", "isospec.fingerprint", fingerprint_hook),
    ("isospec:isospectral_range", "isospec.range", None),
    ("isospec:search", "isospec.search", search_hook),
    ("spectrum:spectrum_table", "spectrum.table", None),
    ("cli:build_parser", "cli.parse", parser_hook),
    ("cli:_emit_records", "cli.emit", None),
    ("cli:main", "cli.main", None),
]


class _TracedStdout:
    """Proxy for sys.stdout that puts every write inside a cli.emit span."""

    def __init__(self, tracer, stream):
        self._stream = stream
        self.write = tracer.wrap("cli.emit", stream.write)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def main(argv: list[str]) -> int:
    out_path, entry, cli_args = argv[0], argv[1], argv[2:]
    modname, _, attr = entry.partition(":")
    tracer = Tracer()
    idx = tracer.open("cli.import")
    module = importlib.import_module(modname)
    tracer.close(idx)
    for target, name, hook in SPANS:
        tracer.install(target, name, hook)
    real_stdout = sys.stdout
    sys.stdout = _TracedStdout(tracer, real_stdout)
    code = 1
    try:
        code = getattr(module, attr)(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = real_stdout
        real_stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
