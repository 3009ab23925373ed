"""Record ``reference.json``: for every invocation in every workload pool, the
sha256 of its stdout, its class count, and its cost at the recording commit.

Usage, from the root of a checkout (takes several minutes)::

    python3 perfbench/record.py LABEL

The digests define correct output for all later commits, so record only at a
commit whose output is trusted.  The costs document the strata in
``workloads.py``; the class counts come from the library, untimed.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.dont_write_bytecode = True

import workloads  # noqa: E402
from run import REFERENCE, ROOT, TIMEOUT_S, Bench  # noqa: E402


def class_count(argv: tuple[str, ...], isometry_classes) -> int:
    """Isometry classes a call handles: all classes of a search, else its spaces."""
    if argv[0] == "search":
        opts = dict(zip(argv[1::2], argv[2::2]))
        return len(isometry_classes(int(opts["--q"]), int(opts["--n"]), opts["--mode"]))
    return sum(argv.count(flag) for flag in ("--space", "--space2", "--gen-file"))


def main(label: str) -> int:
    bench = Bench(deadline=float("inf"), reference=None)
    entries = record(bench)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"recorded_at": label, "env": bench.stamp, "entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def record(bench: Bench) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lenspec.isospec import isometry_classes

    entries = {}
    for name in workloads.WORKLOADS:
        for argv in workloads.pool(name):
            res = bench.invoke([*bench.launcher, *argv], TIMEOUT_S)
            key = " ".join(argv)
            if res["code"] != 0:
                raise SystemExit(f"{key}: exit {res['code']}: {res['stderr']}")
            entries[key] = {
                "sha256": hashlib.sha256(res["stdout"]).hexdigest(),
                "classes": class_count(argv, isometry_classes),
                "cpu_s": round(res["cpu_s"], 3),
                "rss_mb": round(res["rss_mb"], 1),
            }
            print(f"{res['cpu_s']:7.2f} s {res['rss_mb']:6.0f} MB  {key}", flush=True)
    return entries


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "unlabelled"))
