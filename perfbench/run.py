"""End-to-end and per-layer benchmark of the lenspec command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search-manifolds --seed 1 --seconds 30 --trace 0

The benchmark puts ``src`` on the children's path, byte-compiles it, draws a
batch of CLI invocations from the workload's pool with ``--seed`` (see
``workloads.py``) and runs it as a closed loop: one client, one child process
at a time, each child a fresh interpreter so caches start cold as they do for
users.  Every child's stdout is checked against the sha256 recorded at the
seed commit in ``reference.json``; a non-zero exit, a timeout or a differing
digest fails the invocation.  The batch is repeated while the next round still
fits in ``--seconds`` (at least one round), and each timing is the median
over rounds.

Times are scaled to a fixed machine speed: the benchmark pins itself and its
children to one CPU, a thread of this process (``SpeedProbe``) times a short
pure-Python loop on that CPU in turns with each child, and the child's wall
and CPU times are multiplied by the probe's factor.  The raw sums and the
factors are on the detail line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
invocation twice back to back, once plainly and once under ``tracer.py``, and
prints the per-layer metrics of the traced runs together with the tracing
overhead.  The line before the last one carries the environment stamp, the
batch, the raw times and speed factors, the sample counts and the failures;
the last line is the result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import tomllib

sys.dont_write_bytecode = True

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
TRACER = os.path.join(HERE, "tracer.py")

TIMEOUT_S = 30.0  # per invocation; the slowest pool entry took under 5 s at the seed
DEADLINE_S = 150.0  # for all invocations of one run, so a hang cannot stall it
SETUP_STARTS = 11  # `--help` starts timed for setup_s, after one warm-up start
LOOP_REF_S = 0.0017  # SpeedProbe's loop time on the machine of the seed baseline
PROBE_GAP_S = 0.1  # between probe samples: about 2% of the core

# Children get one BLAS/OpenMP thread each: the numbers should measure the
# program, not the scheduler of a 2-core machine.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMBA_NUM_THREADS",
    )
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "classes_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> span name whose self time (or call count) it reports
LAYER_SELF_S = {
    "kernels.box_s": "kernels.box",
    "kernels.shell_s": "kernels.shell",
    "lattice.group_s": "lattice.group",
    "lattice.phi_s": "lattice.phi",
    "weights.mgamma_s": "weights.mgamma",
    "genfun.theta_s": "genfun.theta",
    "genfun.f_s": "genfun.f",
    "polyseries.eq_s": "polyseries.eq",
    "polyseries.mul_s": "polyseries.mul",
    "polyseries.expand_s": "polyseries.expand",
    "isospec.key_s": "isospec.key",
    "isospec.classes_s": "isospec.classes",
    "isospec.fingerprint_s": "isospec.fingerprint",
    "isospec.range_s": "isospec.range",
    "isospec.search_s": "isospec.search",
    "spectrum.table_s": "spectrum.table",
    "cli.import_s": "cli.import",
    "cli.parse_s": "cli.parse",
    "cli.emit_s": "cli.emit",
    "cli.main_s": "cli.main",
}
LAYER_CALLS = {
    "kernels.box_calls": "kernels.box",
    "kernels.shell_calls": "kernels.shell",
    "weights.mgamma_calls": "weights.mgamma",
    "genfun.theta_calls": "genfun.theta",
    "genfun.f_calls": "genfun.f",
    "polyseries.eq_calls": "polyseries.eq",
    "polyseries.mul_calls": "polyseries.mul",
    "isospec.key_calls": "isospec.key",
}
# per-layer metric -> tracer counter (summed) or maximum
LAYER_COUNTS = {
    "kernels.box_volume": "box_volume",
    "kernels.shell_volume": "shell_volume",
    "lattice.group_elements": "group_elements",
    "polyseries.mul_term_pairs": "mul_term_pairs",
    "polyseries.expand_ops": "expand_ops",
    "isospec.key_unit_trials": "key_unit_trials",
    "isospec.classes": "classes",
    "isospec.buckets": "buckets",
    "isospec.families": "families",
}
LAYER_MAXIMA = {
    "genfun.num_terms_max": "num_terms_max",
    "genfun.coeff_bits_max": "coeff_bits_max",
    "isospec.bucket_max": "bucket_max",
}
DERIVED_UNITS = {
    "kernels.box_ns_per_point": "ns",
    "kernels.box_hit_ratio": "ratio",
    "kernels.shell_ns_per_point": "ns",
    "genfun.theta_cache_hits": "count",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


def layer_units() -> dict[str, str]:
    units = {name: "s" for name in LAYER_SELF_S}
    units.update({name: "count" for name in (*LAYER_CALLS, *LAYER_COUNTS)})
    units.update({name: "count" for name in LAYER_MAXIMA})
    units["genfun.coeff_bits_max"] = "bits"
    units.update(DERIVED_UNITS)
    return units


class SpeedProbe:
    """Samples the speed of the core a child runs on, while the child runs.

    On a shared machine the speed of each core moves between modes about 30%
    apart, within a second and independently of the other core, far more than
    the bounds the timings must hold.  The benchmark and its children are
    pinned to one CPU, so this thread shares the child's core: every
    PROBE_GAP_S it times a pure-Python loop (about 2 ms of CPU), and once more
    after the child has ended.  Probe and child take turns on the core and
    never run at the same time, so the probe sees the speed of the core and
    not the child's load on caches or memory.  ``factor`` is the mean of
    LOOP_REF_S over the loop times; ``busy_s`` is the CPU time the probe took
    from the core while the child ran.
    """

    def __enter__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    @staticmethod
    def _sample() -> float:
        start = time.thread_time()
        acc = 0
        for i in range(20_000):
            acc = (acc * 31 + i) % 1_000_003
        return time.thread_time() - start

    def _run(self):
        while not self._stop.wait(PROBE_GAP_S):
            self.samples.append(self._sample())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.busy_s = sum(self.samples)
        self.samples.append(self._sample())  # so that a short child has one too
        self.factor = statistics.fmean(LOOP_REF_S / t for t in self.samples)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no program, no reference)."""


class Bench:
    """Runs CLI invocations of one checkout and checks their output."""

    def __init__(self, deadline: float, reference: str | None = REFERENCE):
        self.deadline = deadline
        self.work = os.path.join(ROOT, workloads.WORK_DIR)
        src = os.path.join(ROOT, "src")
        pyproject = os.path.join(ROOT, "pyproject.toml")
        if not os.path.isfile(pyproject) or not os.path.isdir(src):
            raise SetupError("no pyproject.toml and src/ here: run from the root of a lenspec checkout")
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
        if "lenspec" not in scripts:
            raise SetupError("pyproject.toml declares no lenspec console script")
        self.entry = scripts["lenspec"]
        module, _, attr = self.entry.partition(":")
        # what the installed console script runs
        self.launcher = [sys.executable, "-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]
        self.reference = {}
        if reference is not None:
            with open(reference, encoding="utf-8") as fh:
                self.reference = json.load(fh)["entries"]
        self.env = {k: v for k, v in os.environ.items() if k != "LENSPEC_PURE"}
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = src
        os.makedirs(self.work, exist_ok=True)
        for name, text in workloads.GEN_FILES.items():
            with open(os.path.join(self.work, f"{name}.txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
        compileall.compile_dir(src, quiet=1)
        # one CPU for this process and its children, so that SpeedProbe
        # measures the core the child runs on
        self.cpus_allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpus_allowed[0]})
        self.stamp = self._environment()

    def _environment(self) -> dict:
        probe = (
            "import json, platform, numpy, lenspec._kernels as k; "
            "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__, "
            "'backend': getattr(k, 'backend_name', lambda: 'absent')()}))"
        )
        res = self.invoke([sys.executable, "-c", probe], TIMEOUT_S)
        if res["code"] != 0:
            raise SetupError(f"lenspec does not import from src/ (exit {res['code']}): {res['stderr'][-400:]}")
        stamp = json.loads(res["stdout"])
        stamp["cpu_affinity"] = sorted(os.sched_getaffinity(0))
        stamp["cpus_allowed"] = self.cpus_allowed
        stamp["loadavg"] = list(os.getloadavg())
        return stamp

    def invoke(self, cmd: list[str], timeout: float) -> dict:
        """Run one child to completion; wall, rusage and output."""
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill():
                with lock:
                    if not state["reaped"]:
                        os.kill(proc.pid, signal.SIGKILL)
                        state["killed"] = True

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                with lock:
                    state["reaped"] = True
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace")
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
            "timed_out": state["killed"],
            "stdout": stdout,
            "stderr": stderr,
        }

    def timed(self, cmd: list[str], timeout: float) -> dict:
        """``invoke`` plus the factor that scales its times to the reference speed."""
        with SpeedProbe() as probe:
            res = self.invoke(cmd, timeout)
        res["wall_s"] -= probe.busy_s  # the probe's turns on the child's core
        res["speed_factor"] = probe.factor
        return res

    def run_cli(self, argv: tuple[str, ...], traced: bool) -> dict:
        """One checked invocation; with ``traced`` also its span summary."""
        key = " ".join(argv)
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return {"argv": key, "ok": False, "reason": "run deadline passed"}
        trace_path = os.path.join(self.work, "trace.json")
        if traced:
            if os.path.exists(trace_path):
                os.remove(trace_path)
            cmd = [sys.executable, TRACER, trace_path, self.entry, *argv]
        else:
            cmd = [*self.launcher, *argv]
        res = self.timed(cmd, min(TIMEOUT_S, remaining))
        digest = hashlib.sha256(res["stdout"]).hexdigest()
        expected = self.reference.get(key, {})
        rec = {
            "argv": key,
            "wall_s": res["wall_s"] * res["speed_factor"],
            "cpu_s": res["cpu_s"] * res["speed_factor"],
            "raw_wall_s": res["wall_s"],
            "raw_cpu_s": res["cpu_s"],
            "speed_factor": res["speed_factor"],
            "rss_mb": res["rss_mb"],
            "stdout_bytes": len(res["stdout"]),
            "classes": expected.get("classes", 0),
            "ok": False,
        }
        if res["timed_out"]:
            rec["reason"] = "timeout"
        elif res["code"] != 0:
            rec["reason"] = f"exit {res['code']}: {res['stderr'].strip()[-300:]}"
        elif digest != expected.get("sha256"):
            rec["reason"] = "stdout digest differs from the reference"
        else:
            rec["ok"] = True
        if traced and rec["ok"]:
            with open(trace_path, encoding="utf-8") as fh:
                rec["trace"] = json.load(fh)
        return rec

    def setup_starts(self) -> list[dict]:
        """Raw wall times and speed factors of no-work CLI starts (`--help`)."""
        starts = []
        for i in range(SETUP_STARTS + 1):
            res = self.timed([*self.launcher, "--help"], TIMEOUT_S)
            if res["code"] != 0:
                raise SetupError(f"`lenspec --help` exited {res['code']}: {res['stderr'][-400:]}")
            if i:
                starts.append({"raw_wall_s": res["wall_s"], "speed_factor": res["speed_factor"]})
        return starts


def batch_totals(records: list[dict]) -> dict:
    done = [r for r in records if r["ok"]]
    wall = sum(r["wall_s"] for r in done)
    return {
        "wall_s": wall,
        "cpu_s": sum(r["cpu_s"] for r in done),
        "classes_per_s": sum(r["classes"] for r in done) / wall if wall else 0.0,
        "peak_rss_mb": max((r["rss_mb"] for r in done), default=0.0),
        "raw_wall_s": sum(r["raw_wall_s"] for r in done),
        "raw_cpu_s": sum(r["raw_cpu_s"] for r in done),
        "speed_factor": statistics.fmean(r["speed_factor"] for r in done) if done else 0.0,
    }


def layer_totals(records: list[dict]) -> dict:
    """Per-layer metrics of one traced round, summed over its invocations."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    maxima: dict[str, int] = {}
    hits = top = wall = 0.0
    out_bytes = 0
    for rec in records:
        if not rec["ok"]:
            continue
        tr = rec["trace"]
        for name, layer in tr["layers"].items():
            self_s[name] = self_s.get(name, 0.0) + layer["self_s"] * rec["speed_factor"]
            calls[name] = calls.get(name, 0) + layer["calls"]
        for name, value in tr["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in tr["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), value)
        hits += sum(tr["cache_hits"].values())
        top += tr["top_level_s"]
        wall += rec["raw_wall_s"]
        out_bytes += rec["stdout_bytes"]
    metrics = {m: self_s.get(span, 0.0) for m, span in LAYER_SELF_S.items()}
    metrics.update({m: calls.get(span, 0) for m, span in LAYER_CALLS.items()})
    metrics.update({m: counts.get(c, 0) for m, c in LAYER_COUNTS.items()})
    metrics.update({m: maxima.get(c, 0) for m, c in LAYER_MAXIMA.items()})
    box_volume, shell_volume = counts.get("box_volume", 0), counts.get("shell_volume", 0)
    metrics["kernels.box_ns_per_point"] = metrics["kernels.box_s"] * 1e9 / box_volume if box_volume else 0.0
    metrics["kernels.box_hit_ratio"] = counts.get("box_points", 0) / box_volume if box_volume else 0.0
    metrics["kernels.shell_ns_per_point"] = metrics["kernels.shell_s"] * 1e9 / shell_volume if shell_volume else 0.0
    metrics["genfun.theta_cache_hits"] = int(hits)
    metrics["cli.stdout_bytes"] = out_bytes
    metrics["trace.coverage"] = top / wall if wall else 0.0
    return metrics


def layer_shares(metrics: dict) -> dict[str, float]:
    """Self time per layer (module) as a share of all traced self time."""
    per_layer: dict[str, float] = {}
    for name in LAYER_SELF_S:
        layer = name.split(".")[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + metrics[name]
    total = sum(per_layer.values())
    return {layer: t / total for layer, t in per_layer.items()} if total else per_layer


def summarize(workload: str, seed: int, trace: bool, bench: Bench, batch, rounds, setup) -> tuple[dict, dict]:
    plain = [r for r, _ in rounds]
    totals = [batch_totals(r) for r in plain]
    records = [rec for pair in rounds for part in pair if part for rec in part]
    failures = [{"argv": r["argv"], "reason": r["reason"]} for r in records if not r["ok"]]
    detail = {
        "workload": workload,
        "seed": seed,
        "env": bench.stamp,
        "batch": [" ".join(argv) for argv in batch],
        "rounds": len(rounds),
        "failures": failures,
        "raw_wall_s": [t["raw_wall_s"] for t in totals],
        "raw_cpu_s": [t["raw_cpu_s"] for t in totals],
        "speed_factor": [t["speed_factor"] for t in totals],
        "setup_raw_wall_s": statistics.median(s["raw_wall_s"] for s in setup),
        "setup_speed_factor": statistics.median(s["speed_factor"] for s in setup),
        # a child's peak RSS from wait4 is at least this process's peak RSS
        "bench_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not trace:
        metrics = {name: statistics.median(t[name] for t in totals) for name in ("wall_s", "cpu_s", "classes_per_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(s["raw_wall_s"] * s["speed_factor"] for s in setup)
        units = E2E_UNITS
        detail["samples"] = {
            "wall_s": len(totals),
            "cpu_s": len(totals),
            "classes_per_s": len(totals),
            "peak_rss_mb": sum(len(r) for r in plain),
            "setup_s": len(setup),
            "invocations_per_round": len(batch),
        }
    else:
        traced = [layer_totals(t) for _, t in rounds]
        metrics = dict(traced[0])  # counts repeat exactly between rounds
        for name in (*LAYER_SELF_S, "kernels.box_ns_per_point", "kernels.shell_ns_per_point", "trace.coverage"):
            metrics[name] = statistics.median(t[name] for t in traced)
        # each invocation ran plainly and traced back to back, so drift cancels
        pairs = [(p, t) for pl, tr in rounds for p, t in zip(pl, tr) if p["ok"] and t["ok"]]
        plain_wall = sum(p["wall_s"] for p, _ in pairs)
        traced_wall = sum(t["wall_s"] for _, t in pairs)
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
        units = layer_units()
        shares = layer_shares(metrics)
        detail["samples"] = {"traced_rounds": len(traced), "invocations_per_round": len(batch)}
        detail["layer_self_share"] = shares
        detail["top_layer"] = max(shares, key=shares.get) if shares else None
        detail["absent"] = sorted({a for r in records if r.get("trace") for a in r["trace"]["absent"]})
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = Bench(deadline=time.perf_counter() + DEADLINE_S)
        setup = bench.setup_starts()
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    batch = workloads.draw(args.workload, args.seed)

    rounds = []  # (plain records, traced records or None)
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain, traced = [], []
        for inv in batch:
            plain.append(bench.run_cli(inv, traced=False))
            if args.trace:
                traced.append(bench.run_cli(inv, traced=True))
        rounds.append((plain, traced if args.trace else None))
        now = time.perf_counter()
        if now - measure_start + (now - round_start) > args.seconds or now >= bench.deadline:
            break

    detail, result = summarize(args.workload, args.seed, bool(args.trace), bench, batch, rounds, setup)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
