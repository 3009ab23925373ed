"""Run every workload over ten seeds and record one trajectory point.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py LABEL

Each run is the ``BENCHMARK.json`` command with its ``run_seconds`` and
``--trace 0``; seeds are the outer loop and workloads the inner one, so every
workload is measured over the same minutes and the speed factors of the
workloads can be compared.  Seed 1 of each workload is also run once with
``--trace 1``.  The results go to ``perfbench/trajectory/LABEL.json``: for each
run its result line, raw batch times and mean speed factor; for each metric
the median, the quartiles and the quartile spread as a share of the median.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med if med else 0.0}


def main(label: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    command, seconds = spec["command"], spec["run_seconds"]

    runs: dict[str, list[dict]] = {name: [] for name in workloads.WORKLOADS}
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            detail, result = run_once(command, workload, seed, seconds, 0)
            runs[workload].append({
                "seed": seed,
                "loadavg": detail["env"]["loadavg"],
                "rounds": detail["rounds"],
                "raw_wall_s": detail["raw_wall_s"],
                "raw_cpu_s": detail["raw_cpu_s"],
                "speed_factor": detail["speed_factor"],
                "setup_raw_wall_s": detail["setup_raw_wall_s"],
                "setup_speed_factor": detail["setup_speed_factor"],
                "result": result,
            })
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} {values} "
                  f"factor={statistics.fmean(detail['speed_factor']):.3f}", flush=True)

    point = {"label": label, "run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload, wl_runs in runs.items():
        metrics = {
            name: spread([r["result"]["metrics"][name]["value"] for r in wl_runs])
            for name in wl_runs[0]["result"]["metrics"]
        }
        metrics["raw_wall_s"] = spread([statistics.median(r["raw_wall_s"]) for r in wl_runs])
        metrics["raw_cpu_s"] = spread([statistics.median(r["raw_cpu_s"]) for r in wl_runs])
        metrics["speed_factor"] = spread([statistics.fmean(r["speed_factor"]) for r in wl_runs])
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['median']:.4g} iqr/median {s['iqr_frac']:.3f}", flush=True)
        detail, traced = run_once(command, workload, 1, seconds, 1)
        print(f"{workload} traced: top layer {detail['top_layer']}, overhead "
              f"{traced['metrics']['trace.overhead_frac']['value']:.3f}", flush=True)
        point["workloads"][workload] = {
            "env": detail["env"],
            "runs": wl_runs,
            "metrics": metrics,
            "traced": {"seed": 1, "detail": detail, "result": traced},
        }
    os.makedirs(os.path.join(HERE, "trajectory"), exist_ok=True)
    path = os.path.join(HERE, "trajectory", f"{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
