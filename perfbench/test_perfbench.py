"""Self-test of the benchmark: ``python3 -m pytest perfbench`` from the root.

Runs the cheapest pool entry of each workload twice under the tracer and
checks that counts repeat exactly and that the layer each workload is built
around shows up with non-zero self time.
"""

import json
import os
import sys
import time

import pytest

import run
import tracer
import workloads

CORE_LAYERS = {
    "search-manifolds": ("kernels.box_s",),
    "search-orbifolds": ("kernels.box_s", "isospec.key_s"),
    "spectra": ("kernels.shell_s", "weights.mgamma_s"),
}


def cheapest(workload, reference, command=None):
    entries = [argv for argv in workloads.pool(workload) if command in (None, argv[0])]
    return min(entries, key=lambda argv: reference[" ".join(argv)]["cpu_s"])


@pytest.fixture(scope="module")
def bench():
    return run.Bench(deadline=time.perf_counter() + 600)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_and_core_layers_observed(bench, workload):
    batch = [cheapest(workload, bench.reference)]
    if workload == "spectra":  # the cheapest entry overall touches no shell count
        batch.append(cheapest(workload, bench.reference, "spectrum"))
    first, second = ([bench.run_cli(argv, traced=True) for argv in batch] for _ in range(2))
    assert all(rec["ok"] for rec in first + second), [rec.get("reason") for rec in first + second]
    a, b = run.layer_totals(first), run.layer_totals(second)
    units = run.layer_units()
    for name, unit in units.items():
        if unit in ("count", "bits", "bytes"):
            assert a[name] == b[name], name
    for name in CORE_LAYERS[workload]:
        assert a[name] > 0 and b[name] > 0, name


def test_draw_takes_one_entry_per_stratum_and_repeats():
    for workload, strata in workloads.WORKLOADS.items():
        batch = workloads.draw(workload, 7)
        assert batch == workloads.draw(workload, 7)
        assert len(batch) == len(strata)
        assert all(any(inv in stratum for inv in batch) for stratum in strata)


def test_every_search_batch_checks_non_empty_output(bench):
    for workload in ("search-manifolds", "search-orbifolds"):
        digests = [bench.reference[" ".join(argv)]["sha256"] for argv in workloads.pool(workload)]
        empty = max(set(digests), key=digests.count)  # the header-only table
        for seed in range(1, 201):
            batch = workloads.draw(workload, seed)
            assert any(bench.reference[" ".join(argv)]["sha256"] != empty for argv in batch), (workload, seed)


def test_every_pool_entry_has_a_reference(bench):
    for workload in workloads.WORKLOADS:
        for argv in workloads.pool(workload):
            assert " ".join(argv) in bench.reference


def test_tracer_rebinds_names_imported_elsewhere(bench, tmp_path):
    # spectrum imports m_gamma and cli imports spectrum_table by name; at p=1
    # every k in 1..kmax costs two m_gamma calls
    argv = ("spectrum", "--space", "L(5;1,2)", "--p", "1", "--kmax", "4")
    out = tmp_path / "trace.json"
    res = bench.invoke([sys.executable, run.TRACER, str(out), bench.entry, *argv], 60)
    assert res["code"] == 0
    summary = json.loads(out.read_text())
    assert summary["layers"]["weights.mgamma"]["calls"] == 8
    assert summary["layers"]["spectrum.table"]["calls"] == 1
    assert summary["absent"] == []


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(run.ROOT, "src"))
    tr = tracer.Tracer()
    tr.install("_kernels:no_such_kernel", "kernels.none")
    tr.install("no_such_module:f", "none.f")
    assert tr.summary()["absent"] == ["_kernels:no_such_kernel", "no_such_module:f"]
