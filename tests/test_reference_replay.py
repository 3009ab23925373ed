"""Every call of the benchmark pools writes the stdout its reference records.

``perfbench/reference.json`` keys each call by its argv joined with spaces
and records the sha256 of its stdout.  The calls run in process, in a
working directory of their own holding the generator files the pools name,
so an output change shows in the test suite, not only in a benchmark run.
Nothing under ``perfbench/`` is written.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from lenspec.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pool_call_writes_its_recorded_stdout(tmp_path, monkeypatch, capsys):
    workloads = _workloads()
    entries = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))["entries"]
    pooled = {" ".join(argv) for name in workloads.WORKLOADS for argv in workloads.pool(name)}
    assert pooled == set(entries)
    monkeypatch.chdir(tmp_path)
    work_dir = tmp_path / workloads.WORK_DIR
    work_dir.mkdir(parents=True)
    for name, text in workloads.GEN_FILES.items():
        (work_dir / f"{name}.txt").write_text(text, encoding="utf-8")
    mismatched = []
    for key, recorded in sorted(entries.items()):
        code = main(key.split())
        out = capsys.readouterr().out
        if code != 0 or hashlib.sha256(out.encode("utf-8")).hexdigest() != recorded["sha256"]:
            mismatched.append(key)
    assert not mismatched, mismatched
