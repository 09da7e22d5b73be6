"""The benchmark's reference outputs for the cli pools that run the hom
table and the matrix calculus (`reduce`, `pi`, `homgroup`), replayed
in-process: a change to either table fails here before the benchmark
refuses it.  Reads bench/ and writes nothing there."""

import importlib.util
import json
import sys
from pathlib import Path

from chang.cli import run_command

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_table_pools_keep_their_reference_outputs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pools = json.loads((BENCH / "reference.json").read_text(
        encoding="utf-8"))["cli"]
    monkeypatch.chdir(BENCH.parent)     # reduce's files are named from here
    calls, differ = 0, []
    for kind in ("reduce", "pi", "homgroup"):
        for ref in pools[kind]:
            code, out = run_command(ref["argv"])
            calls += 1
            if (code, workloads.cli_digest(ref["argv"], out)) != \
                    (ref["exit"], ref["sha"]):
                differ.append(ref["argv"])
    assert calls == 1137
    assert differ == []
