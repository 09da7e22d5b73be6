import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_attributes_resolve_on_the_library(monkeypatch):
    # a traced benchmark run wraps these names; a refactor that moves one
    # would otherwise surface only there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(mod, attr) for mod, attr in tracing.TARGETS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing
    assert callable(importlib.import_module("chang.steenrod").SqModule.__init__)
