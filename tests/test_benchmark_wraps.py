"""The traced benchmark run wraps actkit functions by module attribute
(perfbench/tracing.py, WRAPS).  A renamed function or a dropped import
would otherwise fail only inside a traced benchmark run."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_benchmark_wrap_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        wraps = importlib.import_module("tracing").WRAPS
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)
    assert wraps
    missing = [f"actkit.{mod}.{attr}" for mod, attr, *_ in wraps
               if not callable(getattr(importlib.import_module(
                   f"actkit.{mod}"), attr, None))]
    assert not missing, f"benchmark wraps missing functions: {missing}"
