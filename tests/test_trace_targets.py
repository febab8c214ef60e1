"""Every function the benchmark traces by name still resolves.

`perfbench/tracing.py` wraps enrq functions by their module attribute
names, and its `Tracer` refuses a missing name and any enrq module global
bound to a traced function that its target does not list as an alias (a
`from .lattice import exact_det` that it would not wrap).  The benchmark
smoke runs catch either; this test catches them in the Tier-1 run.
"""

import importlib
from pathlib import Path

import enrq

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    # every submodule loaded, so that an alias anywhere in enrq is seen
    for name in enrq._SUBMODULES:
        importlib.import_module(f"enrq.{name}")
    tracer = tracing.Tracer()  # resolves each target and alias, or raises LookupError
    assert len(tracer.calls) == len(tracing.TARGETS)
