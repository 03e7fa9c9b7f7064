"""The benchmark's tracer wraps layers by name; every name must resolve.

``perfbench/workloads.trace_targets`` lists ``(owner, attribute, ...)`` for
each wrapped layer.  A renamed layer would otherwise only show up in a
manual ``perfbench/run.py --trace 1`` run.
"""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from bdgeom import functionals, geometry, process, statistics, theory, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    bd = SimpleNamespace(
        functionals=functionals,
        geometry=geometry,
        process=process,
        statistics=statistics,
        theory=theory,
        verify=verify,
    )
    targets = workloads.trace_targets(bd)
    assert targets
    for owner, attr, span, *_ in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner!r} has no {attr!r}"
