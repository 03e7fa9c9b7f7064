"""The benchmark's workloads use the package by name; every use must hold.

``perfbench/workloads.trace_targets`` lists ``(owner, attribute, ...)`` for
each wrapped layer, and the ``slices`` workload reads ``sample_marked``'s
list of marked points.  A renamed layer or a changed sampler form would
otherwise only show up in a benchmark run, and a layer that its callers
no longer reach would read 0 there.
"""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bdgeom import functionals, geometry, process, statistics, suite, theory, verify
from bdgeom.functionals import NeighborhoodMap, make_clique, make_morse

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BD = SimpleNamespace(
    functionals=functionals,
    geometry=geometry,
    process=process,
    statistics=statistics,
    theory=theory,
    verify=verify,
)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_slices_workload_matches_the_suite_route(workloads):
    # the benchmark's object route over sample_marked against the array draw
    slices = workloads.Slices(BD, 3001, 1)
    for rep in range(2):
        pos, births, ends = suite._marked_arrays(slices.config, rep)
        bench = slices._slices(rep, workloads._no_span)
        assert len(bench) == len(slices.times)
        for pts, t in zip(bench, slices.times):
            assert np.array_equal(pts, pos[(births <= t) & (t < ends)])


def test_every_trace_target_resolves(workloads):
    targets = workloads.trace_targets(BD)
    assert targets
    for owner, attr, span, *_ in targets:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner!r} has no {attr!r}"


def _exclusive_replay():
    config = process.SimulationConfig(n=60, dim=2, horizon=1.0, density=process.Density("uniform", 2))
    statistics.sample_path(config, make_clique(1), [0.5, 1.0], 0.08, NeighborhoodMap("balls"))


def _circumball_evaluation():
    points = np.random.default_rng(5).random((60, 2))
    config = process.Configuration.from_points(points, geometry.Metric("torus", 2))
    statistics.evaluate_statistic(config, make_morse(1), 0.08, NeighborhoodMap("circumball"))


def _exclusive_model():
    theory.exclusive_mixture_model(
        make_clique(1), NeighborhoodMap("balls"), process.Density("uniform", 2), 1.0,
        budget=200, max_rate=8, tail_tol=0.5, seed=0,
    )


@pytest.mark.parametrize("route", [_exclusive_replay, _circumball_evaluation, _exclusive_model])
def test_region_targets_trace_real_calls(workloads, route):
    from spans import SpanTable, Tracer

    tracer = Tracer()
    for owner, attr, name, units in workloads.trace_targets(BD):
        tracer.wrap(owner, attr, name, units)
    try:
        route()
    finally:
        tracer.restore()
    table = SpanTable(tracer)
    for name in ("functionals.NeighborhoodMap.build", "functionals.BallUnionRegion.contains_many"):
        assert table.calls(name) > 0, name
