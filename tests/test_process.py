"""Birth-death process: samplers, event engine, densities, configurations."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bdgeom.functionals import ConfigError
from bdgeom.geometry import Metric
from bdgeom.process import (
    Configuration,
    Density,
    Event,
    MarkedPoint,
    SimulationConfig,
    alive_count_path,
    density_from_spec,
    export_events,
    sample_marked,
    sample_stationary,
    simulate_events,
    slice_at,
)
from bdgeom.verify import poisson_chi_square


def _config(n=40.0, horizon=2.0, dim=2, seed=0, gamma=None):
    return SimulationConfig(
        n=n, dim=dim, horizon=horizon, density=Density("uniform", dim),
        seed=seed, gamma=gamma,
    )


# ---------------------------------------------------------------------------
# densities


def test_uniform_density_basics():
    d = Density("uniform", 2)
    assert d.metric.kind == "torus"
    assert d.sup_density() == 1.0
    assert d.power_integral(3) == 1.0
    pts = d.sample(np.random.default_rng(0), 500)
    assert pts.shape == (500, 2)
    assert np.all((pts >= 0) & (pts < 1))
    assert np.all(d.pdf_many(pts) == 1.0)


def test_gaussian_density_power_integral_matches_quadrature():
    d = Density("gaussian", 1, sigma=0.7)
    assert d.metric.kind == "euclidean"
    grid = np.linspace(-8, 8, 20001)[:, None]
    q = d.pdf_many(grid)
    for power in (1, 2, 3):
        numeric = float(np.trapezoid(q**power, dx=grid[1, 0] - grid[0, 0]))
        assert d.power_integral(power) == pytest.approx(numeric, rel=1e-6)


def test_table_density_sampling_and_pdf():
    weights = np.array([[2.0, 0.0], [0.0, 2.0]])
    d = Density("table", 2, table=weights)
    rng = np.random.default_rng(1)
    pts = d.sample(rng, 4000)
    # zero-weight cells are never hit
    cell = (pts * 2).astype(int)
    assert np.all(cell[:, 0] == cell[:, 1])
    assert np.all(d.pdf_many(pts) == 2.0)
    assert d.pdf_many(np.array([[0.75, 0.25]]))[0] == 0.0
    assert d.power_integral(2) == pytest.approx(2.0)
    assert d.sup_density() == 2.0


def test_table_density_validation():
    with pytest.raises(ConfigError):
        Density("table", 2, table=None)
    with pytest.raises(ConfigError):
        Density("table", 2, table=np.array([1.0, 1.0]))  # rank mismatch
    with pytest.raises(ConfigError):
        Density("table", 1, table=np.array([2.0, -0.5, 1.5, 1.0]))
    with pytest.raises(ConfigError):
        Density("table", 1, table=np.array([1.0, 2.0]))  # mean != 1


def test_density_from_spec_forms():
    assert density_from_spec("uniform", 3).kind == "uniform"
    g = density_from_spec({"kind": "gaussian", "sigma": 2.0}, 2)
    assert g.sigma == 2.0
    t = density_from_spec({"kind": "table", "cells": [0.5, 1.5]}, 1)
    assert t.kind == "table"
    with pytest.raises(ConfigError):
        density_from_spec("pareto", 2)


# ---------------------------------------------------------------------------
# configuration of alive points


def test_configuration_add_remove():
    config = Configuration.from_points(np.array([[0.1, 0.2], [0.3, 0.4]]), Metric("torus", 2))
    assert len(config) == 2 and set(config.ids()) == {0, 1}
    pid = config.add(np.array([1.2, 0.5]))  # wraps into the cube
    assert pid == 2
    assert np.allclose(config.position(2), [0.2, 0.5])
    with pytest.raises(KeyError):
        config.add(np.zeros(2), pid=1)
    config.remove(1)
    assert 1 not in config and len(config) == 2
    # ids are issued once: a dead id is never reissued
    with pytest.raises(KeyError):
        config.add(np.zeros(2), pid=1)
    for dead in (config.position, config.remove, lambda pid: config.positions_array([0, pid])):
        with pytest.raises(KeyError):
            dead(1)
    for unknown in (-1, 3, 10**6):
        assert unknown not in config
        with pytest.raises(KeyError):
            config.positions_array([unknown])


@pytest.mark.parametrize("bad", ["dead", "unissued", "negative"])
def test_positions_array_rejects_ids_it_does_not_hold(bad):
    # every row of the store is in use, so numpy would read -1 as the last
    config = Configuration.from_points(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), Metric("torus", 2))
    pids = {"dead": [1], "unissued": [3, 4, 10**6], "negative": [-1, -3, -4]}[bad]
    if bad == "dead":
        config.remove(1)
    for pid in pids:
        for ids in ([pid], [0, pid], np.array([2, pid])):
            with pytest.raises(KeyError):
                config.positions_array(ids)
    config.add(np.array([0.7, 0.8]))  # grown: rows 4 and 5 exist but are not issued
    pids = {"dead": [1], "unissued": [4, 5, 10**6], "negative": [-1, -4, -6]}[bad]
    for pid in pids:
        with pytest.raises(KeyError):
            config.positions_array([pid])
    assert np.array_equal(config.positions_array([3, 0]), [[0.7, 0.8], [0.1, 0.2]])
    assert config.positions_array([]).shape == (0, 2)


def test_configuration_position_views_keep_their_values():
    config = Configuration(Metric("torus", 2))
    config.add(np.array([0.25, 0.75]))
    view = config.position(0)
    for i in range(1, 100):  # grows the store several times over
        config.add(np.full(2, i / 100.0))
    config.remove(0)
    assert np.array_equal(view, [0.25, 0.75])


@st.composite
def store_steps(draw):
    """Add (with an automatic id or one past a gap of dead ids) and remove steps."""
    steps = []
    for _ in range(draw(st.integers(0, 80))):
        kind = draw(st.sampled_from(["add", "add", "gap", "remove"]))
        coords = draw(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
        steps.append((kind, coords, draw(st.integers(1, 40)), draw(st.integers(0, 10**6))))
    return steps


@given(st.integers(0, 5), store_steps(), st.sampled_from(["torus", "euclidean"]))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_configuration_store_matches_a_dict_model(initial, steps, kind):
    metric = Metric(kind, 2)
    rng = np.random.default_rng(initial)
    start = rng.random((initial, 2))
    plain = Configuration.from_points(start, metric)
    indexed = Configuration.from_points(start, metric)
    indexed.build_index(0.1)
    model = dict(enumerate(metric.wrap(start)))
    next_id = initial
    for step, coords, gap, pick in steps:
        if step == "remove" and model:
            pid = sorted(model)[pick % len(model)]
            for config in (plain, indexed):
                config.remove(pid)
            del model[pid]
        elif step != "remove":
            pid = next_id + (gap if step == "gap" else 0)  # gaps as slice_at leaves them
            for config in (plain, indexed):
                assert config.add(np.array(coords), pid=pid if step == "gap" else None) == pid
            model[pid] = metric.wrap(np.array(coords))
            next_id = pid + 1
        ids = sorted(model)
        want = np.array([model[p] for p in ids]).reshape(-1, 2)
        x = metric.wrap(np.array(coords))
        near = [p for p, d in zip(ids, metric.distance_many(x, want)) if d <= 0.3]
        for config in (plain, indexed):
            assert config.ids().tolist() == ids and len(config) == len(ids)
            assert config.next_id == next_id
            assert all(p in config for p in ids) and next_id not in config
            for p in ids:
                assert np.array_equal(config.position(p), model[p])
            assert np.array_equal(config.positions_array(), want)
            chosen = list(rng.permutation(ids)[: pick % 7])
            assert np.array_equal(config.positions_array(chosen), want[np.searchsorted(ids, chosen)])
            assert sorted(config.neighbors_within(x, 0.3)) == near
        if ids and next_id > len(ids):
            dead = sorted(set(range(next_id)) - set(ids))[0]
            with pytest.raises(KeyError):
                plain.add(np.zeros(2), pid=dead)


@st.composite
def lattice_queries(draw):
    """A configuration on a lattice of quarter grid cells, so that many
    points sit on cell boundaries, some twice and some just across the
    torus seam; a query point from the same lattice; and a radius that is
    either a whole number of cells or the exact distance to one point."""
    kind = draw(st.sampled_from(["torus", "euclidean"]))
    cells = draw(st.integers(2, 8))
    low, high = (0, 4 * cells - 1) if kind == "torus" else (-8, 4 * cells + 8)
    nudge = st.sampled_from([0.0, 0.0, 1e-12, -1e-12])  # -1e-12 wraps to just below 1
    coord = st.builds(lambda k, e: k / (4 * cells) + e, st.integers(low, high), nudge)
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    pts += draw(st.lists(st.sampled_from(pts), max_size=5))  # duplicate positions
    x = np.array(draw(st.sampled_from(pts)) if draw(st.booleans()) else draw(st.tuples(coord, coord)))
    gone = draw(st.sets(st.integers(0, len(pts) - 1), max_size=len(pts) // 3))
    radius = draw(st.one_of(st.integers(1, cells // 2).map(lambda j: j / cells), st.sampled_from(pts)))
    return Metric(kind, 2), cells, np.array(pts), x, sorted(gone), radius


@given(lattice_queries())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_neighbors_within_matches_a_scan(case):
    metric, cells, pts, x, gone, radius = case
    config = Configuration.from_points(pts, metric)
    config.build_index(1.0 / cells)
    for pid in gone:
        config.remove(pid)
    for p in pts[: len(gone)]:  # re-added: new ids at old positions
        config.add(p)
    x = metric.wrap(x)
    rho = radius if isinstance(radius, float) else metric.distance(x, metric.wrap(np.array(radius)))
    ids = config.ids().tolist()
    want = [pid for pid in ids if metric.distance(x, config.position(pid)) <= rho]
    got = config.neighbors_within(x, rho)
    assert got.dtype == np.intp
    assert got.tolist() == want  # ascending and unique, as ids() is
    assert np.array_equal(Configuration.from_points(config.positions_array(), metric).neighbors_within(x, rho),
                          np.searchsorted(ids, want))


def test_configuration_add_checks_its_shape():
    config = Configuration.from_points(np.array([[0.1, 0.2]]), Metric("torus", 2))
    for bad, shape in ((0.5, r"\(\)"), (np.zeros(3), r"\(3,\)"), (np.zeros((1, 2)), r"\(1, 2\)")):
        with pytest.raises(ValueError, match=r"shape \(2,\), got " + shape):
            config.add(bad)
    assert len(config) == 1 and config.next_id == 1
    assert config.add([0.25, 1.5]) == 1 and np.array_equal(config.position(1), [0.25, 0.5])


def test_from_points_checks_its_shape():
    metric = Metric("torus", 2)
    for empty in ([], np.zeros((0, 2))):
        config = Configuration.from_points(empty, metric)
        assert len(config) == 0 and config.next_id == 0
        assert config.positions_array().shape == (0, 2)
    single = Configuration.from_points([0.25, 1.5], metric)
    assert single.ids().tolist() == [0]
    assert np.array_equal(single.positions_array(), [[0.25, 0.5]])
    for bad in (np.random.default_rng(0).random((5, 3)), np.zeros(3), np.zeros((0, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
            Configuration.from_points(bad, metric)


def test_neighbors_with_and_without_index_agree():
    rng = np.random.default_rng(2)
    config = Configuration.from_points(rng.random((60, 2)), Metric("torus", 2))
    x = np.array([0.5, 0.5])
    plain = sorted(config.neighbors_within(x, 0.2))
    config.build_index(0.1)
    assert config.indexed
    assert sorted(config.neighbors_within(x, 0.2)) == plain


# ---------------------------------------------------------------------------
# stationary sampler


def test_stationary_counts_are_poisson():
    config = _config(n=30.0)
    counts = np.array([len(sample_stationary(config, config.rng(rep))) for rep in range(2000)])
    _, p = poisson_chi_square(counts, 30.0)
    assert p > 1e-3


def test_simulation_config_validation():
    with pytest.raises(ConfigError):
        _config(n=0.0)
    with pytest.raises(ConfigError):
        _config(horizon=-1.0)
    with pytest.raises(ConfigError):
        SimulationConfig(n=5.0, dim=2, horizon=1.0, density=Density("uniform", 3))
    with pytest.raises(ConfigError):
        _config(gamma=-1.0)
    with pytest.raises(ConfigError):
        _config().interaction_radius
    assert _config(n=100.0, gamma=1.0).interaction_radius == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# event engine


def test_event_stream_is_ordered_and_consistent():
    config = _config(n=50.0, horizon=3.0, seed=7)
    initial = sample_stationary(config, config.rng(0))
    stream = simulate_events(config, initial, config.rng(1))
    times = [e.time for e in stream]
    assert times == sorted(times)
    assert all(0.0 < t <= stream.horizon for t in times)
    alive = set(initial.ids())
    for event in stream:
        if event.kind == "birth":
            assert event.point.pid not in alive
            alive.add(event.point.pid)
        else:
            assert event.point.pid in alive
            alive.remove(event.point.pid)
    births = sum(e.kind == "birth" for e in stream)
    deaths = len(stream) - births
    assert len(alive) == stream.initial_count + births - deaths


def test_alive_count_path_matches_manual_replay():
    config = _config(n=25.0, horizon=2.0, seed=3)
    initial = sample_stationary(config, config.rng(0))
    stream = simulate_events(config, initial, config.rng(1))
    times = np.linspace(0.0, 2.0, 9)
    counts = alive_count_path(stream, times)
    for t, expected in zip(times, counts):
        manual = stream.initial_count
        for event in stream:
            if event.time <= t:
                manual += 1 if event.kind == "birth" else -1
        assert manual == expected


def test_event_engine_is_deterministic_per_seed():
    config = _config(n=20.0, horizon=1.0, seed=11)
    runs = []
    for _ in range(2):
        initial = sample_stationary(config, config.rng(0))
        stream = simulate_events(config, initial, config.rng(1))
        runs.append([(e.time, e.kind, e.point.pid, tuple(e.point.position)) for e in stream])
    assert runs[0] == runs[1]
    other = simulate_events(config, sample_stationary(config, config.rng(2)), config.rng(3))
    assert [(e.time, e.kind) for e in other] != [(t, k) for t, k, *_ in runs[0]]


def test_recorded_lifetimes_are_unit_exponential():
    config = _config(n=60.0, horizon=4.0, seed=5)
    lifetimes = []
    for rep in range(30):
        initial = sample_stationary(config, config.rng(2 * rep))
        stream = simulate_events(config, initial, config.rng(2 * rep + 1))
        lifetimes.extend(
            e.point.lifetime for e in stream if e.kind == "birth"
        )
    assert not np.any(np.isnan(lifetimes))
    _, p = stats.kstest(lifetimes, "expon")
    assert p > 1e-3


# ---------------------------------------------------------------------------
# marked one-shot sampler


def test_marked_population_and_fractions():
    config = _config(n=30000.0, horizon=2.0, seed=9)
    marked = sample_marked(config, config.rng(0))
    total = len(marked)
    se_total = math.sqrt(config.n * 3.0)
    assert abs(total - config.n * 3.0) <= 5 * se_total
    births = np.array([p.birth for p in marked])
    frac0 = float(np.mean(births == 0.0))
    se = math.sqrt(frac0 * (1 - frac0) / total)
    assert abs(frac0 - 1.0 / 3.0) <= 4 * se
    # positive birth times are uniform on [0, T]
    _, p = stats.kstest(births[births > 0.0], "uniform", args=(0.0, 2.0))
    assert p > 1e-3


def test_slice_alive_window_boundaries():
    metric = Metric("torus", 2)
    marked = [
        MarkedPoint(0, np.array([0.1, 0.1]), 0.0, 1.0),
        MarkedPoint(1, np.array([0.2, 0.2]), 0.5, 0.5),
        MarkedPoint(2, np.array([0.3, 0.3]), 1.0, 2.0),
    ]
    assert set(slice_at(marked, 0.0, metric).ids()) == {0}
    assert set(slice_at(marked, 0.5, metric).ids()) == {0, 1}
    # deaths at exactly t are excluded, births at exactly t included
    assert set(slice_at(marked, 1.0, metric).ids()) == {2}
    assert set(slice_at(marked, 3.5, metric).ids()) == set()


def test_cross_sampler_counts_agree_in_law():
    config = _config(n=25.0, horizon=2.0, seed=13)
    via_events = np.zeros(600, dtype=int)
    via_marked = np.zeros(600, dtype=int)
    for rep in range(600):
        initial = sample_stationary(config, config.rng(3 * rep))
        stream = simulate_events(config, initial, config.rng(3 * rep + 1))
        via_events[rep] = alive_count_path(stream, [1.0])[0]
        marked = sample_marked(config, config.rng(3 * rep + 2))
        via_marked[rep] = len(slice_at(marked, 1.0, config.metric))
    _, p = stats.ks_2samp(via_events, via_marked)
    assert p > 1e-3


# ---------------------------------------------------------------------------
# export


def test_export_events_csv(tmp_path):
    config = _config(n=15.0, horizon=1.0, seed=4)
    initial = sample_stationary(config, config.rng(0))
    stream = simulate_events(config, initial, config.rng(1))
    path = tmp_path / "events.csv"
    export_events(stream, str(path), dim=2)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["time", "kind", "id", "x1", "x2", "lifetime"]
    assert len(lines) == len(stream) + 1
