"""Tests for the incremental subset tracker and the reference evaluator."""
import numpy as np
import pytest

from bdgeom import functionals, statistics
from bdgeom.functionals import (
    ConfigError,
    NeighborhoodMap,
    make_clique,
    make_morse,
    make_subgraph,
)
from bdgeom.geometry import Metric
from bdgeom.process import (
    Configuration,
    Density,
    Event,
    EventStream,
    MarkedPoint,
    SimulationConfig,
    sample_stationary,
    simulate_events,
)
from bdgeom.statistics import (
    SubsetTracker,
    count_pairs_within,
    evaluate_statistic,
    replay,
    sample_path,
)

TORUS = Metric("torus", 2)
PLANE = Metric("euclidean", 2)


def birth(pid, position, time=0.0):
    mp = MarkedPoint(pid, np.asarray(position, dtype=float), time, 1.0)
    return Event(time, "birth", mp)


def death(pid, position, time=0.0):
    mp = MarkedPoint(pid, np.asarray(position, dtype=float), 0.0, time)
    return Event(time, "death", mp)


# -- initial enumeration ------------------------------------------------------


def test_tracker_counts_edges_and_triangles():
    pts = np.array([[0.5, 0.5], [0.56, 0.5], [0.53, 0.55], [0.1, 0.1]])
    config2 = Configuration.from_points(pts, TORUS)
    config3 = Configuration.from_points(pts, TORUS)
    assert SubsetTracker(config2, make_clique(2), 0.1).value == 3.0
    assert SubsetTracker(config3, make_clique(3), 0.1).value == 1.0


def test_tracker_singletons():
    pts = np.array([[0.1, 0.2], [0.9, 0.9], [0.5, 0.5]])
    config = Configuration.from_points(pts, TORUS)
    assert SubsetTracker(config, make_clique(1), 0.1).value == 3.0


def test_singleton_start_up_makes_no_neighbour_queries(monkeypatch):
    calls = []
    query = Configuration.neighbors_within

    def counted(self, x, rho):
        calls.append(rho)
        return query(self, x, rho)

    monkeypatch.setattr(Configuration, "neighbors_within", counted)
    pts = np.random.default_rng(4).random((200, 2))
    tracker = SubsetTracker(Configuration.from_points(pts, TORUS), make_clique(1), 0.05)
    assert tracker.value == 200.0
    assert calls == []


def test_tracker_exclusive_isolated_points():
    # k = 1 with ball regions counts r-isolated points
    pts = np.array([[0.2, 0.2], [0.25, 0.2], [0.7, 0.7]])
    config = Configuration.from_points(pts, TORUS)
    tracker = SubsetTracker(config, make_clique(1), 0.1, NeighborhoodMap("balls"))
    assert tracker.value == 1.0


@pytest.mark.parametrize("r", [0.0, -0.1, float("nan")])
@pytest.mark.parametrize("nb", [None, NeighborhoodMap("balls")])
def test_tracker_and_evaluator_share_one_scale_check(r, nb):
    config = Configuration.from_points(np.array([[0.1, 0.1], [0.15, 0.1], [0.6, 0.6]]), TORUS)
    for run in (SubsetTracker, evaluate_statistic):
        with pytest.raises(ConfigError, match="interaction radius must be positive"):
            run(config, make_clique(2), r, nb)


def test_tracker_torus_scale_guard():
    pts = np.array([[0.1, 0.1], [0.4, 0.4]])
    config = Configuration.from_points(pts, TORUS)
    with pytest.raises(ConfigError):
        SubsetTracker(config, make_clique(2), 0.6)
    config2 = Configuration.from_points(pts, TORUS)
    # enum radius fine but ball-union reach 2r spills past half the torus
    with pytest.raises(ConfigError):
        SubsetTracker(config2, make_clique(2), 0.3, NeighborhoodMap("balls"))


def test_evaluate_statistic_torus_scale_guard():
    config = Configuration.from_points(np.array([[0.1, 0.1], [0.2, 0.2]]), TORUS)
    with pytest.raises(ConfigError):
        evaluate_statistic(config, make_clique(3), 0.3, NeighborhoodMap("balls"))


def test_empty_and_tiny_configs():
    empty = Configuration(TORUS)
    assert SubsetTracker(empty, make_clique(2), 0.1).value == 0.0
    assert evaluate_statistic(empty, make_clique(2), 0.1) == 0.0
    single = Configuration.from_points(np.array([[0.5, 0.5]]), TORUS)
    assert evaluate_statistic(single, make_clique(3), 0.1) == 0.0


# -- event updates ------------------------------------------------------------


def test_birth_creates_edges():
    config = Configuration.from_points(np.array([[0.2, 0.2], [0.8, 0.8]]), TORUS)
    tracker = SubsetTracker(config, make_clique(2), 0.1)
    assert tracker.value == 0.0
    ev = birth(config.next_id, [0.25, 0.2], time=0.5)
    tracker.apply_event(ev)
    config.apply_event(ev)
    assert tracker.value == 1.0


@pytest.mark.parametrize("r, nb", [(float("nan"), None), (0.6, None), (0.3, NeighborhoodMap("balls"))])
def test_sample_path_checks_the_scale_before_drawing(monkeypatch, r, nb):
    def no_draw(*args, **kwargs):
        raise AssertionError("a path was drawn before the scale was checked")

    monkeypatch.setattr(statistics, "sample_stationary", no_draw)
    monkeypatch.setattr(statistics, "simulate_events", no_draw)
    config = SimulationConfig(n=100000, dim=2, horizon=2.0, density=Density("uniform", 2))
    with pytest.raises(ConfigError):
        sample_path(config, make_clique(2), [0.0, 1.0], r, nb)


def test_morse_rows_pass_through_one_circumball_each(monkeypatch):
    # the circumball that scores a row is the one its region is built from
    rows = []
    real = functionals.circumball

    def counted(points):
        rows.append(int(np.prod(np.shape(points)[:-2])))
        return real(points)

    monkeypatch.setattr(functionals, "circumball", counted)
    pts = np.random.default_rng(8).random((150, 2))
    r = 0.05
    config = Configuration.from_points(pts, TORUS)
    nb = NeighborhoodMap("circumball")
    tracker = SubsetTracker(config, make_morse(1), r, nb)
    # morse:1 scores every pair within 2r once
    assert sum(rows) == count_pairs_within(pts, 2 * r, TORUS) > 0
    for pid, x in ((150, [0.51, 0.49]), (151, [0.995, 0.02])):
        rows.clear()
        ev = birth(pid, x, time=1.0)
        tracker.apply_event(ev)
        config.apply_event(ev)
        near = TORUS.distance_many(config.position(pid), config.positions_array()) <= 2 * r
        assert sum(rows) == np.count_nonzero(near) - 1 > 0
    assert tracker.value == evaluate_statistic(config, make_morse(1), r, nb)


def test_exclusive_flip_sequence():
    # intruder occupies every pair region, its death frees the far pair,
    # a later birth re-occupies it
    pts = np.array([[0.0, 0.0], [0.08, 0.0], [0.05, 0.05]])
    config = Configuration.from_points(pts, PLANE)
    tracker = SubsetTracker(config, make_clique(2), 0.1, NeighborhoodMap("balls"))
    assert tracker.value == 0.0
    assert tracker.registry_size == 3

    ev = death(2, pts[2], time=0.3)
    tracker.apply_event(ev)
    config.apply_event(ev)
    assert tracker.value == 1.0
    assert tracker.registry_size == 1

    ev = birth(config.next_id, [0.04, -0.03], time=0.6)
    tracker.apply_event(ev)
    config.apply_event(ev)
    assert tracker.value == 0.0
    assert tracker.registry_size == 3

    # a second intruder: the far pair's region holds two occupants, stays
    # excluded after the first of them dies and counts after the second
    far = frozenset({0, 1})
    ev = birth(config.next_id, [0.05, 0.05], time=0.7)
    tracker.apply_event(ev)
    config.apply_event(ev)
    assert (tracker.value, tracker.registry_size, occupants(tracker, far)) == (0.0, 6, 2)
    for pid, time, value, size in ((3, 0.8, 0.0, 3), (4, 0.9, 1.0, 1)):
        ev = death(pid, config.position(pid), time=time)
        tracker.apply_event(ev)
        config.apply_event(ev)
        assert (tracker.value, tracker.registry_size) == (value, size)
    assert occupants(tracker, far) == 0


def occupants(tracker, key):
    """The occupant count in the slot of a registered subset."""
    return int(tracker._occupants[tracker._slot[key]])


def test_exclusive_death_makes_no_neighbour_queries(monkeypatch):
    pts = np.array([[0.0, 0.0], [0.08, 0.0], [0.05, 0.05]])
    config = Configuration.from_points(pts, PLANE)
    tracker = SubsetTracker(config, make_clique(2), 0.1, NeighborhoodMap("balls"))
    calls = []
    query = Configuration.neighbors_within

    def counted(self, x, rho):
        calls.append(rho)
        return query(self, x, rho)

    monkeypatch.setattr(Configuration, "neighbors_within", counted)
    tracker.apply_event(death(2, pts[2], time=0.3))
    assert tracker.value == 1.0
    assert calls == []


def test_exclusive_registry_empties_with_population():
    pts = np.array([[0.5, 0.5], [0.54, 0.5], [0.52, 0.53], [0.48, 0.52]])
    config = Configuration.from_points(pts, TORUS)
    tracker = SubsetTracker(config, make_clique(2), 0.1, NeighborhoodMap("balls"))
    assert tracker.registry_size > 0
    for pid in range(4):
        ev = death(pid, pts[pid], time=1.0 + pid)
        tracker.apply_event(ev)
        config.apply_event(ev)
    assert tracker.registry_size == 0
    assert tracker.value == 0.0


def test_replay_matches_recompute():
    """The incremental value equals a from-scratch evaluation at every
    sample time, for plain and exclusive statistics alike."""
    sim = SimulationConfig(
        n=40, dim=2, horizon=2.0, density=Density("uniform", 2), seed=11, gamma=1.0
    )
    r = sim.interaction_radius
    rng = sim.rng(0)
    state = sample_stationary(sim, rng)
    stream = simulate_events(sim, state, rng)
    initial = {pid: state.position(pid).copy() for pid in state.ids()}

    specs = [
        (make_clique(2), None),
        (make_clique(3), None),
        (make_clique(2), NeighborhoodMap("balls")),
        (make_clique(3), NeighborhoodMap("balls")),
        (make_morse(1), NeighborhoodMap("circumball")),
    ]
    trackers = [SubsetTracker(state, f, r, nb) for f, nb in specs]
    times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    matrix = replay(state, stream, trackers, times)

    alive = dict(initial)
    idx = 0
    for j, t in enumerate(times):
        while idx < len(stream.events) and stream.events[idx].time <= t:
            ev = stream.events[idx]
            if ev.kind == "birth":
                alive[ev.point.pid] = TORUS.wrap(ev.point.position)
            else:
                del alive[ev.point.pid]
            idx += 1
        snapshot = Configuration.from_points(np.array(list(alive.values())), TORUS)
        for row, (f, nb) in enumerate(specs):
            direct = evaluate_statistic(snapshot, f, r, nb)
            assert matrix[row, j] == direct


def test_tracker_matches_direct_on_random_configs():
    """Grid-based tracker enumeration and KD-tree evaluator agree exactly."""
    specs = [
        (make_clique(2), None),
        (make_clique(3), None),
        (make_subgraph(3, [(0, 1), (1, 2)]), None),
        (make_clique(2), NeighborhoodMap("balls")),
        (make_clique(3), NeighborhoodMap("balls")),
        (make_morse(1), NeighborhoodMap("circumball")),
        (make_morse(2), NeighborhoodMap("circumball")),
    ]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        pts = rng.random((60, 2))
        for metric in (TORUS, PLANE):
            for f, nb in specs:
                config = Configuration.from_points(pts, metric)
                tracker = SubsetTracker(config, f, 0.12, nb)
                direct = evaluate_statistic(config, f, 0.12, nb)
                assert tracker.value == direct, (
                    seed,
                    metric.kind,
                    f.name,
                    nb.kind if nb else None,
                )


# -- reference evaluator ------------------------------------------------------


def test_count_pairs_brute_force():
    for metric in (TORUS, PLANE):
        rng = np.random.default_rng(3)
        pts = rng.random((50, 2))
        for r in (0.08, 0.15):
            dmat = metric.pairwise(pts)
            iu = np.triu_indices(50, k=1)
            expected = float(np.count_nonzero(dmat[iu] <= r))
            assert count_pairs_within(pts, r, metric) == expected


def test_count_pairs_torus_radius_cap():
    pts = np.random.default_rng(0).random((10, 2))
    with pytest.raises(ConfigError):
        count_pairs_within(pts, 0.5, TORUS)


def test_count_pairs_small_inputs():
    assert count_pairs_within(np.zeros((0, 2)), 0.1, TORUS) == 0.0
    assert count_pairs_within(np.array([[0.5, 0.5]]), 0.1, TORUS) == 0.0


def test_evaluate_statistic_fast_path_consistent():
    # clique:2 and the equivalent subgraph pattern share the enumeration
    # but score subsets through different batch functions
    rng = np.random.default_rng(7)
    pts = rng.random((80, 2))
    config = Configuration.from_points(pts, TORUS)
    fast = evaluate_statistic(config, make_clique(2), 0.1)
    slow = evaluate_statistic(config, make_subgraph(2, [(0, 1)]), 0.1)
    assert fast == slow


# -- path sampling ------------------------------------------------------------


def test_sample_path_deterministic_per_rep():
    sim = SimulationConfig(
        n=25, dim=2, horizon=1.5, density=Density("uniform", 2), seed=5, gamma=1.0
    )
    times = np.linspace(0.0, 1.5, 7)
    a = sample_path(sim, make_clique(2), times, rep=3)
    b = sample_path(sim, make_clique(2), times, rep=3)
    c = sample_path(sim, make_clique(2), times, rep=4)
    assert np.array_equal(a.values, b.values)
    assert a.rep == 3
    assert np.array_equal(a.times, times)
    assert not np.array_equal(a.values, c.values)


def test_replay_event_at_sample_time_is_included():
    config = Configuration(TORUS)
    tracker = SubsetTracker(config, make_clique(1), 0.1)
    events = [
        birth(0, [0.2, 0.2], time=0.5),
        birth(1, [0.7, 0.7], time=1.0),
        death(0, [0.2, 0.2], time=1.5),
    ]
    stream = EventStream(events, horizon=2.0, initial_count=0)
    out = replay(config, stream, [tracker], [0.0, 0.5, 1.0, 1.5, 2.0])[0]
    assert out.tolist() == [0.0, 1.0, 2.0, 1.0, 1.0]
