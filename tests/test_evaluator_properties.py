"""Property tests: evaluator, tracker and a brute-force oracle agree exactly.

Configurations mix uniform points with three adversarial kinds: lattice
points spaced by ``r`` (pairs at distance exactly ``r``), coordinates on the
torus seam (``0``, ``-0``, ``1``, tiny negatives that ``np.mod`` rounds to
``1.0``) and coincident copies of earlier points.
"""
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bdgeom.functionals import NeighborhoodMap, make_clique, make_subgraph
from bdgeom.geometry import Metric
from bdgeom.process import Configuration, Event, MarkedPoint
from bdgeom.statistics import INITIAL_SLOTS, SubsetTracker, count_pairs_within, evaluate_statistic
from bdgeom.suite import _builtin_pairs

METRICS = (Metric("torus", 2), Metric("euclidean", 2))
# balls around subgraph:3 reach 3r, which must stay below half the torus
RADII = (0.05, 0.1, 0.125)
SEAM = (0.0, -0.0, 1.0, -1e-17, 1.0 - 2.0**-53, 0.5)
# plus a 4-node path: its enumeration reach 3r stays below half the torus
PAIRS = _builtin_pairs() + [(make_subgraph(4, [(0, 1), (1, 2), (2, 3)]), None)]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def configurations(draw, max_points=24):
    r = draw(st.sampled_from(RADII))
    coord = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(0, 12).map(lambda i: i * r),
        st.sampled_from(SEAM),
    )
    pts = draw(st.lists(st.tuples(coord, coord), max_size=max_points))
    if pts:
        copies = draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))
        pts += [pts[i] for i in copies]
    return r, np.array(pts, dtype=float).reshape(-1, 2)


def adjacency(pts, r, metric):
    """Closed radius-r graph by the minimal-image distance formula."""
    delta = pts[:, None, :] - pts[None, :, :]
    if metric.kind == "torus":
        delta = delta - np.round(delta)
    adj = np.sqrt(np.sum(delta * delta, axis=2)) <= r
    np.fill_diagonal(adj, False)
    return adj


def brute_cliques(adj, k):
    return sum(
        all(adj[a, b] for a, b in combinations(subset, 2))
        for subset in combinations(range(len(adj)), k)
    )


def brute_clique_components(adj, k):
    """Connected components of the graph that are k-cliques."""
    unseen, count = set(range(len(adj))), 0
    while unseen:
        component, frontier = set(), [unseen.pop()]
        while frontier:
            node = frontier.pop()
            component.add(node)
            for nxt in np.nonzero(adj[node])[0].tolist():
                if nxt in unseen:
                    unseen.remove(nxt)
                    frontier.append(nxt)
        members = sorted(component)
        if len(members) == k and adj[np.ix_(members, members)].sum() == k * (k - 1):
            count += 1
    return count


@SETTINGS
@given(configurations())
def test_clique_counts_match_brute_force(case):
    r, pts = case
    nb = NeighborhoodMap("balls")
    for metric in METRICS:
        assert count_pairs_within(pts, r, metric) == brute_cliques(adjacency(pts, r, metric), 2)
        config = Configuration.from_points(pts, metric)
        # the oracle reads the stored (wrapped) positions, as the program does
        adj = adjacency(config.positions_array(), r, metric)
        for k in (1, 2, 3):
            f = make_clique(k)
            assert evaluate_statistic(config, f, r) == brute_cliques(adj, k)
            isolated = brute_clique_components(adj, k)
            assert evaluate_statistic(config, f, r, nb) == isolated
            assert SubsetTracker(config, f, r, nb).value == isolated


@SETTINGS
@given(configurations())
def test_builtin_pairs_tracker_equals_evaluator(case):
    r, pts = case
    for metric in METRICS:
        for f, nb in PAIRS:
            config = Configuration.from_points(pts, metric)
            tracked = SubsetTracker(config, f, r, nb).value
            assert tracked == evaluate_statistic(config, f, r, nb), (metric.kind, f.name, nb)


@SETTINGS
@given(configurations(max_points=16), st.data())
def test_event_streams_keep_tracker_equal_to_evaluator(case, data):
    r, pts = case
    metric = data.draw(st.sampled_from(METRICS))
    extra = data.draw(configurations(max_points=8))[1]
    config = Configuration.from_points(pts, metric)
    trackers = [SubsetTracker(config, f, r, nb) for f, nb in PAIRS]
    births = iter(extra)
    for step in range(len(pts) + len(extra)):
        alive = sorted(config.ids())
        if alive and data.draw(st.booleans(), label=f"death {step}"):
            pid = data.draw(st.sampled_from(alive))
            point = MarkedPoint(pid, config.position(pid), 0.0, float(step))
            event = Event(float(step), "death", point)
        else:
            position = next(births, None)
            if position is None:
                continue
            event = Event(float(step), "birth", MarkedPoint(config.next_id, position, step, 1.0))
        for tracker in trackers:
            tracker.apply_event(event)
        config.apply_event(event)
        for tracker, (f, nb) in zip(trackers, PAIRS):
            assert tracker.value == evaluate_statistic(config, f, r, nb), (metric.kind, f.name, nb, step)
            assert_occupant_counts(tracker, config)


def assert_occupant_counts(tracker, config):
    """Each registered subset's slot holds the brute-force count of alive
    non-members inside its region, rebuilt from the members' positions."""
    assert len(tracker._slot) == tracker.registry_size
    alive = list(config.ids())
    for key, slot in tracker._slot.items():
        assert tracker._keys[slot] == key
        members = sorted(key)
        (region,) = tracker.nbhd.build(config.positions_array(members)[None], tracker.r, config.metric)
        others = [p for p in alive if p not in key]
        inside = region.contains_many(config.positions_array(others)) if others else []
        assert tracker._occupants[slot] == np.count_nonzero(inside), members


def test_registry_slots_survive_eviction_and_growth():
    """A death frees a middle slot and the last subset moves into it; the
    slot arrays grow past their initial capacity."""
    side, r = 10, 0.02
    grid = (np.indices((side, side)).reshape(2, -1).T + 0.5) / side
    assert len(grid) > INITIAL_SLOTS
    config = Configuration.from_points(grid, METRICS[0])
    tracker = SubsetTracker(config, make_clique(1), r, NeighborhoodMap("balls"))
    assert (tracker.value, tracker.registry_size) == (100.0, 100)
    middle, last = tracker._keys[50], tracker._keys[-1]
    (pid,) = middle

    def step(event, value, size):
        tracker.apply_event(event)
        config.apply_event(event)
        assert (tracker.value, tracker.registry_size) == (value, size)
        assert_occupant_counts(tracker, config)

    step(Event(1.0, "death", MarkedPoint(pid, config.position(pid), 0.0, 1.0)), 99.0, 99)
    assert middle not in tracker._slot and tracker._slot[last] == 50
    # a newcomer beside a survivor: both regions hold one occupant
    for i, pid in enumerate((7, 42, 99)):
        spot = config.position(pid) + [0.01, 0.0]
        newcomer = MarkedPoint(config.next_id, spot, 2.0 + i, 1.0)
        step(Event(2.0 + i, "birth", newcomer), 98.0 - i, 100 + i)
    # the survivor's death frees the newcomer beside it
    step(Event(6.0, "death", MarkedPoint(42, config.position(42), 0.0, 1.0)), 97.0, 101)
