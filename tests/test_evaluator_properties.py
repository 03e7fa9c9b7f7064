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

from bdgeom.functionals import LocalFunctional, NeighborhoodMap, make_clique, make_morse, make_subgraph
from bdgeom.geometry import Metric
from bdgeom.process import Configuration, Event, MarkedPoint
from bdgeom.statistics import INITIAL_SLOTS, SubsetTracker, count_pairs_within, evaluate_statistic
from bdgeom.suite import _builtin_pairs
from oracles import ball_contains, region_contains

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
    non-members inside its region, rebuilt from the members' positions and
    counted by the containment oracle."""
    assert len(tracker._slot) == tracker.registry_size
    alive = list(config.ids())
    torus = config.metric.kind == "torus"
    for key, slot in tracker._slot.items():
        assert tracker._keys[slot] == key
        members = sorted(key)
        region, _ = tracker.nbhd.build(config.positions_array(members)[None], tracker.r, config.metric)
        closed = tracker.nbhd.kind == "balls"
        count = sum(
            region_contains(config.position(p), region.centers[0], region.radii[0], closed, torus)
            for p in alive
            if p not in key
        )
        assert tracker._occupants[slot] == count, members


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


def test_stacked_circumball_evaluation_matches_the_oracle_on_the_seam():
    """The evaluator's one stacked circumball test, row by row against the
    containment oracle, on rows across the torus seam: a pair with no other
    point near, a crowded pair, a coincident pair (no circumball) and a pair
    with a third point exactly on its circle (open ball: not inside)."""
    metric, r = METRICS[0], 0.1
    pts = np.array([
        [0.98, 0.3], [0.04, 0.3],  # alone
        [0.9375, 0.75], [0.0625, 0.75], [0.0, 0.75], [0.99, 0.74], [0.02, 0.76], [0.995, 0.72],
        [0.5, 0.5], [0.5, 0.5],  # coincident
        [0.96875, 0.125], [0.09375, 0.125], [0.03125, 0.1875],  # the last on the first two's circle
    ])
    config = Configuration.from_points(pts, metric)
    nb = NeighborhoodMap("circumball")
    # scores every pair within 2r, the coincident one too, whose region is degenerate
    near = LocalFunctional(
        "near:2", 2, 2.0, 1.0,
        lambda p, r, m: (m.pairwise_batch(p, ([0], [1]))[:, 0] <= 2.0 * r).astype(float),
        meta={"radius_range": (0.0, 1.0)},
    )
    for f in (make_morse(1), near):
        want, kinds = 0.0, set()
        for pair in combinations(range(len(pts)), 2):
            value = f(pts[list(pair)], r, metric)
            region, valid = nb.build(pts[list(pair)][None], r, metric)
            if not valid[0]:
                kinds.add("invalid")
            if value == 0.0 or not valid[0]:
                continue
            center, radius = region.centers[0, 0], float(region.radii[0, 0])
            others = [pts[p] for p in range(len(pts)) if p not in pair]
            inside = sum(ball_contains(y, center, radius, False, True) for y in others)
            if inside == 0:
                kinds.add("alone")
            if inside >= 3:
                kinds.add("crowded")
            if any(ball_contains(y, center, radius, True, True) for y in others) and not inside:
                kinds.add("on circle")
            want += value * (inside == 0)
        assert {"alone", "crowded", "invalid", "on circle"} <= kinds
        assert evaluate_statistic(config, f, r, nb) == want
        assert SubsetTracker(config, f, r, nb).value == want
