"""Subset statistics over configurations, maintained through event streams.

The tracked value is ``sum_S f(S, r)`` over all ``k``-point subsets ``S`` of
the alive configuration (only subsets of diameter ``<= r * r_max`` can
contribute, so the sum is maintained locally).  With a neighborhood map the
exclusive variant is tracked instead: each subset contributes only while its
neighborhood region contains no alive point outside the subset itself (the
tracker counts those occupants per subset, up on a birth, down on a death).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .functionals import ConfigError, LocalFunctional, NeighborhoodMap
from .geometry import GridIndex, Metric, padded_radius
from .process import Configuration, Event, EventStream, SimulationConfig, sample_stationary, simulate_events


class KahanSum:
    """Compensated float accumulator (exact for moderate integer sums)."""

    __slots__ = ("_total", "_comp")

    def __init__(self, start: float = 0.0):
        self._total = start
        self._comp = 0.0

    def add(self, x: float) -> None:
        y = x - self._comp
        t = self._total + y
        self._comp = (t - self._total) - y
        self._total = t

    @property
    def value(self) -> float:
        return self._total


@dataclass
class TimeSeries:
    times: NDArray
    values: NDArray
    rep: int = 0


@dataclass
class _RegistryEntry:
    xi: float
    region: object
    occupants: int  # alive non-members inside the region; counts at 0


class SubsetTracker:
    """Incremental tracker of one subset statistic over a configuration.

    The configuration must be kept in lockstep by the caller: for each
    event, call ``apply_event`` first (it reads the pre-event state), then
    ``config.apply_event``.  ``replay`` does this bookkeeping.
    """

    def __init__(
        self,
        config: Configuration,
        functional: LocalFunctional,
        r: float,
        neighborhood: Optional[NeighborhoodMap] = None,
    ):
        if r <= 0:
            raise ConfigError("interaction radius must be positive")
        self.config = config
        self.f = functional
        self.r = float(r)
        self.nbhd = neighborhood
        self.enum_radius = self.r * functional.r_max
        self.max_reach = neighborhood.max_reach(functional, r) if neighborhood else 0.0
        if config.metric.kind == "torus":
            if max(self.enum_radius, self.max_reach) >= 0.5:
                raise ConfigError(
                    "interaction scale too large for the unit torus: "
                    f"r * r_max = {self.enum_radius:.3g} (needs < 0.5)"
                )
        if not config.indexed:
            config.build_index(max(self.enum_radius, self.max_reach, 1e-6))
        self._sum = KahanSum()
        self._registry: dict[frozenset, _RegistryEntry] = {}
        self._member_keys: dict[int, set[frozenset]] = {}
        self._anchor_grid: Optional[GridIndex] = None
        if neighborhood is not None:
            self._anchor_grid = GridIndex(config.metric, max(self.max_reach, 1e-6))
        self._init_scan()

    @property
    def value(self) -> float:
        return self._sum.value

    @property
    def registry_size(self) -> int:
        return len(self._registry)

    # -- initial enumeration ------------------------------------------------

    def _init_scan(self) -> None:
        for anchor in sorted(self.config.ids()):
            pids = [anchor] + [p for p in self._near(self.config.position(anchor)) if p > anchor]
            self._admit(*self._scored(pids, self.config.positions_array(pids), 0))

    def _near(self, x: NDArray) -> list[int]:
        """Ascending ids within the enumeration radius of ``x``; ``k = 1``
        subsets have no other members, so no query is made for them."""
        if self.f.k == 1:
            return []
        return sorted(self.config.neighbors_within(x, self.enum_radius))

    def _scored(self, pids: list[int], pts: NDArray, must: int) -> tuple[list, NDArray, NDArray]:
        """``(members, points, values)`` of the ``k``-subsets of ``pids``
        that contain ``pids[must]`` and have a nonzero value, all scored in
        one ``functional.batch`` call.

        ``pids`` ascends (``pts`` holds their positions), so members reach
        the functional in id order, as in the evaluator.
        """
        k = self.f.k
        if len(pids) < k:
            return [], np.empty((0, k, pts.shape[1])), np.empty(0)
        combos = list(combinations([i for i in range(len(pids)) if i != must], k - 1))
        rows = np.empty((len(combos), k), dtype=np.intp)
        rows[:, :-1] = np.array(combos, dtype=np.intp).reshape(len(combos), k - 1)
        rows[:, -1] = must
        rows.sort(axis=1)
        vals = self.f.batch(pts[rows], self.r, self.config.metric)
        live = np.nonzero(vals)[0]
        return [tuple(pids[i] for i in rows[j]) for j in live], pts[rows[live]], vals[live]

    def _admit(self, members: list, points: NDArray, vals: NDArray) -> None:
        """Register subsets with nonzero values, regions built in one call."""
        if self.nbhd is None:
            for val in vals.tolist():
                self._sum.add(val)
            return
        if not members:
            return
        regions = self.nbhd.build(points, self.r, self.config.metric)
        for pids, val, region in zip(members, vals.tolist(), regions):
            if region is None:
                continue
            key = frozenset(pids)
            occupants = self._occupants(region, key)
            self._registry[key] = _RegistryEntry(val, region, occupants)
            for pid in pids:
                self._member_keys.setdefault(pid, set()).add(key)
            self._anchor_grid.insert(key, region.anchor)
            if occupants == 0:
                self._sum.add(val)

    def _occupants(self, region, exclude: frozenset) -> int:
        """Alive points outside ``exclude`` that lie in ``region``."""
        ids = self.config.neighbors_within(region.anchor, padded_radius(region.query_radius))
        others = [p for p in ids if p not in exclude]
        if not others:
            return 0
        return int(np.count_nonzero(region.contains_many(self.config.positions_array(others))))

    # -- event updates ------------------------------------------------------

    def apply_event(self, event: Event) -> None:
        """Update for one event; the configuration must not yet reflect it."""
        if event.kind == "birth":
            self._on_birth(event.point.pid, event.point.position)
        else:
            self._on_death(event.point.pid)

    def _on_birth(self, pid: int, raw_position: NDArray) -> None:
        x = self.config.metric.wrap(np.asarray(raw_position, dtype=float))
        if self.nbhd is not None:
            self._count_occupant(x, 1)
        cands = self._near(x)
        pts = np.vstack([self.config.positions_array(cands), x[None, :]])
        # the newcomer's id is the largest, so it goes last
        self._admit(*self._scored(cands + [pid], pts, len(cands)))

    def _on_death(self, pid: int) -> None:
        y = self.config.position(pid)
        if self.nbhd is None:
            ids = sorted({pid, *self._near(y)})
            pts = self.config.positions_array(ids)
            for val in self._scored(ids, pts, ids.index(pid))[2].tolist():
                self._sum.add(-val)
            return
        # exclusive mode: drop subsets containing the point ...
        for key in list(self._member_keys.get(pid, ())):
            entry = self._registry.pop(key)
            if entry.occupants == 0:
                self._sum.add(-entry.xi)
            self._anchor_grid.remove(key)
            for member in key:
                keys = self._member_keys[member]
                keys.remove(key)
                if not keys:
                    del self._member_keys[member]
        # ... then every region the point occupied loses one occupant
        self._count_occupant(y, -1)

    def _count_occupant(self, y: NDArray, step: int) -> None:
        """Add ``step`` (``1`` for a birth, ``-1`` for a death at ``y``) to
        the occupants of each region containing ``y``; a subset leaves the
        sum as its count goes 0 -> 1 and returns as it goes 1 -> 0."""
        for key in self._anchor_grid.query(y, padded_radius(self.max_reach)):
            entry = self._registry[key]
            if entry.region.contains(y):
                entry.occupants += step
                if entry.occupants == max(step, 0):
                    self._sum.add(-step * entry.xi)


def evaluate_statistic(
    config: Configuration,
    functional: LocalFunctional,
    r: float,
    neighborhood: Optional[NeighborhoodMap] = None,
) -> float:
    """From-scratch value of the statistic on a configuration.

    This is the reference evaluator; it shares no enumeration code with the
    incremental tracker (array scan over one KD-tree radius graph here,
    grid-based scan there), and the two must agree exactly for indicator
    functionals after any event sequence.

    The candidate subsets are the ``k``-cliques of the closed
    ``r * r_max`` graph.  With ``balls`` regions a subset ``S`` is vacant
    iff ``sum_{v in S} deg_r(v) == 2 * e_r(S)``, where ``deg_r`` is the
    degree in the closed radius-``r`` graph and ``e_r(S)`` counts its edges
    inside ``S``: no member has an ``r``-neighbour outside ``S`` (for a
    clique, ``S`` is a whole component).  Every edge is decided by the
    ``Metric.distance_many`` formula, so a pair at distance exactly ``r``
    is adjacent, as in ``BallUnionRegion.contains_many`` and the tracker's
    ``GridIndex``.  ``circumball`` regions are open balls with no degree
    form and are tested one subset at a time.
    """
    metric = config.metric
    positions = config.positions_array()
    k = functional.k
    enum_radius = r * functional.r_max
    if metric.kind == "torus":
        reach = neighborhood.max_reach(functional, r) if neighborhood else 0.0
        if max(enum_radius, reach) >= 0.5:
            raise ConfigError("interaction scale too large for the unit torus")
    n = len(positions)
    if n < k:
        return 0.0
    balls = neighborhood is not None and neighborhood.kind == "balls"
    radius = max(enum_radius, r) if balls else enum_radius
    tree = _metric_tree(positions, metric)
    pairs, dist = _close_pairs(tree, positions, radius, metric)
    # the CSR of _diameter_subsets and the _has_edge lookups need (i, j) order
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    pairs, dist = pairs[order], dist[order]
    subsets = _diameter_subsets(pairs[dist <= enum_radius], n, k)
    if len(subsets) == 0:
        return 0.0
    vals = functional.batch(positions[subsets], r, metric)
    live = np.nonzero(vals != 0.0)[0]
    if neighborhood is None:
        return float(math.fsum(vals[live]))
    if balls:
        edges = pairs[dist <= r]
        keys = _pair_keys(edges, n)
        degree = np.bincount(edges.ravel(), minlength=n)
        members = subsets[live]
        inner = sum(
            _has_edge(keys, members[:, i], members[:, j], n)
            for i, j in combinations(range(k), 2)
        )
        vacant = degree[members].sum(axis=1) == 2 * inner
        return float(math.fsum(vals[live][vacant]))
    total = []
    regions = neighborhood.build(positions[subsets[live]], r, metric)
    for i, region in zip(live, regions):
        if region is None:
            continue
        near = tree.query_ball_point(region.anchor, padded_radius(region.query_radius))
        others = np.setdiff1d(near, subsets[i])
        if len(others) and bool(np.any(region.contains_many(positions[others]))):
            continue
        total.append(float(vals[i]))
    return float(math.fsum(total))


def _metric_tree(positions: NDArray, metric: Metric) -> cKDTree:
    if metric.kind == "torus":
        return cKDTree(metric.wrap(positions), boxsize=1.0)
    return cKDTree(positions)


def _close_pairs(
    tree: cKDTree, positions: NDArray, rho: float, metric: Metric
) -> tuple[NDArray, NDArray]:
    """Index pairs ``i < j`` within closed distance ``rho``, with distances.

    The KD-tree proposes candidates at a slightly inflated radius and the
    ``Metric.distance_many`` formula decides, so ties at ``dist == rho``
    fall as in ``BallUnionRegion.contains_many`` and ``GridIndex.query``.
    Pairs come in the tree's order.
    """
    pairs = tree.query_pairs(padded_radius(rho), output_type="ndarray")
    delta = positions[pairs[:, 1]] - positions[pairs[:, 0]]
    if metric.kind == "torus":
        delta = delta - np.round(delta)
    dist = np.sqrt(np.sum(delta * delta, axis=1))
    keep = dist <= rho
    return pairs[keep], dist[keep]


def _pair_keys(pairs: NDArray, n: int) -> NDArray:
    """Sorted scalar keys ``i * n + j`` of pairs already sorted by ``(i, j)``."""
    return pairs[:, 0] * n + pairs[:, 1]


def _has_edge(keys: NDArray, a: NDArray, b: NDArray, n: int) -> NDArray:
    """Whether each ``(a, b)`` with ``a < b`` is an edge with key in ``keys``."""
    want = a * n + b
    at = np.searchsorted(keys, want)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == want[hit]
    return hit


def _diameter_subsets(pairs: NDArray, n: int, k: int) -> NDArray:
    """Index k-subsets (rows ascending) that are cliques of a pair graph.

    ``pairs`` is the sorted edge list of the ``r * r_max`` graph; by the
    locality contract its cliques are the only subsets the functional can
    score.  Chains grow one vertex at a time along the upper neighbours of
    their last vertex (a CSR of the edge list), and each new vertex is
    kept when it is adjacent to every earlier member.
    """
    if k == 1:
        return np.arange(n)[:, None]
    if k == 2:
        return pairs
    keys = _pair_keys(pairs, n)
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(pairs[:, 0], minlength=n), out=start[1:])
    chains = pairs
    for _ in range(k - 2):
        last = chains[:, -1]
        counts = start[last + 1] - start[last]
        rows = np.repeat(np.arange(len(chains)), counts)
        slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
        nxt = pairs[start[last][rows] + slot, 1]
        grown = chains[rows]
        keep = np.ones(len(rows), dtype=bool)
        for col in range(grown.shape[1] - 1):
            keep &= _has_edge(keys, grown[:, col], nxt, n)
        chains = np.column_stack([grown[keep], nxt[keep]])
    return chains


def count_pairs_within(positions: NDArray, r: float, metric: Metric) -> float:
    """Edge count of the closed radius-``r`` graph (ties as in ``_close_pairs``)."""
    pts = np.asarray(positions, dtype=float)
    if len(pts) < 2:
        return 0.0
    if metric.kind == "torus" and r >= 0.5:
        raise ConfigError("pair radius must be < 0.5 on the torus")
    return float(len(_close_pairs(_metric_tree(pts, metric), pts, r, metric)[0]))


def replay(
    config: Configuration,
    stream: EventStream,
    trackers: Sequence[SubsetTracker],
    sample_times: Sequence[float],
) -> NDArray:
    """Drive trackers and configuration through a stream, sampling values.

    Returns an array of shape ``(len(trackers), len(sample_times))`` with
    the piecewise-constant statistic values at the requested times (each
    value reflects all events with ``time <= t``).  The configuration is
    mutated in place.
    """
    times = np.asarray(sample_times, dtype=float)
    out = np.zeros((len(trackers), len(times)))
    idx = 0
    for event in stream.events:
        while idx < len(times) and times[idx] < event.time:
            for row, tracker in enumerate(trackers):
                out[row, idx] = tracker.value
            idx += 1
        for tracker in trackers:
            tracker.apply_event(event)
        config.apply_event(event)
    for row, tracker in enumerate(trackers):
        out[row, idx:] = tracker.value
    return out


def sample_path(
    config: SimulationConfig,
    functional: LocalFunctional,
    sample_times: Sequence[float],
    r: Optional[float] = None,
    neighborhood: Optional[NeighborhoodMap] = None,
    rep: int = 0,
) -> TimeSeries:
    """Simulate one stationary path and sample the statistic on a time grid."""
    if r is None:
        r = config.interaction_radius
    rng = config.rng(rep)
    state = sample_stationary(config, rng)
    stream = simulate_events(config, state, rng)
    tracker = SubsetTracker(state, functional, r, neighborhood)
    values = replay(state, stream, [tracker], sample_times)[0]
    return TimeSeries(np.asarray(sample_times, dtype=float), values, rep)
