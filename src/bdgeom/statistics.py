"""Subset statistics over configurations, maintained through event streams.

The tracked value is ``sum_S f(S, r)`` over all ``k``-point subsets ``S`` of
the alive configuration (only subsets of diameter ``<= r * r_max`` can
contribute, so the sum is maintained locally).  With a neighborhood map the
exclusive variant is tracked instead: each subset contributes only while its
neighborhood region contains no alive point outside the subset itself (the
tracker counts those occupants per subset, up on a birth, down on a death).
"""
from __future__ import annotations

import functools
import math
from itertools import chain, combinations
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .functionals import BallUnionRegion, ConfigError, LocalFunctional, NeighborhoodMap
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


# slots the exclusive registry starts with; it doubles when full
INITIAL_SLOTS = 64


class SubsetTracker:
    """Incremental tracker of one subset statistic over a configuration.

    The configuration must be kept in lockstep by the caller: for each
    event, call ``apply_event`` first (it reads the pre-event state), then
    ``config.apply_event``.  ``replay`` does this bookkeeping.

    In exclusive mode the registered subsets live in slot arrays: the
    centres ``(cap, m, d)`` and radii ``(cap, m)`` of each region (from
    ``NeighborhoodMap.build``), the value ``xi`` and the ``occupants``
    count.  Slot ``i`` holds subset ``_keys[i]`` and
    ``_slot`` maps it back; an evicted slot is refilled from the end, so
    slots ``0 .. registry_size - 1`` are always the live ones.
    """

    def __init__(
        self,
        config: Configuration,
        functional: LocalFunctional,
        r: float,
        neighborhood: Optional[NeighborhoodMap] = None,
    ):
        self.enum_radius, self.max_reach = _scale_radii(functional, r, neighborhood, config.metric)
        self.config = config
        self.f = functional
        self.r = float(r)
        self.nbhd = neighborhood
        if not config.indexed:
            config.build_index(max(self.enum_radius, self.max_reach, 1e-6))
        self._sum = KahanSum()
        self._keys: list[frozenset] = []
        self._slot: dict[frozenset, int] = {}
        self._member_keys: dict[int, set[frozenset]] = {}
        if neighborhood is not None:
            # grid of region anchors (first centres), keyed by subset
            self._anchor_grid = GridIndex(config.metric, max(self.max_reach, 1e-6))
            width = functional.k if neighborhood.kind == "balls" else 1
            dim = config.metric.dim
            self._centers = np.empty((INITIAL_SLOTS, width, dim))
            self._radii = np.empty((INITIAL_SLOTS, width))
            self._xi = np.empty(INITIAL_SLOTS)
            self._occupants = np.empty(INITIAL_SLOTS, dtype=np.intp)
        self._init_scan()

    @property
    def value(self) -> float:
        return self._sum.value

    @property
    def registry_size(self) -> int:
        return len(self._keys)

    # -- initial enumeration ------------------------------------------------

    def _init_scan(self) -> None:
        for anchor in self.config.ids().tolist():
            near = self._near(self.config.position(anchor))
            pids = np.append(anchor, near[near > anchor])
            self._admit(pids, self.config.positions_array(pids), 0)

    def _near(self, x: NDArray) -> NDArray:
        """Ascending ids within the enumeration radius of ``x``; ``k = 1``
        subsets have no other members, so no query is made for them."""
        if self.f.k == 1:
            return np.empty(0, dtype=np.intp)
        return self.config.neighbors_within(x, self.enum_radius)

    def _scored(
        self, pids: NDArray, pts: NDArray, must: int
    ) -> tuple[NDArray, NDArray, Optional[BallUnionRegion]]:
        """``(members, values, regions)`` of the ``k``-subsets of ``pids``
        that contain ``pids[must]`` and count: a nonzero value and, in
        exclusive mode, a region (``None`` in plain mode and where none
        counts).  ``members`` is ``(B, k)`` ids; all candidates are scored
        in one call.

        ``pids`` ascends (``pts`` holds their positions), so members reach
        the functional in id order, as in the evaluator.
        """
        if len(pids) < self.f.k:
            return np.empty((0, self.f.k), dtype=np.intp), np.empty(0), None
        rows = _combination_rows(len(pids), must, self.f.k)
        stack = pts[rows]
        if self.nbhd is None:
            vals = self.f.batch(stack, self.r, self.config.metric)
            live = np.flatnonzero(vals)
            return pids[rows[live]], vals[live], None
        live, vals, region = self.nbhd.score(self.f, stack, self.r, self.config.metric)
        return pids[rows[live]], vals, region

    def _admit(self, pids: NDArray, pts: NDArray, must: int) -> None:
        """Count or register the scored subsets of ``pids`` that contain
        ``pids[must]``; their occupants are counted in one call and their
        anchor cells found in one pass."""
        members, vals, region = self._scored(pids, pts, must)
        if self.nbhd is None:
            for val in vals.tolist():
                self._sum.add(val)
            return
        if not len(members):
            return
        occupants = self._occupants_of(pts[must], members, region)
        first = len(self._keys)
        stop = first + len(members)
        self._reserve(stop)
        self._centers[first:stop] = region.centers
        self._radii[first:stop] = region.radii
        self._xi[first:stop] = vals
        self._occupants[first:stop] = occupants
        keys = list(map(frozenset, members.tolist()))
        self._slot.update(zip(keys, range(first, stop)))
        self._keys.extend(keys)
        for key in keys:
            for pid in key:
                self._member_keys.setdefault(pid, set()).add(key)
        self._anchor_grid.insert(keys, region.centers[:, 0])
        for val in vals[occupants == 0].tolist():
            self._sum.add(val)

    def _occupants_of(self, x: NDArray, members: NDArray, region: BallUnionRegion) -> NDArray:
        """Alive non-members inside each region of the ``(B, k)`` subsets
        ``members`` that all have a member at ``x``, from one neighbour
        query around ``x``."""
        # each region lies within its centres' distance from x plus their radii
        gaps = self.config.metric.distance_many(x, region.centers.reshape(-1, len(x)))
        reach = float(np.max(gaps + region.radii.ravel()))
        others = self.config.neighbors_within(x, padded_radius(reach))
        hit = region.contains_many(self.config.positions_array(others))
        hit &= ~(members[:, :, None] == others).any(axis=1)
        return np.count_nonzero(hit, axis=1)

    def _reserve(self, size: int) -> None:
        """Grow the slot arrays, by doubling, to hold ``size`` subsets."""
        capacity = len(self._xi)
        if size <= capacity:
            return
        capacity = max(2 * capacity, size)
        live = len(self._keys)
        for name in ("_centers", "_radii", "_xi", "_occupants"):
            old = getattr(self, name)
            grown = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            grown[:live] = old[:live]
            setattr(self, name, grown)

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
        self._admit(np.append(cands, pid), pts, len(cands))

    def _on_death(self, pid: int) -> None:
        y = self.config.position(pid)
        if self.nbhd is None:
            # the point is still alive, at distance 0 from itself
            ids = self._near(y) if self.f.k > 1 else np.array([pid], dtype=np.intp)
            pts = self.config.positions_array(ids)
            for val in self._scored(ids, pts, int(np.searchsorted(ids, pid)))[1].tolist():
                self._sum.add(-val)
            return
        # exclusive mode: drop subsets containing the point ...
        keys = self._member_keys.get(pid)
        if keys:
            self._evict(list(keys))
        # ... then every region the point occupied loses one occupant
        self._count_occupant(y, -1)

    def _evict(self, keys: list) -> None:
        """Unregister subsets; the live slots past the new end fill the
        freed slots below it."""
        gone = np.array(sorted(self._slot.pop(key) for key in keys), dtype=np.intp)
        for val in self._xi[gone[self._occupants[gone] == 0]].tolist():
            self._sum.add(-val)
        for key in keys:
            self._anchor_grid.remove(key)
            for member in key:
                owned = self._member_keys[member]
                owned.remove(key)
                if not owned:
                    del self._member_keys[member]
        size = len(self._keys) - len(gone)
        holes = gone[gone < size]
        if len(holes):
            stays = np.ones(len(gone), dtype=bool)
            stays[gone[len(holes):] - size] = False
            movers = np.arange(size, len(self._keys))[stays]
            for array in (self._centers, self._radii, self._xi, self._occupants):
                array[holes] = array[movers]
            for hole, mover in zip(holes.tolist(), movers.tolist()):
                key = self._keys[mover]
                self._keys[hole] = key
                self._slot[key] = hole
        del self._keys[size:]

    def _count_occupant(self, y: NDArray, step: int) -> None:
        """Add ``step`` (``1`` for a birth, ``-1`` for a death at ``y``) to
        the occupants of each region containing ``y``, tested in one stacked
        call over the regions anchored near ``y``; a subset leaves the sum
        as its count goes 0 -> 1 and returns as it goes 1 -> 0."""
        keys = self._anchor_grid.candidates(y, self.max_reach)
        if not keys:
            return
        slots = np.fromiter(map(self._slot.__getitem__, keys), dtype=np.intp, count=len(keys))
        closed = self.nbhd.kind == "balls"
        region = BallUnionRegion(self._centers[slots], self._radii[slots], closed, self.config.metric)
        inside = region.contains_many(y[None])
        hit = slots[inside[:, 0]]
        self._occupants[hit] += step
        for val in self._xi[hit[self._occupants[hit] == max(step, 0)]].tolist():
            self._sum.add(-step * val)


@functools.lru_cache(maxsize=256)
def _combination_rows(n: int, must: int, k: int) -> NDArray:
    """Index rows ``(C, k)``, each ascending, of the ``k``-subsets of
    ``range(n)`` that contain ``must``, in ``itertools.combinations`` order
    of the others; read-only, as it is shared by every call.  Each cached
    array is smaller than the point stack its caller gathers with it."""
    combos = list(combinations([i for i in range(n) if i != must], k - 1))
    rows = np.empty((len(combos), k), dtype=np.intp)
    rows[:, :-1] = np.array(combos, dtype=np.intp).reshape(len(combos), k - 1)
    rows[:, -1] = must
    rows.sort(axis=1)
    rows.flags.writeable = False
    return rows


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
    form: one KD-tree query proposes the points near every circumcentre,
    and one ``contains_many`` call over those candidate lists decides.
    """
    metric = config.metric
    enum_radius = _scale_radii(functional, r, neighborhood, metric)[0]
    positions = config.positions_array()
    k = functional.k
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
    region, valid = neighborhood.build(positions[subsets[live]], r, metric)
    live, region = live[valid], region[valid]
    near = tree.query_ball_point(region.centers[:, 0], padded_radius(region.radii[:, 0]))
    # the candidate lists as rows padded with -1
    lengths = np.fromiter(map(len, near), dtype=np.intp)
    cands = np.full((len(near), lengths.max(initial=0)), -1, dtype=np.intp)
    cands[np.arange(cands.shape[1]) < lengths[:, None]] = np.fromiter(chain.from_iterable(near), dtype=np.intp)
    others = (cands >= 0) & ~(cands[:, :, None] == subsets[live][:, None, :]).any(axis=2)
    occupied = np.any(region.contains_many(positions[cands]) & others, axis=1)
    return float(math.fsum(vals[live][~occupied]))


def _scale_radii(
    functional: LocalFunctional, r: float, neighborhood: Optional[NeighborhoodMap], metric: Metric
) -> tuple[float, float]:
    """The enumeration radius ``r * r_max`` and the regions' reach at scale
    ``r``; a ``ConfigError`` unless ``r > 0`` (NaN fails too) and, on the
    torus, both stay below 1/2."""
    if not r > 0:
        raise ConfigError(f"interaction radius must be positive, got {r!r}")
    enum_radius = r * functional.r_max
    reach = neighborhood.max_reach(functional, r) if neighborhood else 0.0
    if metric.kind == "torus" and max(enum_radius, reach) >= 0.5:
        raise ConfigError(
            "interaction scale too large for the unit torus: "
            f"r * r_max = {enum_radius:.3g} and reach {reach:.3g} (both need < 0.5)"
        )
    return enum_radius, reach


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
) -> NDArray:
    """Simulate stationary path ``rep`` and return the statistic's values at
    ``sample_times``, shape ``(len(sample_times),)``.

    The scale is checked before any draw, so a bad ``r`` costs no
    simulation."""
    if r is None:
        r = config.interaction_radius
    _scale_radii(functional, r, neighborhood, config.metric)
    rng = config.rng(rep)
    state = sample_stationary(config, rng)
    stream = simulate_events(config, state, rng)
    tracker = SubsetTracker(state, functional, r, neighborhood)
    return replay(state, stream, [tracker], sample_times)[0]
