"""Subset statistics over configurations, maintained through event streams.

The tracked value is ``sum_S f(S, r)`` over all ``k``-point subsets ``S`` of
the alive configuration (only subsets of diameter ``<= r * r_max`` can
contribute, so the sum is maintained locally).  With a neighborhood map the
exclusive variant is tracked instead: each subset contributes only while its
neighborhood region contains no alive point outside the subset itself (the
tracker counts those occupants per subset).

The tracker takes events in batches: ``replay`` cuts a stream at the sample
times and hands each piece, a view of the stream's ``EventArrays``, to
``SubsetTracker.apply_events``, which applies the piece's net change
(``Configuration.net_change``: the deaths of points alive at its start, the
births of points alive at its end) as a few stacked array updates, and then
to ``Configuration.apply_events``.
"""
from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

from .functionals import BallUnionRegion, ConfigError, LocalFunctional, NeighborhoodMap
from .geometry import GridIndex, Metric, csr_rows, csr_starts, expand_ranges, norms, padded_radius
from .process import (
    Configuration,
    Event,
    EventArrays,
    EventStream,
    SimulationConfig,
    _checked_times,
    sample_stationary,
    simulate_events,
    stream_cuts,
)


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
# (point, region) pairs x balls held at once by one stacked containment test
CONTAINS_BLOCK = 2**15


class SubsetTracker:
    """Incremental tracker of one subset statistic over a configuration.

    ``apply_events(events)`` is the one update: it reads the configuration
    as it was before the batch, so the caller applies a batch to every
    tracker first and then to the configuration (``replay`` does this
    bookkeeping).  A batch counts by its net change: the deaths of points
    alive at its start and the births of points still alive at its end; a
    point born and dead inside it is never seen.  It runs in three phases:

    1. subsets that lose a member leave (plain mode: the subsets with a
       dying member are enumerated, each once under its smallest dying id);
    2. in exclusive mode, every surviving region gains the newcomers and
       loses the dying points inside it, and the subsets whose occupant
       count crosses 0 flip in or out of the sum;
    3. the new subsets, those with a newcomer, are scored and, in exclusive
       mode, registered with their occupant counts; each is counted once,
       under its smallest new id.

    Every phase works on stacks: one query of the region anchors serves
    phases 1 and 2 in exclusive mode, one query of the stored points serves
    phase 3 and, in plain mode, phase 1, each phase scores its subsets in
    one call, and containment is tested in blocks of at most
    ``CONTAINS_BLOCK`` pairs.  The initial enumeration is phase 3 with
    every point a newcomer.

    In exclusive mode the registered subsets live in slot arrays: the
    member ids ``(cap, k)`` (ascending), the centres ``(cap, m, d)`` and
    radii ``(cap, m)`` of each region (from ``NeighborhoodMap.build``), the
    value ``xi`` and the ``occupants`` count, with a ``live`` mask.  A
    ``GridIndex`` of the live slots by their regions' first centres finds
    the regions near a changed point; an evicted slot is refilled by a
    later admission.
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
        self._cell = max(self.enum_radius, self.max_reach, 1e-6)
        if not config.indexed:
            config.build_index(self._cell)
        self._sum = KahanSum()
        # the radius of the one query for newcomers (and, in plain mode,
        # dying points): in exclusive mode it reaches every point of a
        # newcomer's regions, and the enumeration keeps the pairs within
        # ``enum_radius``
        self._radius = self.enum_radius
        if neighborhood is not None:
            self._radius = padded_radius(max(self.enum_radius, neighborhood.reach_scale1(functional) * self.r))
            self._anchors = GridIndex(config.metric, max(self.max_reach, 1e-6))
            width = functional.k if neighborhood.kind == "balls" else 1
            dim = config.metric.dim
            self._members = np.empty((INITIAL_SLOTS, functional.k), dtype=np.intp)
            self._centers = np.empty((INITIAL_SLOTS, width, dim))
            self._radii = np.empty((INITIAL_SLOTS, width))
            self._xi = np.empty(INITIAL_SLOTS)
            self._occupants = np.empty(INITIAL_SLOTS, dtype=np.intp)
            self._live = np.zeros(INITIAL_SLOTS, dtype=bool)
        ids = config.ids()
        pts = config.positions_array(ids)
        self._admit(ids, pts, 0, self._neighbours(pts))

    @property
    def value(self) -> float:
        return self._sum.value

    @property
    def registry_size(self) -> int:
        return len(self._anchors) if self.nbhd is not None else 0

    # -- event updates ------------------------------------------------------

    def apply_event(self, event: Event) -> None:
        """Update for one event; the configuration must not yet reflect it."""
        self.apply_events((event,))

    def apply_events(self, events: EventArrays | Sequence[Event]) -> None:
        """Update for a time-ordered batch of events; the configuration must
        not yet reflect any of them.  The batch is checked as
        ``Configuration.apply_events`` checks it, before anything changes."""
        new_ids, new_pts, dying, _ = self.config.net_change(events)
        dying_pts = self.config.positions_array(dying)
        if self.nbhd is not None and (len(dying) or len(new_ids)):
            self._recount(dying, dying_pts, new_ids, new_pts)
        # one stacked query serves phase 3 and, in plain mode, phase 1
        lead = len(dying) if self.nbhd is None else 0
        near = self._neighbours(np.concatenate([dying_pts[:lead], new_pts]))
        old = new = None
        if near is not None:
            rows, ids = near
            cut = int(np.searchsorted(rows, lead))
            old = rows[:cut], ids[:cut]
            if len(new_ids):
                new = self._with_newcomers(rows[cut:] - lead, ids[cut:], dying, new_ids, new_pts)
        if self.nbhd is None and len(dying):
            self._sum.add(-math.fsum(self._retire(dying, dying_pts, old)))
        self._admit(new_ids, new_pts, self.config.next_id, new)

    def _neighbours(self, xs: NDArray) -> Optional[tuple[NDArray, NDArray]]:
        """The ``(rows, ids)`` pairs of the stored points within the query
        radius of each row of ``xs``, rows ascending and ids ascending in
        each row; ``None`` where no query is needed (``k = 1`` subsets in
        plain mode have no other members)."""
        if (self.nbhd is None and self.f.k == 1) or not len(xs):
            return None
        starts, ids = self.config.neighbors_within(xs, self._radius)
        return csr_rows(starts), ids

    def _with_newcomers(
        self, rows: NDArray, ids: NDArray, dying: NDArray, new_ids: NDArray, new_pts: NDArray
    ) -> tuple[NDArray, NDArray]:
        """The newcomers' neighbour pairs over the configuration as it will
        be after the batch: the stored pairs ``(rows, ids)`` less the dying
        ids, plus the newcomers within the query radius, found by a grid of
        their own.  Newcomer ids exceed every stored id, so each row's ids
        stay ascending.  A lone newcomer has no other newcomer near it, and
        itself is neither another member nor an occupant."""
        stay = ~_isin_sorted(ids, dying)
        rows, ids = rows[stay], ids[stay]
        if len(new_ids) > 1:
            grid = GridIndex(self.config.metric, self._cell)
            grid.insert(np.arange(len(new_ids)), new_pts)
            starts, found = grid.query(new_pts, self._radius, new_pts)
            rows = np.concatenate([rows, csr_rows(starts)])
            ids = np.concatenate([ids, new_ids[found]])
            order = np.argsort(rows, kind="stable")
            rows, ids = rows[order], ids[order]
        return rows, ids

    def _position(self, ids: NDArray, new_ids: NDArray, new_pts: NDArray, first_new: int) -> NDArray:
        """Positions of alive ids: from the configuration below
        ``first_new``, from the newcomers at and above it."""
        pts = np.empty(ids.shape + (self.config.metric.dim,))
        old = ids < first_new
        pts[old] = self.config.positions_array(ids[old])
        pts[~old] = new_pts[np.searchsorted(new_ids, ids[~old])]
        return pts

    def _retire(self, dying: NDArray, dying_pts: NDArray, near: Optional[tuple[NDArray, NDArray]]) -> NDArray:
        """Plain mode: the values of the subsets with a dying member, each
        enumerated once under its smallest dying id; ``near`` holds the
        dying points' ``(rows, ids)`` neighbour pairs."""
        if near is None:
            return self.f.batch(dying_pts[:, None, :], self.r, self.config.metric)
        rows, others = near
        keep = (others > dying[rows]) | ~_isin_sorted(others, dying)
        members, _ = _subset_rows(dying, rows[keep], others[keep], self.f.k)
        return self.f.batch(self.config.positions_array(members), self.r, self.config.metric)

    def _recount(self, dying: NDArray, dying_pts: NDArray, new_ids: NDArray, new_pts: NDArray) -> None:
        """Exclusive mode, phases 1 and 2: evict the subsets with a dying
        member, then move the occupant counts of the surviving regions by
        the changed points inside them."""
        points = np.concatenate([dying_pts, new_pts])
        steps = np.repeat([-1, 1], [len(dying), len(new_ids)])
        starts, slots = self._anchors.query(points, padded_radius(self.max_reach), self._centers[:, 0])
        rows = csr_rows(starts)
        losing = starts[len(dying)]
        lost = (self._members[slots[:losing]] == dying[rows[:losing], None]).any(axis=1)
        gone = np.unique(slots[:losing][lost])
        if len(gone):
            counted = gone[self._occupants[gone] == 0]
            self._sum.add(-math.fsum(self._xi[counted]))
            self._live[gone] = False
            self._anchors.remove(gone)
        stay = self._live[slots]
        slots, rows = slots[stay], rows[stay]
        inside = self._contains(self._centers, self._radii, slots, points[rows])
        touched, which = np.unique(slots[inside], return_inverse=True)
        delta = np.bincount(which, weights=steps[rows[inside]], minlength=len(touched)).astype(np.intp)
        was = self._occupants[touched] == 0
        self._occupants[touched] += delta
        now = self._occupants[touched] == 0
        xi = self._xi[touched]
        self._sum.add(math.fsum(xi[now & ~was]) - math.fsum(xi[was & ~now]))

    def _admit(
        self,
        new_ids: NDArray,
        new_pts: NDArray,
        first_new: int,
        near: Optional[tuple[NDArray, NDArray]],
    ) -> None:
        """Phase 3: score the subsets of the alive points that contain a
        newcomer and count (plain) or register (exclusive) them.  ``near``
        holds the ``(rows, ids)`` pairs of every alive point within the
        phase's radius of each newcomer, ids ascending in each row; ids at
        or above ``first_new`` are newcomers, and a subset is enumerated
        under its smallest one."""
        if not len(new_ids):
            return
        metric = self.config.metric
        if self.f.k == 1:
            members, owner = new_ids[:, None], np.arange(len(new_ids))
        else:
            rows, others = near
            keep = (others > new_ids[rows]) | (others < first_new)
            if self.nbhd is not None:
                pts = self._position(others[keep], new_ids, new_pts, first_new)
                keep[keep] = metric.distance_many(new_pts[rows[keep]], pts) <= self.enum_radius
            members, owner = _subset_rows(new_ids, rows[keep], others[keep], self.f.k)
        if not len(members):
            return
        pts = self._position(members, new_ids, new_pts, first_new)
        if self.nbhd is None:
            self._sum.add(math.fsum(self.f.batch(pts, self.r, metric)))
            return
        live, vals, region = self.nbhd.score(self.f, pts, self.r, metric)
        if not len(live):
            return
        members, owner = members[live], owner[live]
        # each new region against every alive point near its newcomer
        rows, others = near
        starts = csr_starts(rows, len(new_ids))
        pair, at = expand_ranges(starts[owner], starts[owner + 1] - starts[owner])
        cands = others[at]
        hit = self._contains(region.centers, region.radii, pair, self._position(cands, new_ids, new_pts, first_new))
        hit &= ~(members[pair] == cands[:, None]).any(axis=1)
        occupants = np.bincount(pair[hit], minlength=len(members))
        slots = self._claim(len(members))
        self._members[slots] = members
        self._centers[slots] = region.centers
        self._radii[slots] = region.radii
        self._xi[slots] = vals
        self._occupants[slots] = occupants
        self._live[slots] = True
        self._anchors.insert(slots, region.centers[:, 0])
        self._sum.add(math.fsum(vals[occupants == 0]))

    def _contains(self, centers: NDArray, radii: NDArray, regions: NDArray, points: NDArray) -> NDArray:
        """Whether each of ``points`` lies in the region of the matching
        entry of ``regions`` (rows of ``centers`` and ``radii``), tested in
        blocks of at most ``CONTAINS_BLOCK`` pairs x balls."""
        closed = self.nbhd.kind == "balls"
        inside = np.empty(len(points), dtype=bool)
        block = max(1, CONTAINS_BLOCK // centers.shape[1])
        for first in range(0, len(points), block):
            part = slice(first, first + block)
            region = BallUnionRegion(centers[regions[part]], radii[regions[part]], closed, self.config.metric)
            inside[part] = region.contains_many(points[part, None, :])[:, 0]
        return inside

    def _claim(self, count: int) -> NDArray:
        """``count`` free slots, lowest first; the slot arrays grow, by
        doubling, when too few are free."""
        free = np.flatnonzero(~self._live)
        if len(free) < count:
            capacity = len(self._live)
            grown = max(2 * capacity, capacity - len(free) + count)
            for name in ("_members", "_centers", "_radii", "_xi", "_occupants", "_live"):
                old = getattr(self, name)
                new = np.zeros((grown,) + old.shape[1:], dtype=old.dtype)
                new[:capacity] = old
                setattr(self, name, new)
            free = np.flatnonzero(~self._live)
        return free[:count]


def _isin_sorted(values: NDArray, ids: NDArray) -> NDArray:
    """Whether each of ``values`` is among the ascending ``ids``."""
    at = np.minimum(np.searchsorted(ids, values), max(len(ids) - 1, 0))
    return ids[at] == values if len(ids) else np.zeros(len(values), dtype=bool)


def _subset_rows(anchors: NDArray, rows: NDArray, others: NDArray, k: int) -> tuple[NDArray, NDArray]:
    """Member rows ``(B, k)``, ``k >= 2``, each ascending, of every anchor
    with each ``(k - 1)``-subset of its others, and the anchor index of each
    row.
    ``(rows, others)`` pairs each anchor index with its other candidate
    members, grouped by ascending anchor index.  The subsets grow as
    chains of pair indices, each step appending every later pair of the
    same anchor."""
    ends = csr_starts(rows, len(anchors))[1:][rows]
    chains = np.arange(len(rows))[:, None]
    for _ in range(k - 2):
        last = chains[:, -1]
        grown, nxt = expand_ranges(last + 1, ends[last] - last - 1)
        chains = np.column_stack([chains[grown], nxt])
    owner = rows[chains[:, 0]]
    return np.sort(np.column_stack([anchors[owner], others[chains]]), axis=1), owner


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
    clique, ``S`` is a whole component).  Every edge is decided by
    ``geometry.norms``, so a pair at distance exactly ``r``
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

    The KD-tree proposes candidates at a slightly inflated radius and
    ``geometry.norms`` decides, so ties at ``dist == rho``
    fall as in ``BallUnionRegion.contains_many`` and ``GridIndex.query``.
    Pairs come in the tree's order.
    """
    pairs = tree.query_pairs(padded_radius(rho), output_type="ndarray")
    delta = positions[pairs[:, 1]] - positions[pairs[:, 0]]
    if metric.kind == "torus":
        delta = delta - np.round(delta)
    dist = norms(delta)
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
    value reflects all events with ``time <= t``).  The stream is cut at
    the sample times, and each piece goes to every tracker's
    ``apply_events`` and then to the configuration's; the events after the
    last sample time are applied too, so the configuration is mutated in
    place to the end of the stream.  A ``ValueError`` for non-finite or
    decreasing sample times, before any event is applied.
    """
    cuts = stream_cuts(stream, sample_times)
    out = np.zeros((len(trackers), len(cuts)))
    done = 0
    for col, cut in enumerate(np.append(cuts, len(stream.events)).tolist()):
        if cut > done:
            piece = stream.events[done:cut]
            for tracker in trackers:
                tracker.apply_events(piece)
            config.apply_events(piece)
            done = cut
        if col < len(cuts):
            out[:, col] = [tracker.value for tracker in trackers]
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

    The scale and the sample times are checked before any draw, so a bad
    ``r`` or time costs no simulation."""
    if r is None:
        r = config.interaction_radius
    _scale_radii(functional, r, neighborhood, config.metric)
    _checked_times(sample_times)
    rng = config.rng(rep)
    state = sample_stationary(config, rng)
    stream = simulate_events(config, state, rng)
    tracker = SubsetTracker(state, functional, r, neighborhood)
    return replay(state, stream, [tracker], sample_times)[0]
