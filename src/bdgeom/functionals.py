"""Local subset functionals and the neighborhood regions paired with them.

A local functional assigns a bounded value ``f(S, r)`` to every set ``S`` of
exactly ``k`` points, at interaction scale ``r``.  All built-ins satisfy:

* scale and translation invariance: ``f(a*S + x, a*r) == f(S, r)``;
* locality: ``f(S, r) == 0`` whenever ``diam(S) > r_max * r``;
* boundedness: ``|f| <= xi_sup``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .geometry import Circumball, Metric, circumball, norms, unit_ball_volume


class ConfigError(ValueError):
    """Invalid configuration or selector string."""


@dataclass(frozen=True)
class LocalFunctional:
    """Bounded, local, scale-invariant function of ``k``-point subsets.

    ``batch`` scores a ``(B, k, d)`` stack of subsets at scale ``r`` under
    a metric and returns the ``(B,)`` values; a row's value depends on that
    row alone, bitwise, whatever stack it is scored in.  It is the one route through
    which the evaluator, the theory and the tracker score subsets, except
    the tracker's ``circumball`` rows, which ``NeighborhoodMap.score``
    scores with the next field; calling the functional on one ``(k, d)``
    subset scores a batch of one.

    ``from_circumball``, set by functionals that are functions of their
    subsets' circumballs (``morse``), scores the ``(B,)`` rows of a
    ``Circumball`` at scale ``r``; their ``batch`` is that rule applied
    to the circumballs of the stack.
    """

    name: str
    k: int
    r_max: float
    xi_sup: float
    batch: Callable[[NDArray, float, Metric], NDArray]
    meta: dict = field(default_factory=dict)
    from_circumball: Optional[Callable[[Circumball, float], NDArray]] = None

    def __call__(self, points: NDArray, r: float, metric: Metric) -> float:
        return float(self.batch(np.asarray(points, dtype=float)[None], r, metric)[0])


# ---------------------------------------------------------------------------
# built-in functionals


def make_clique(k: int) -> LocalFunctional:
    """Indicator that all ``k`` points are pairwise within distance ``r``."""
    if k < 1:
        raise ConfigError("clique size must be >= 1")
    iu = np.triu_indices(k, 1)

    def batch(points: NDArray, r: float, metric: Metric) -> NDArray:
        adjacent = metric.pairwise_batch(points, iu) <= r
        # a single point has no pairs, so every subset scores 1; ANDing the
        # few pair columns beats np.all's reduction over a short axis
        clique = np.ones(len(adjacent), dtype=bool)
        for pair in range(adjacent.shape[1]):
            clique &= adjacent[:, pair]
        return clique.astype(float)

    return LocalFunctional(name=f"clique:{k}", k=k, r_max=1.0, xi_sup=1.0, batch=batch)


def _connected(k: int, edges: Sequence[tuple[int, int]]) -> bool:
    seen = {0}
    frontier = [0]
    adj: dict[int, list[int]] = {i: [] for i in range(k)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    while frontier:
        node = frontier.pop()
        for nxt in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == k


# The accepted codes are built from one row per relabelling, k! in all:
# about 24 MB at k = 8, but 362,880 rows and about 240 MB at k = 9.
MAX_SUBGRAPH_NODES = 8


def make_subgraph(k: int, edges: Sequence[tuple[int, int]]) -> LocalFunctional:
    """Indicator that the distance graph on ``S`` at scale ``r`` is isomorphic
    to the given connected graph on nodes ``0..k-1`` (induced isomorphism:
    non-edges must be absent as well).

    Patterns have at most ``MAX_SUBGRAPH_NODES`` nodes.  A subset's graph
    is read as a ``k(k-1)/2``-bit code over its node pairs, and it scores 1
    iff that code is among the codes of the pattern's ``k!`` relabellings,
    which are computed once here.
    """
    if k > MAX_SUBGRAPH_NODES:
        raise ConfigError(f"subgraph patterns have at most {MAX_SUBGRAPH_NODES} nodes, got {k}")
    edge_set = {tuple(sorted(e)) for e in edges}
    for a, b in edge_set:
        if not (0 <= a < k and 0 <= b < k) or a == b:
            raise ConfigError(f"edge ({a},{b}) out of range for {k} nodes")
    if k < 2 or not edge_set:
        raise ConfigError("subgraph needs k >= 2 and at least one edge")
    if not _connected(k, list(edge_set)):
        raise ConfigError("subgraph pattern must be connected")

    target = np.zeros((k, k), dtype=bool)
    for a, b in edge_set:
        target[a, b] = target[b, a] = True
    iu = np.triu_indices(k, 1)
    bits = np.int64(1) << np.arange(len(iu[0]), dtype=np.int64)
    perms = np.array(list(itertools.permutations(range(k))))
    accepted = np.unique(target[perms[:, iu[0]], perms[:, iu[1]]] @ bits)

    def batch(points: NDArray, r: float, metric: Metric) -> NDArray:
        codes = (metric.pairwise_batch(points, iu) <= r) @ bits
        return np.isin(codes, accepted).astype(float)

    label = ",".join(f"{a}-{b}" for a, b in sorted(edge_set))
    return LocalFunctional(
        name=f"subgraph:{k}:{label}",
        k=k,
        # connected on k nodes: graph diameter <= k-1 hops of length <= r
        r_max=float(k - 1),
        xi_sup=1.0,
        batch=batch,
    )


def make_morse(index: int, radius_range: tuple[float, float] = (0.0, 1.0)) -> LocalFunctional:
    """Indicator that ``index + 1`` points span a critical pair of the
    distance function: the circumcenter lies strictly inside their open
    simplex and the circumradius falls in ``(lo*r, hi*r]``."""
    lo, hi = radius_range
    if index < 1:
        raise ConfigError("morse index must be >= 1")
    if not (0.0 <= lo < hi):
        raise ConfigError("radius range must satisfy 0 <= lo < hi")

    def from_circumball(ball: Circumball, r: float) -> NDArray:
        hit = ball.valid & ball.center_in_simplex & (lo * r < ball.radius) & (ball.radius <= hi * r)
        return hit.astype(float)

    def batch(points: NDArray, r: float, metric: Metric) -> NDArray:
        return from_circumball(circumball(metric.unwrap(points)), r)

    return LocalFunctional(
        name=f"morse:{index}",
        k=index + 1,
        # all points lie on a sphere of radius <= hi*r
        r_max=2.0 * hi,
        xi_sup=1.0,
        batch=batch,
        meta={"radius_range": (lo, hi)},
        from_circumball=from_circumball,
    )


def from_selector(selector: str) -> LocalFunctional:
    """Build a functional from a compact selector string.

    Formats: ``clique:k``, ``subgraph:k:a-b,c-d,...``, ``morse:k``.
    """
    if not isinstance(selector, str):
        raise ConfigError(f"config field 'functional' must be a selector string, got {selector!r}")
    parts = selector.split(":")
    kind = parts[0]
    try:
        if kind == "clique" and len(parts) == 2:
            return make_clique(int(parts[1]))
        if kind == "subgraph" and len(parts) == 3:
            k = int(parts[1])
            edges = []
            for token in parts[2].split(","):
                a, b = token.split("-")
                edges.append((int(a), int(b)))
            return make_subgraph(k, edges)
        if kind == "morse" and len(parts) == 2:
            return make_morse(int(parts[1]))
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad functional selector {selector!r}: {exc}") from exc
    raise ConfigError(f"bad functional selector {selector!r}")


# ---------------------------------------------------------------------------
# neighborhood regions (for the exclusive statistic)


@dataclass(frozen=True)
class BallUnionRegion:
    """A stack of exclusion regions, each the union of ``m`` balls: centres
    ``(..., m, d)`` in the metric's domain and radii ``(..., m)``.  The
    balls are closed (``balls`` regions) or open (``circumball``)."""

    centers: NDArray
    radii: NDArray
    closed: bool
    metric: Metric

    def __getitem__(self, index) -> "BallUnionRegion":
        """The regions selected by ``index`` over the leading axis."""
        return BallUnionRegion(self.centers[index], self.radii[index], self.closed, self.metric)

    def contains_many(self, ys: NDArray) -> NDArray:
        """Whether each point of ``ys`` ``(..., n, d)`` lies in the regions,
        with the leading shapes broadcast: ``(..., n)``.  Distances use the
        minimal image on the torus."""
        delta = ys[..., :, None, :] - self.centers[..., None, :, :]
        if self.metric.kind == "torus":
            delta -= delta.round()
        dist = norms(delta)
        limit = self.radii[..., None, :]
        hit = dist <= limit if self.closed else dist < limit
        return hit.any(axis=-1)


@dataclass(frozen=True)
class NeighborhoodMap:
    """Builder of the exclusion region attached to each counted subset."""

    kind: str  # "balls" | "circumball"

    def build(
        self, points: NDArray, r: float, metric: Metric, ball: Optional[Circumball] = None
    ) -> tuple[BallUnionRegion, NDArray]:
        """The regions of a ``(B, k, d)`` stack of subsets at scale ``r``, and
        a ``(B,)`` mask that is False where the circumball is degenerate.

        ``balls`` gives ``k`` closed balls of radius ``r`` around the members
        (which callers pass in the metric's domain); ``circumball`` gives
        one open ball, the circumball, with its centre wrapped.  ``ball``
        passes the stack's circumballs where the caller has them."""
        if self.kind == "balls":
            region = BallUnionRegion(points, np.full(points.shape[:2], float(r)), True, metric)
            return region, np.ones(len(points), dtype=bool)
        if ball is None:
            # unwrap anchors each chart at the row's first point, so centers are in-chart
            ball = circumball(metric.unwrap(points))
        region = BallUnionRegion(metric.wrap(ball.center)[:, None], ball.radius[:, None], False, metric)
        return region, ball.valid

    def score(
        self, functional: LocalFunctional, points: NDArray, r: float, metric: Metric
    ) -> tuple[NDArray, NDArray, BallUnionRegion]:
        """The rows of a ``(B, k, d)`` stack of subsets that count, with a
        nonzero value and a region: their indices, values and regions.

        For ``circumball`` regions and a functional with ``from_circumball``,
        each row's one circumball both scores it and gives its region;
        otherwise ``batch`` scores and ``build`` builds the scored rows."""
        ball = None
        if self.kind == "circumball" and functional.from_circumball is not None:
            ball = circumball(metric.unwrap(points))
            vals = functional.from_circumball(ball, r)
        else:
            vals = functional.batch(points, r, metric)
        live = np.flatnonzero(vals)
        region, valid = self.build(points[live], r, metric, None if ball is None else ball[live])
        if not valid.all():  # a degenerate circumball has no region
            live, region = live[valid], region[valid]
        return live, vals[live], region

    def max_reach(self, functional: LocalFunctional, r: float) -> float:
        """Upper bound, over subsets with ``f > 0``, on the distance from
        a region's first centre to any point of the region."""
        if self.kind == "balls":
            return r * (functional.r_max + 1.0)
        rng = functional.meta.get("radius_range")
        if rng is None:
            raise ConfigError(
                "circumball neighborhoods need a functional with a radius_range"
            )
        return r * rng[1]

    def reach_scale1(self, functional: LocalFunctional) -> float:
        """Max distance from the subset anchor to any region point, at r=1,
        over subsets with ``f > 0``."""
        if self.kind == "balls":
            return functional.r_max + 1.0
        rng = functional.meta.get("radius_range")
        if rng is None:
            raise ConfigError(
                "circumball neighborhoods need a functional with a radius_range"
            )
        return 2.0 * rng[1]


def neighborhood_from_selector(selector: str) -> Optional[NeighborhoodMap]:
    if selector == "none":
        return None
    if selector in ("balls", "circumball"):
        return NeighborhoodMap(kind=selector)
    raise ConfigError(f"bad neighborhood selector {selector!r}")


def pair_volumes(
    centers_a: NDArray,
    radii_a: NDArray,
    centers_b: NDArray,
    radii_b: NDArray,
    samples: int,
    rng: np.random.Generator,
) -> tuple[NDArray, NDArray, NDArray]:
    """Volumes ``vol A``, ``vol B`` and ``vol(A & B)`` of a stack of region
    pairs, each region a union of balls: centres ``(H, m, d)`` and radii
    ``(H, m)``, as in the regions from ``NeighborhoodMap.build``.

    Exact where a closed form exists: two single balls in any ``d`` (two
    hyperspherical caps), and unions in ``d = 1`` (intervals) and ``d = 2``
    (discs, by the boundary-arc method) with ``vol(A & B) = vol A + vol B -
    vol(A | B)``.  Unions of balls in ``d >= 3`` are estimated by hit-or-miss
    from ``samples`` uniform points per pair over a box covering both.
    """
    dim = centers_a.shape[-1]
    if centers_a.shape[1] == centers_b.shape[1] == 1:
        ra, rb = radii_a[:, 0], radii_b[:, 0]
        gap = norms(centers_b[:, 0] - centers_a[:, 0])
        vball = unit_ball_volume(dim)
        return vball * ra**dim, vball * rb**dim, _lens_volume(ra, rb, gap, dim)
    if dim > 2:
        return _hit_or_miss(centers_a, radii_a, centers_b, radii_b, samples, rng)
    union = _union_length if dim == 1 else _union_area
    vol_a = union(centers_a, radii_a)
    vol_b = union(centers_b, radii_b)
    vol_ab = vol_a + vol_b - union(
        np.concatenate([centers_a, centers_b], axis=1), np.concatenate([radii_a, radii_b], axis=1)
    )
    return vol_a, vol_b, np.maximum(vol_ab, 0.0)


def _cap_volume(radius: NDArray, offset: NDArray, dim: int) -> NDArray:
    """Volume of the part of a ``dim``-ball beyond a hyperplane at signed
    distance ``offset`` from its centre: ``V_(d-1) rho**d S_d(phi)`` with
    ``cos(phi) = offset / rho`` and ``S_d(phi) = int_0^phi sin(t)**d dt``."""
    phi = np.arccos(np.clip(offset / radius, -1.0, 1.0))
    sin, cos = np.sin(phi), np.cos(phi)
    lower, upper = phi, 1.0 - cos  # S_0, S_1
    for n in range(2, dim + 1):
        lower, upper = upper, -(sin ** (n - 1)) * cos / n + (n - 1) / n * lower
    return unit_ball_volume(dim - 1) * radius**dim * upper


def _lens_volume(ra: NDArray, rb: NDArray, gap: NDArray, dim: int) -> NDArray:
    """Intersection volume of two balls with centres ``gap`` apart: the caps
    of each beyond their radical hyperplane (clipping covers disjoint and
    nested balls)."""
    safe = np.where(gap > 0.0, gap, 1.0)
    offset = (safe * safe + ra * ra - rb * rb) / (2.0 * safe)
    caps = _cap_volume(ra, offset, dim) + _cap_volume(rb, safe - offset, dim)
    return np.where(gap > 0.0, caps, unit_ball_volume(dim) * np.minimum(ra, rb) ** dim)


def _union_length(centers: NDArray, radii: NDArray) -> NDArray:
    """Lengths of unions of intervals, swept in order of their left ends."""
    order = np.argsort(centers[..., 0] - radii, axis=1)
    mid = np.take_along_axis(centers[..., 0], order, axis=1)
    half = np.take_along_axis(radii, order, axis=1)
    lo, hi = mid - half, mid + half
    reach = np.maximum.accumulate(hi, axis=1)
    before = np.concatenate([np.full((len(lo), 1), -np.inf), reach[:, :-1]], axis=1)
    return np.sum(np.maximum(hi - np.maximum(lo, before), 0.0), axis=1)


def _union_area(centers: NDArray, radii: NDArray) -> NDArray:
    """Areas of unions of discs by the boundary-arc method (Edelsbrunner
    1995; Cazals et al. 2011): Green's theorem ``area = 1/2 * closed integral
    of (x dy - y dx)`` over the arcs of each circle that no other disc
    covers, taken counter-clockwise."""
    m = centers.shape[1]
    delta = centers[:, None, :, :] - centers[:, :, None, :]  # [h, i, j] = c_j - c_i
    gap = norms(delta)
    ri, rj = radii[:, :, None], radii[:, None, :]
    # disc i lies inside disc j; of identical discs only the first is kept
    later = np.arange(m)[None, :] >= np.arange(m)[:, None]
    inside = (gap + ri <= rj) & ~((gap == 0.0) & (ri == rj) & later)
    crossing = (gap < ri + rj) & (gap > np.abs(ri - rj))
    cos_half = (gap * gap + ri * ri - rj * rj) / (2.0 * np.where(crossing, gap * ri, 1.0))
    # disc j covers the arc [start, start + 2 half] of circle i
    half = np.where(crossing, np.arccos(np.clip(cos_half, -1.0, 1.0)), 0.0)
    start = np.mod(np.arctan2(delta[..., 1], delta[..., 0]) - half, 2.0 * np.pi)
    ends = np.mod(start + 2.0 * half, 2.0 * np.pi)
    zero = np.zeros(start.shape[:2] + (1,))
    cuts = np.sort(np.concatenate([zero, start, ends, zero + 2.0 * np.pi], axis=2), axis=2)
    mid = 0.5 * (cuts[..., :-1] + cuts[..., 1:])
    covered = np.zeros(mid.shape, dtype=bool)
    for j in range(m):  # one disc at a time keeps the arrays at (H, m, 2m + 1)
        into = np.mod(mid - start[..., j, None], 2.0 * np.pi)
        covered |= (into < 2.0 * half[..., j, None]) | inside[..., j, None]
    cx, cy, rho = centers[..., 0, None], centers[..., 1, None], radii[..., None]
    arcs = rho * rho * np.diff(cuts, axis=2) + rho * (
        cx * np.diff(np.sin(cuts), axis=2) - cy * np.diff(np.cos(cuts), axis=2)
    )
    return 0.5 * np.sum(np.where(covered, 0.0, arcs), axis=(1, 2))


# points x balls x coordinates held at once by one hit-or-miss block
HIT_OR_MISS_BLOCK = 2**21


def _hit_or_miss(centers_a, radii_a, centers_b, radii_b, samples, rng):
    """Hit-or-miss volumes from one shared uniform sample per pair over a
    box covering both regions, in blocks of rows of bounded size."""
    centers = np.concatenate([centers_a, centers_b], axis=1)
    radii = np.concatenate([radii_a, radii_b], axis=1)
    lo = np.min(centers - radii[..., None], axis=1)
    hi = np.max(centers + radii[..., None], axis=1)
    split = centers_a.shape[1]
    counts = np.zeros((len(centers), 3))
    rows = max(1, HIT_OR_MISS_BLOCK // (samples * centers.shape[1] * centers.shape[2]))
    for first in range(0, len(centers), rows):
        block = slice(first, first + rows)
        pts = lo[block, None] + (hi - lo)[block, None] * rng.random(
            (len(lo[block]), samples, lo.shape[1])
        )
        delta = pts[:, :, None, :] - centers[block, None, :, :]
        inside = np.sum(delta * delta, axis=-1) <= radii[block, None, :] ** 2
        in_a, in_b = inside[..., :split].any(axis=-1), inside[..., split:].any(axis=-1)
        counts[block] = np.stack([in_a, in_b, in_a & in_b], axis=-1).sum(axis=1)
    return tuple(counts.T * (np.prod(hi - lo, axis=1) / samples))
