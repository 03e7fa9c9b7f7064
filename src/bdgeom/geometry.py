"""Geometric primitives: metrics, a uniform-grid spatial index, circumballs.

Conventions used throughout the package:

* balls are closed: ``y`` lies in the ball of radius ``rho`` around ``x``
  iff ``distance(x, y) <= rho``;
* the torus is the unit cube with periodic boundary, so torus coordinates
  live in ``[0, 1)`` and displacements use the minimal image;
* strict positivity / emptiness checks use the absolute tolerance
  ``GEOM_TOL``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from numpy.typing import NDArray

GEOM_TOL = 1e-9


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def norms(delta: NDArray) -> NDArray:
    """Euclidean lengths of the vectors along the last axis of ``delta``:
    the square root of the squared coordinates, added one coordinate at a
    time.  Every distance in the package is this formula, so every caller
    breaks ties at ``dist == r`` alike.

    Below 8 coordinates numpy's own sum runs in the same order, so this is
    bitwise ``np.sqrt((delta * delta).sum(axis=-1))``; over a 2- or 3-long
    axis numpy's reduction costs more than the arithmetic.
    """
    total = delta[..., 0] * delta[..., 0]
    for axis in range(1, delta.shape[-1]):
        total += delta[..., axis] * delta[..., axis]
    return np.sqrt(total)


def padded_radius(rho: float) -> float:
    """Search radius for candidates of a closed ``rho``-ball query.

    A point whose rounded distance is exactly ``rho`` can sit a last ulp
    outside ``rho`` by another route (a cell border, a KD-tree's own
    arithmetic, the triangle inequality through an anchor); searches use
    this radius and the exact test ``distance <= rho`` then decides.
    """
    return rho * (1.0 + GEOM_TOL) + 1e-12


@dataclass(frozen=True)
class Metric:
    """Distance on R^d (``euclidean``) or on the unit torus (``torus``)."""

    kind: Literal["euclidean", "torus"]
    dim: int

    def displacement(self, a: NDArray, b: NDArray) -> NDArray:
        """Vector from ``b`` to ``a`` (minimal image on the torus)."""
        delta = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.kind == "torus":
            delta = delta - np.round(delta)
        return delta

    def distance(self, a: NDArray, b: NDArray) -> float:
        return float(norms(self.displacement(a, b)))

    def distance_many(self, x: NDArray, points: NDArray) -> NDArray:
        """Distances from ``x`` to each row of ``points``; ``x`` is one
        point or, broadcast against ``points``, one point per row."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, self.dim)
        delta = pts - np.asarray(x, dtype=float)
        if self.kind == "torus":
            # the array method: np.round's arithmetic without its wrapper's
            # per-call cost, which dominates on the few rows of one event
            delta -= delta.round()
        return norms(delta)

    def pairwise_batch(self, points: NDArray, pairs: tuple[NDArray, NDArray]) -> NDArray:
        """Distances of selected point pairs within each of a batch of sets.

        ``points`` has shape ``(B, m, d)`` and ``pairs`` is a pair ``(i, j)``
        of index arrays of length ``P``, as from ``np.triu_indices(m, 1)``;
        the result is ``(B, P)``, entry ``[b, p]`` the distance between
        points ``i[p]`` and ``j[p]`` of set ``b``.
        """
        pts = np.asarray(points, dtype=float)
        delta = pts[:, pairs[0]] - pts[:, pairs[1]]
        if self.kind == "torus":
            delta -= delta.round()
        return norms(delta)

    def unwrap(self, points: NDArray) -> NDArray:
        """Euclidean representatives of torus point sets of diameter < 1/2.

        ``points`` is one set ``(m, d)`` or a stack ``(..., m, d)``.  The
        first point of each set anchors its chart; every other point is
        mapped to the minimal-image representative relative to it.  Under
        the euclidean metric points are returned unchanged.
        """
        pts = np.asarray(points, dtype=float)
        if self.kind == "euclidean":
            return pts
        anchor = pts[..., :1, :]
        delta = pts - anchor
        delta = delta - np.round(delta)
        return anchor + delta

    def wrap(self, x: NDArray) -> NDArray:
        """Map positions into the canonical domain (identity on R^d).

        Torus results lie in ``[0, 1)``, so wrapping twice changes nothing.
        """
        if self.kind == "torus":
            wrapped = np.mod(x, 1.0)
            # np.mod rounds tiny negatives up to 1.0, outside the periodic box
            return np.where(wrapped >= 1.0, 0.0, wrapped)
        return np.asarray(x, dtype=float)


# query points x cells of their covering blocks held at once by one
# candidate pass of ``GridIndex``
QUERY_BLOCK = 2**16


def csr_starts(rows: NDArray, count: int) -> NDArray:
    """Offsets ``(count + 1,)`` of a CSR whose entries, once grouped by
    row, have the row numbers ``rows``: row ``i`` owns entries
    ``starts[i]:starts[i + 1]``."""
    starts = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=count), out=starts[1:])
    return starts


def csr_rows(starts: NDArray) -> NDArray:
    """The row number of each entry of a CSR with offsets ``starts``."""
    return np.repeat(np.arange(len(starts) - 1), starts[1:] - starts[:-1])


def expand_ranges(lo: NDArray, counts: NDArray) -> tuple[NDArray, NDArray]:
    """The ranges ``lo[i] .. lo[i] + counts[i] - 1`` concatenated: for each
    element, the ``i`` it belongs to and its value."""
    owner = np.repeat(np.arange(len(lo)), counts)
    return owner, np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(len(owner))


class GridIndex:
    """Uniform-grid index of non-negative integer keys by cell.

    Cells are cubes of edge ``cell_size`` (on the torus the edge is rounded
    down to ``1/m`` for an integer ``m`` so the grid tiles the cube).  The
    index keeps each key's cell code and one array of the keys sorted by
    code, which ``insert`` and ``remove`` change in place; it keeps no
    positions.  ``candidates`` lists, for a stack of points, the keys in
    the block of cells that covers each point's ball, all points in one
    array pass, and ``query`` filters them by exact distance against the
    caller's position array, so its results are exact for every radius;
    ``cell_size`` only affects speed.

    A cell's code is its integer coordinates folded into one ``int64``
    (exactly on small grids; beyond them distinct cells may share a code,
    which only adds candidates).  Euclidean cell coordinates are clipped
    to ``+-2**62``, which keeps every ball inside its block.
    """

    _LIMIT = 2.0**62

    def __init__(self, metric: Metric, cell_size: float):
        if not cell_size > 0.0:
            raise ValueError("cell_size must be positive")
        self.metric = metric
        if metric.kind == "torus":
            self._cells_per_axis = max(1, int(np.floor(1.0 / cell_size)))
            self._edge = 1.0 / self._cells_per_axis
        else:
            self._cells_per_axis = 0  # unbounded
            self._edge = float(cell_size)
        self._weights = np.left_shift(np.int64(1), (62 // metric.dim) * np.arange(metric.dim, dtype=np.int64))
        self._present = np.zeros(0, dtype=bool)
        self._codes = np.zeros(0, dtype=np.int64)  # sorted
        self._keys = np.zeros(0, dtype=np.intp)  # in code order

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: int) -> bool:
        return 0 <= key < len(self._present) and bool(self._present[key])

    def ids(self) -> NDArray:
        return np.flatnonzero(self._present)

    def _floors(self, points: NDArray) -> NDArray:
        """Integer-valued float cell coordinates of the rows of ``points``."""
        floors = np.floor(points / self._edge)
        if self.metric.kind == "euclidean":
            np.clip(floors, -self._LIMIT, self._LIMIT, out=floors)
        return floors

    def _code(self, cells: NDArray) -> NDArray:
        """One ``int64`` per cell of ``cells`` ``(..., d)``; integer
        overflow wraps, so distinct cells may share a code."""
        if self.metric.kind == "torus":
            cells = np.mod(cells, self._cells_per_axis)
        return (cells.astype(np.int64) * self._weights).sum(axis=-1)

    def insert(self, keys: Sequence[int], points: NDArray) -> None:
        """Index ``keys`` at the rows of ``points`` ``(n, d)``; the cells are
        kept, so no later change to the caller's array moves a key.  A
        ``KeyError`` for a key already indexed or repeated, a ``ValueError``
        for a NaN or infinite coordinate, which has no cell; a refused call
        indexes nothing."""
        keys = np.asarray(keys, dtype=np.intp).reshape(-1)
        pts = np.asarray(points, dtype=float).reshape(len(keys), self.metric.dim)
        if not np.isfinite(pts).all():
            raise ValueError("a position with a NaN or infinite coordinate has no grid cell")
        if len(keys) and keys.min() < 0:
            raise KeyError(f"keys must be non-negative, got {keys.tolist()!r}")
        top = int(keys.max(initial=-1)) + 1
        if top > len(self._present):
            grown = np.zeros(max(top, 2 * len(self._present)), dtype=bool)
            grown[: len(self._present)] = self._present
            self._present = grown
        if _repeats(keys) or self._present[keys].any():
            raise KeyError(f"ids already indexed among {keys.tolist()!r}")
        codes = self._code(self._floors(pts))
        order = np.argsort(codes, kind="stable")
        # the merged arrays: each new entry after the equal codes before it
        at = np.searchsorted(self._codes, codes[order], side="right") + np.arange(len(keys))
        old = np.ones(len(self._codes) + len(keys), dtype=bool)
        old[at] = False
        for name, new in (("_codes", codes[order]), ("_keys", keys[order])):
            merged = np.empty(len(old), dtype=new.dtype)
            merged[old] = getattr(self, name)
            merged[at] = new
            setattr(self, name, merged)
        self._present[keys] = True

    def remove(self, keys) -> None:
        """Drop one key or an array of keys; a ``KeyError`` unless every one
        is indexed."""
        keys = np.asarray(keys, dtype=np.intp).reshape(-1)
        # the range test first, with negative keys read as huge unsigned ones
        known = (keys.view(np.uintp) < len(self._present)).all() and self._present[keys].all()
        if not known or _repeats(keys):
            raise KeyError(f"ids not all indexed: {keys.tolist()!r}")
        self._present[keys] = False
        keep = self._present[self._keys]
        self._codes = self._codes[keep]
        self._keys = self._keys[keep]

    def _pairs(self, xs: NDArray, rho: float) -> tuple[NDArray, NDArray]:
        """``(rows, keys)``: each key in the block of cells that covers the
        closed ``rho``-ball around row ``rows[i]`` of ``xs`` (every key when
        the block has more than ``QUERY_BLOCK`` cells), in no order and
        possibly more than once."""
        if not np.isfinite(xs).all():
            raise ValueError("a query point with a NaN or infinite coordinate has no grid cell")
        pad = padded_radius(rho)
        low = self._floors(xs - pad)
        width = (self._floors(xs + pad) - low).astype(np.int64) + 1
        if self.metric.kind == "torus":
            # a block that wraps an axis covers all of it, each cell once
            m = self._cells_per_axis
            full = width >= m
            low[full], width[full] = 0.0, m
        span = int(width.max(initial=1))
        if span**self.metric.dim > QUERY_BLOCK:
            # a block of more cells than one pass holds: every key is a candidate
            return np.repeat(np.arange(len(xs)), len(self._keys)), np.tile(self._keys, len(xs))
        offsets = _block_offsets(span, self.metric.dim)
        block = QUERY_BLOCK // len(offsets)
        rows, keys = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for first in range(0, len(xs), block):
            part = slice(first, first + block)
            owner, which = np.nonzero((offsets < width[part, None, :]).all(axis=-1))
            codes = self._code(low[part][owner] + offsets[which])
            lo = np.searchsorted(self._codes, codes, side="left")
            cell, at = expand_ranges(lo, np.searchsorted(self._codes, codes, side="right") - lo)
            rows.append(owner[cell] + first)
            keys.append(self._keys[at])
        return np.concatenate(rows), np.concatenate(keys)

    def _ascending(self, rows: NDArray, keys: NDArray, count: int) -> tuple[NDArray, NDArray]:
        """The CSR of ``count`` rows from ``(rows, keys)`` pairs, each row's
        keys ascending and unique, by one sort of ``(row, key)``."""
        width = max(len(self._present), 1)
        pairs = np.sort(rows.astype(np.int64) * width + keys)
        fresh = np.ones(len(pairs), dtype=bool)
        np.not_equal(pairs[1:], pairs[:-1], out=fresh[1:])
        pairs = pairs[fresh]
        rows, keys = np.divmod(pairs, width)
        return csr_starts(rows, count), keys.astype(np.intp)

    def candidates(self, xs: NDArray, rho: float) -> tuple[NDArray, NDArray]:
        """Keys in the cells that cover the closed ``rho``-ball around each
        row of ``xs`` ``(q, d)`` (every key for a block of more than
        ``QUERY_BLOCK`` cells): every key within distance ``rho`` and some
        farther ones, as a CSR ``(starts, keys)`` with each row's keys
        ascending and unique."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.metric.dim)
        return self._ascending(*self._pairs(xs, rho), len(xs))

    def query(self, xs: NDArray, rho: float, positions: NDArray) -> tuple[NDArray, NDArray]:
        """Ids within closed distance ``rho`` of each row of ``xs``
        ``(q, d)``, as a CSR ``(starts, ids)`` of ``np.intp`` arrays with
        each row's ids ascending: row ``i`` holds ``ids[starts[i]:starts[i +
        1]]``.  Row ``j`` of ``positions`` is the position of id ``j``."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.metric.dim)
        rows, found = self._pairs(xs, rho)
        near = self.metric.distance_many(xs[rows], positions[found]) <= rho
        return self._ascending(rows[near], found[near], len(xs))


def _repeats(keys: NDArray) -> bool:
    """Whether some key appears more than once."""
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


@functools.lru_cache(maxsize=64)
def _block_offsets(span: int, dim: int) -> NDArray:
    """Cell offsets ``(span**dim, dim)`` of a block of ``span`` cells per
    axis; read-only, as it is shared by every call."""
    offsets = np.indices((span,) * dim).reshape(dim, -1).T
    offsets.flags.writeable = False
    return offsets


@dataclass(frozen=True)
class Circumball:
    """Balls through the point sets of a stack, centers in their affine hulls.

    Each field has the stack's leading shape: ``center`` ``(..., d)``,
    ``radius``, ``center_in_simplex`` and ``valid`` ``(...)``, and
    ``barycentric`` ``(..., m)``.  Rows that are not ``valid`` hold NaN
    geometry and ``center_in_simplex == False``.
    """

    center: NDArray
    radius: NDArray
    center_in_simplex: NDArray
    barycentric: NDArray
    valid: NDArray

    def __getitem__(self, index) -> "Circumball":
        """The rows selected by ``index`` over the leading axis."""
        return Circumball(self.center[index], self.radius[index], self.center_in_simplex[index],
                          self.barycentric[index], self.valid[index])


def circumball(points: NDArray) -> Circumball:
    """Circumballs of a stack ``(..., m, d)`` of point sets (``m <= d + 1``).

    The center of a set is the unique point of its affine hull equidistant
    from all its points; ``center_in_simplex`` reports whether it falls
    strictly inside the open simplex they span (all barycentric coordinates
    greater than ``GEOM_TOL``).  A set that is (nearly) coincident or
    affinely dependent, within ``GEOM_TOL``, gets ``valid == False``.

    One ``np.linalg.svd`` call covers the whole stack, and every further
    step is elementwise or a short sum over a set's own axis, so each row
    comes out bitwise the same whatever stack it is computed in.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        raise ValueError("points must be an array of shape (..., m, d)")
    m, d = pts.shape[-2:]
    if m < 1 or m > d + 1:
        raise ValueError(f"need 1..d+1 points in R^{d}, got {m}")
    lead = pts.shape[:-2]
    base = pts[..., 0, :]
    if m == 1:
        return Circumball(base.copy(), np.zeros(lead), np.ones(lead, dtype=bool),
                          np.ones(lead + (1,)), np.ones(lead, dtype=bool))
    edges = pts[..., 1:, :] - base[..., None, :]  # (..., m-1, d)
    u_mat, sing, vt = np.linalg.svd(edges, full_matrices=False)
    valid = (sing[..., 0] > GEOM_TOL) & (sing[..., -1] > GEOM_TOL * sing[..., 0])
    sing = np.where(valid[..., None], sing, np.nan)
    rhs = 0.5 * np.sum(edges * edges, axis=-1)
    # offset = center - base lies in the row space of `edges`, edges @ offset = rhs
    proj = np.sum(u_mat * rhs[..., :, None], axis=-2) / sing
    offset = np.sum(vt * proj[..., :, None], axis=-2)
    coeff = np.sum(u_mat * (np.sum(vt * offset[..., None, :], axis=-1) / sing)[..., None, :], axis=-1)
    bary = np.concatenate([1.0 - np.sum(coeff, axis=-1, keepdims=True), coeff], axis=-1)
    radius = norms(offset)
    inside = valid & np.all(bary > GEOM_TOL, axis=-1)
    return Circumball(base + offset, radius, inside, bary, valid)
