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

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Literal, Sequence

import numpy as np
from numpy.typing import NDArray

GEOM_TOL = 1e-9


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


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
        delta = self.displacement(a, b)
        return float(np.sqrt(np.sum(delta * delta)))

    def distance_many(self, x: NDArray, points: NDArray) -> NDArray:
        """Distances from ``x`` to each row of ``points``."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return np.zeros(0)
        delta = pts - np.asarray(x, dtype=float)
        if self.kind == "torus":
            delta -= delta.round()
        # array methods: the arithmetic of np.round and np.sum without their
        # wrappers' per-call cost, which dominates on the few rows of one event
        return np.sqrt((delta * delta).sum(axis=1))

    def pairwise(self, points: NDArray) -> NDArray:
        """Full pairwise distance matrix for the rows of ``points``."""
        pts = np.asarray(points, dtype=float)
        delta = pts[:, None, :] - pts[None, :, :]
        if self.kind == "torus":
            delta = delta - np.round(delta)
        return np.sqrt(np.sum(delta * delta, axis=2))

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
        return np.sqrt((delta * delta).sum(axis=2))

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


class GridIndex:
    """Uniform-grid index of keys by cell.

    Cells are cubes of edge ``cell_size`` (on the torus the edge is rounded
    down to ``1/m`` for an integer ``m`` so the grid tiles the cube).  The
    index keeps each key's cell and the keys of each cell, and no
    positions: ``candidates`` lists the keys in the block of cells that
    covers a ball, and ``query`` filters them by exact distance against
    the caller's position array, so its results are exact for every
    radius; ``cell_size`` only affects speed.
    """

    def __init__(self, metric: Metric, cell_size: float):
        if cell_size <= 0.0:
            raise ValueError("cell_size must be positive")
        self.metric = metric
        if metric.kind == "torus":
            self._cells_per_axis = max(1, int(np.floor(1.0 / cell_size)))
            self._edge = 1.0 / self._cells_per_axis
        else:
            self._cells_per_axis = 0  # unbounded
            self._edge = float(cell_size)
        self._cells: dict[tuple[int, ...], list[Hashable]] = {}
        self._cell: dict[Hashable, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._cell)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._cell

    def ids(self) -> Iterable[Hashable]:
        return self._cell.keys()

    def insert(self, keys: Sequence[Hashable], points: NDArray) -> None:
        """Index ``keys`` at the rows of ``points`` ``(n, d)``; the cells
        come from one array pass and are kept, so no later change to the
        caller's array moves a key."""
        floors = np.floor(np.asarray(points, dtype=float) / self._edge).tolist()
        # int() raises for a NaN or infinite coordinate, which has no cell
        if self.metric.kind == "torus":
            m = self._cells_per_axis
            cells = [tuple(int(c) % m for c in row) for row in floors]
        else:
            cells = [tuple(map(int, row)) for row in floors]
        placed = dict(zip(keys, cells))
        if len(placed) != len(keys) or not self._cell.keys().isdisjoint(placed):
            raise KeyError(f"ids already indexed among {list(keys)!r}")
        self._cell.update(placed)
        for key, cell in placed.items():
            self._cells.setdefault(cell, []).append(key)

    def remove(self, key: Hashable) -> None:
        cell = self._cell.pop(key)
        bucket = self._cells[cell]
        bucket.remove(key)
        if not bucket:
            del self._cells[cell]

    def _candidate_cells(self, x: NDArray, rho: float) -> Iterable[tuple[int, ...]]:
        pad = padded_radius(rho)
        spans = [
            range(math.floor((c - pad) / self._edge), math.floor((c + pad) / self._edge) + 1)
            for c in np.asarray(x, dtype=float).tolist()
        ]
        if self.metric.kind == "torus":
            m = self._cells_per_axis
            if max(len(span) for span in spans) >= m:
                # query ball wraps the whole axis; visit each cell once
                return list(self._cells.keys())
            spans = [[c % m for c in span] for span in spans]
        return itertools.product(*spans)

    def candidates(self, x: NDArray, rho: float) -> list[Hashable]:
        """Keys in the cells that cover the closed ``rho``-ball around ``x``:
        every key within distance ``rho`` of ``x`` and some farther ones."""
        found: list[Hashable] = []
        for cell in self._candidate_cells(x, rho):
            bucket = self._cells.get(cell)
            if bucket:
                found.extend(bucket)
        return found

    def query(self, x: NDArray, rho: float, positions: NDArray) -> NDArray:
        """Ascending ids within closed distance ``rho`` of ``x``, as an
        ``np.intp`` array; the keys are integer ids and row ``i`` of
        ``positions`` is the position of id ``i``."""
        found = np.array(self.candidates(x, rho), dtype=np.intp)
        found = found[self.metric.distance_many(x, positions[found]) <= rho]
        found.sort()
        return found


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
    radius = np.sqrt(np.sum(offset * offset, axis=-1))
    inside = valid & np.all(bary > GEOM_TOL, axis=-1)
    return Circumball(base + offset, radius, inside, bary, valid)
