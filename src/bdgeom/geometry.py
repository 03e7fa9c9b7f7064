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
from dataclasses import dataclass
from typing import Hashable, Iterable, Literal

import numpy as np
from numpy.typing import NDArray

GEOM_TOL = 1e-9


def padded_radius(rho: float) -> float:
    """Search radius for candidates of a closed ``rho``-ball query.

    A point whose rounded distance is exactly ``rho`` can sit a last ulp
    outside ``rho`` by another route (a cell border, a KD-tree's own
    arithmetic, the triangle inequality through an anchor); searches use
    this radius and the exact test ``distance <= rho`` then decides.
    """
    return rho * (1.0 + GEOM_TOL) + 1e-12


class DegenerateGeometryError(ValueError):
    """Point set is affinely dependent where independence is required."""


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
            delta = delta - np.round(delta)
        return np.sqrt(np.sum(delta * delta, axis=1))

    def pairwise(self, points: NDArray) -> NDArray:
        """Full pairwise distance matrix for the rows of ``points``."""
        pts = np.asarray(points, dtype=float)
        delta = pts[:, None, :] - pts[None, :, :]
        if self.kind == "torus":
            delta = delta - np.round(delta)
        return np.sqrt(np.sum(delta * delta, axis=2))

    def pairwise_batch(self, points: NDArray) -> NDArray:
        """Pairwise distances within each of a batch of point sets.

        ``points`` has shape ``(B, m, d)``; the result is ``(B, m, m)``.
        """
        pts = np.asarray(points, dtype=float)
        delta = pts[:, :, None, :] - pts[:, None, :, :]
        if self.kind == "torus":
            delta = delta - np.round(delta)
        return np.sqrt(np.sum(delta * delta, axis=3))

    def unwrap(self, points: NDArray) -> NDArray:
        """Euclidean representatives of a torus point set of diameter < 1/2.

        The first point anchors the chart; every other point is mapped to
        the minimal-image representative relative to it.  Under the
        euclidean metric points are returned unchanged.
        """
        pts = np.asarray(points, dtype=float)
        if self.kind == "euclidean" or len(pts) == 0:
            return pts
        anchor = pts[0]
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
    """Uniform-grid spatial index over identified points.

    Cells are cubes of edge ``cell_size`` (on the torus the edge is rounded
    down to ``1/m`` for an integer ``m`` so the grid tiles the cube).  A
    radius-``rho`` query scans the block of cells that covers the ball of
    radius ``rho`` and then filters candidates by exact distance, so query
    results are exact for every radius; ``cell_size`` only affects speed.
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
        self._positions: dict[Hashable, NDArray] = {}

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._positions

    @property
    def cell_edge(self) -> float:
        return self._edge

    def ids(self) -> Iterable[Hashable]:
        return self._positions.keys()

    def position(self, key: Hashable) -> NDArray:
        return self._positions[key]

    def _cell_of(self, x: NDArray) -> tuple[int, ...]:
        coords = np.floor(np.asarray(x, dtype=float) / self._edge).astype(int)
        if self.metric.kind == "torus":
            coords = np.mod(coords, self._cells_per_axis)
        return tuple(int(c) for c in coords)

    def insert(self, key: Hashable, position: NDArray) -> None:
        if key in self._positions:
            raise KeyError(f"id {key!r} already indexed")
        pos = np.asarray(position, dtype=float)
        self._positions[key] = pos
        self._cells.setdefault(self._cell_of(pos), []).append(key)

    def remove(self, key: Hashable) -> None:
        pos = self._positions.pop(key)
        cell = self._cell_of(pos)
        bucket = self._cells[cell]
        bucket.remove(key)
        if not bucket:
            del self._cells[cell]

    def _candidate_cells(self, x: NDArray, rho: float) -> Iterable[tuple[int, ...]]:
        pad = padded_radius(rho)
        pos = np.asarray(x, dtype=float)
        lo = np.floor((pos - pad) / self._edge).astype(int)
        hi = np.floor((pos + pad) / self._edge).astype(int)
        spans = [range(a, b + 1) for a, b in zip(lo.tolist(), hi.tolist())]
        if self.metric.kind == "torus":
            m = self._cells_per_axis
            if max(len(span) for span in spans) >= m:
                # query ball wraps the whole axis; visit each cell once
                yield from list(self._cells.keys())
                return
            for cell in itertools.product(*spans):
                yield tuple(c % m for c in cell)
        else:
            yield from itertools.product(*spans)

    def query(self, x: NDArray, rho: float) -> list[Hashable]:
        """Ids of indexed points within closed distance ``rho`` of ``x``."""
        candidates: list[Hashable] = []
        for cell in self._candidate_cells(x, rho):
            bucket = self._cells.get(cell)
            if bucket:
                candidates.extend(bucket)
        if not candidates:
            return []
        pts = np.array([self._positions[c] for c in candidates])
        dist = self.metric.distance_many(x, pts)
        return [c for c, dd in zip(candidates, dist) if dd <= rho]


@dataclass(frozen=True)
class Circumball:
    """Ball through all points of a set, with the center in their affine hull."""

    center: NDArray
    radius: float
    center_in_simplex: bool
    barycentric: NDArray


def circumball(points: NDArray, tol: float = GEOM_TOL) -> Circumball:
    """Circumball of ``m`` affinely independent points in R^d (``m <= d + 1``).

    The center is the unique point of the affine hull equidistant from all
    inputs; ``center_in_simplex`` reports whether it falls strictly inside
    the open simplex spanned by the points (all barycentric coordinates
    greater than ``tol``).

    Raises
    ------
    DegenerateGeometryError
        If the points are affinely dependent (within ``tol``).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    m, d = pts.shape
    if m < 1 or m > d + 1:
        raise ValueError(f"need 1..d+1 points in R^{d}, got {m}")
    if m == 1:
        return Circumball(pts[0].copy(), 0.0, True, np.ones(1))
    base = pts[0]
    edges = pts[1:] - base  # (m-1, d)
    u_mat, sing, vt = np.linalg.svd(edges, full_matrices=False)
    if sing[0] <= tol:
        raise DegenerateGeometryError("points are (nearly) coincident")
    if sing[-1] <= tol * sing[0]:
        raise DegenerateGeometryError("points are (nearly) affinely dependent")
    rhs = 0.5 * np.sum(edges * edges, axis=1)
    # center = base + c with c in the row space of `edges` and edges @ c = rhs
    center = base + vt.T @ ((u_mat.T @ rhs) / sing)
    coeff = ((center - base) @ vt.T / sing) @ u_mat.T
    radius = float(np.linalg.norm(center - base))
    bary = np.empty(m)
    bary[1:] = coeff
    bary[0] = 1.0 - float(np.sum(coeff))
    inside = bool(np.all(bary > tol))
    return Circumball(center, radius, inside, bary)
