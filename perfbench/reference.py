"""Reference computations made apart from ``bdgeom``.

Every function here uses only numpy, scipy and the lens-area formula of
``tests/oracles.py``; none calls into the package.  The benchmark compares
the package's outputs with these after each timed run.
"""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

_TEST_ORACLES = Path(__file__).resolve().parents[1] / "tests" / "oracles.py"


def _load_lens_area():
    spec = importlib.util.spec_from_file_location("bdgeom_test_oracles", _TEST_ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.lens_area


lens_area = _load_lens_area()


# ---------------------------------------------------------------------------
# counts on the unit torus


def _torus_tree(points: np.ndarray) -> cKDTree:
    return cKDTree(np.mod(np.asarray(points, dtype=float), 1.0), boxsize=1.0)


def edge_count(points: np.ndarray, r: float) -> int:
    """Pairs at torus distance ``<= r``."""
    if len(points) < 2:
        return 0
    return int(_torus_tree(points).query_pairs(r, output_type="ndarray").shape[0])


def isolated_triangle_count(points: np.ndarray, r: float) -> int:
    """Components of the closed ``r``-graph with 3 vertices and 3 edges."""
    m = len(points)
    if m < 3:
        return 0
    pairs = _torus_tree(points).query_pairs(r, output_type="ndarray")
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(m, m)
    )
    _, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels, minlength=m)
    edges = np.bincount(labels[pairs[:, 0]], minlength=m)
    return int(np.count_nonzero((sizes == 3) & (edges == 3)))


def gabriel_edge_count(points: np.ndarray, r: float) -> int:
    """Pairs of torus distance ``<= 2r`` whose open diametral disk holds no
    other point (the Gabriel edges of length at most ``2r``)."""
    pts = np.mod(np.asarray(points, dtype=float), 1.0)
    if len(pts) < 2:
        return 0
    tree = _torus_tree(pts)
    pairs = tree.query_pairs(2.0 * r, output_type="ndarray")
    if len(pairs) == 0:
        return 0
    a, b = pts[pairs[:, 0]], pts[pairs[:, 1]]
    delta = b - a
    delta -= np.round(delta)
    half = 0.5 * np.sqrt(np.sum(delta * delta, axis=1))
    mids = np.mod(a + 0.5 * delta, 1.0)
    count = 0
    for (i, j), mid, rad, near in zip(
        pairs, mids, half, tree.query_ball_point(mids, half)
    ):
        others = [p for p in near if p != i and p != j]
        if others:
            off = pts[others] - mid
            off -= np.round(off)
            if np.any(np.sqrt(np.sum(off * off, axis=1)) < rad):
                continue
        count += 1
    return count


def replay_alive(initial: dict, events, times) -> list[np.ndarray]:
    """Alive positions at each sample time, replayed from an event list.

    ``initial`` maps point ids to positions; each event is a
    ``(time, kind, pid, position)`` tuple with ``kind`` ``"birth"`` or
    ``"death"``.  A sample at ``t`` reflects every event with time ``<= t``.
    """
    alive = dict(initial)
    out = []
    idx = 0
    for time, kind, pid, position in events:
        while idx < len(times) and times[idx] < time:
            out.append(np.array(list(alive.values())).reshape(-1, 2))
            idx += 1
        if kind == "birth":
            alive[pid] = position
        else:
            del alive[pid]
    while idx < len(times):
        out.append(np.array(list(alive.values())).reshape(-1, 2))
        idx += 1
    return out


# ---------------------------------------------------------------------------
# covariance


def pooled_autocovariance(matrix: np.ndarray, step: float, lags) -> np.ndarray:
    """Normalized autocovariance of replicated paths on a regular grid.

    Residuals are taken about the per-time mean across replications; the
    covariance at a lag pools every pair of grid times that far apart and is
    divided by the pooled lag-0 value.
    """
    resid = matrix - matrix.mean(axis=0)
    n_times = matrix.shape[1]

    def pooled(shift: int) -> float:
        return float(np.mean(resid[:, : n_times - shift] * resid[:, shift:]))

    base = pooled(0)
    return np.array([pooled(int(round(lag / step))) / base for lag in lags])


# ---------------------------------------------------------------------------
# limit weights by quadrature (d = 2, uniform density, unit scale)


def _gauss(nodes: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _exp_coefficients(a: np.ndarray, top: int) -> np.ndarray:
    """``a**m / m!`` for ``m = 0..top``, one row per entry of ``a``."""
    m = np.arange(top + 1)
    return a[:, None] ** m / np.array([math.factorial(int(i)) for i in m])


def isolated_point_weights(gamma: float, max_rate: int, nodes: int = 200) -> np.ndarray:
    """Normalized rate weights of the isolated-point count (``clique:1`` with
    ``balls`` regions) in ``d = 2``, rates ``1..max_rate``.

    The documented two-time kernel of ``theory._exclusive_harmonics`` with
    ``s = exp(-dt)`` is ``s**j (1 - s)**W exp(gamma vol(A & B) s)`` times
    ``exp(-gamma (vol A + vol B))``.  For single points the regions are unit
    disks: ``j = 1`` gives ``A = B`` (``W = 0``), and ``j = 0`` gives disks at
    distance ``t`` with ``vol(A & B) = lens(t)`` and ``W = 2`` while
    ``t <= 1``.  The unnormalized weight of rate ``l`` is
    ``gamma**2 H0[l] + gamma H1[l-1]`` where ``H1[p]`` is the ``s**p``
    coefficient of the ``j = 1`` kernel and ``H0[l]`` the radial integral
    ``int 2 pi t c_l(t) dt`` of the ``j = 0`` coefficients.
    """
    decay = math.exp(-2.0 * math.pi * gamma)
    h1 = decay * _exp_coefficients(np.array([gamma * math.pi]), max_rate)[0]
    h0 = np.zeros(max_rate + 1)
    for lo, hi, intruders in ((0.0, 1.0, 2), (1.0, 2.0, 0)):
        t, w = _gauss(nodes, lo, hi)
        coef = _exp_coefficients(gamma * lens_area(t), max_rate)
        alt = np.array([(-1.0) ** i * math.comb(intruders, i) for i in range(intruders + 1)])
        coef = np.array([np.convolve(row, alt)[: max_rate + 1] for row in coef])
        h0 += decay * ((2.0 * math.pi * t * w) @ coef)
    raw = np.array([gamma**2 * h0[l] + gamma * h1[l - 1] for l in range(1, max_rate + 1)])
    return raw / raw.sum()


def triangle_plain_weights(gamma: float, nodes: int = 200) -> np.ndarray:
    """Normalized rate weights 1..3 of the plain triangle count in ``d = 2``.

    With ``I3 = int_{|v|<=1} lens(|v|) dv`` (triangles through the origin),
    ``I2 = int_{|v|<=1} lens(|v|)**2 dv`` (two triangles on one edge) and
    ``I1 = I3**2`` (two triangles on one vertex), the unnormalized weight of
    rate ``j`` is ``gamma**(-j) I_j / (j! ((3 - j)!)**2)``.
    """
    t, w = _gauss(nodes, 0.0, 1.0)
    lens = lens_area(t)
    i3 = float(np.sum(2.0 * math.pi * t * w * lens))
    i2 = float(np.sum(2.0 * math.pi * t * w * lens**2))
    integrals = {1: i3 * i3, 2: i2, 3: i3}
    raw = np.array(
        [gamma ** (-j) * integrals[j] / (math.factorial(j) * math.factorial(3 - j) ** 2)
         for j in (1, 2, 3)]
    )
    return raw / raw.sum()


def edge_plain_weights(gamma: float) -> np.ndarray:
    """Closed-form rate weights 1..2 of the plain edge count in ``d = 2``."""
    raw = np.array([math.pi**2 / gamma, math.pi / (2.0 * gamma**2)])
    return raw / raw.sum()
