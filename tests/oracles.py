"""Independent slow oracles whose outputs are frozen into the test suite.

Nothing here imports the package's integration code: values are produced by
deterministic quadrature (or exhaustive enumeration) straight from the
defining formulas, so they can confront the package's Monte Carlo
estimators.  Rerun via BDGEOM_RUN_ORACLES=1 (see test_theory.py).
``validate_functional`` spot-checks the contract every local functional
must meet (invariance, locality, boundedness) on random inputs; it calls
the functional under test, with the metric the caller passes, and nothing
else of the package.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np


def lens_area(t: np.ndarray) -> np.ndarray:
    """Area of the intersection of two unit disks with centers ``t`` apart."""
    t = np.minimum(np.asarray(t, dtype=float), 2.0)
    half = t / 2.0
    return 2.0 * np.arccos(half) - half * np.sqrt(np.maximum(4.0 - t * t, 0.0))


def disk_lens_area(big: float, small: float, gap: float) -> float:
    """Area of the intersection of two disks of radii ``big >= small`` with
    centers ``gap`` apart (the two-radius lens formula)."""
    if gap >= big + small:
        return 0.0
    if gap <= big - small:
        return math.pi * small * small
    kite = math.sqrt(
        (-gap + big + small) * (gap + big - small) * (gap - big + small) * (gap + big + small)
    )
    return (
        big * big * math.acos((gap * gap + big * big - small * small) / (2.0 * gap * big))
        + small * small * math.acos((gap * gap + small * small - big * big) / (2.0 * gap * small))
        - 0.5 * kite
    )


def ball_lens_volume(t: float) -> float:
    """Volume of the intersection of two unit balls in R^3 with centers
    ``t <= 2`` apart: ``pi (4 + t) (2 - t)**2 / 12``."""
    return math.pi * (4.0 + t) * (2.0 - t) ** 2 / 12.0


def interval_union_length(intervals) -> float:
    """Length of a union of closed intervals ``(lo, hi)``, merged in order."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def triple_disk_area(centers: np.ndarray, xpoints: int = 1024) -> float:
    """Area of the intersection of three unit disks by height integration.

    The intersection is convex; at abscissa ``x`` its height is
    ``min_i upper_i(x) - max_i lower_i(x)`` clipped at 0, integrated by the
    composite Simpson rule over the common x-range.
    """
    cx = centers[:, 0]
    cy = centers[:, 1]
    lo = float(np.max(cx - 1.0))
    hi = float(np.min(cx + 1.0))
    if hi <= lo:
        return 0.0
    n = xpoints + (xpoints % 2)  # Simpson needs an even interval count
    x = np.linspace(lo, hi, n + 1)
    dx2 = (x[:, None] - cx[None, :]) ** 2
    span = np.sqrt(np.maximum(1.0 - dx2, 0.0))
    upper = np.min(cy[None, :] + span, axis=1)
    lower = np.max(cy[None, :] - span, axis=1)
    height = np.maximum(upper - lower, 0.0)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((hi - lo) / n / 3.0 * np.sum(weights * height))


def ball_contains(point, center, radius: float, closed: bool, torus: bool) -> bool:
    """Whether ``point`` lies in the ball of ``radius`` around ``center``
    (closed or open), in Python floats; on the unit torus each coordinate
    difference is replaced by its minimal image."""
    delta = [float(y) - float(c) for y, c in zip(point, center)]
    if torus:
        delta = [d - round(d) for d in delta]
    dist = math.sqrt(sum(d * d for d in delta))
    return dist <= radius if closed else dist < radius


def region_contains(point, centers, radii, closed: bool, torus: bool) -> bool:
    """Whether ``point`` lies in the union of the balls, one ball at a time."""
    return any(
        ball_contains(point, center, float(radius), closed, torus)
        for center, radius in zip(centers, radii)
    )


def induced_pattern_indicator(points, r: float, k: int, edges) -> float:
    """1.0 iff the closed radius-``r`` euclidean graph on the ``k`` points is
    the pattern ``edges`` under some relabelling, by trying all ``k!``."""
    adjacent = {
        (a, b): math.dist(points[a], points[b]) <= r
        for a, b in itertools.combinations(range(k), 2)
    }
    pattern = {tuple(sorted(e)) for e in edges}
    for perm in itertools.permutations(range(k)):
        if all(
            adjacent[a, b] == (tuple(sorted((perm[a], perm[b]))) in pattern)
            for a, b in adjacent
        ):
            return 1.0
    return 0.0


def _gauss(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def vacancy_rate_kappa_edges_j1_m1(
    n_s: int = 64, n_rho: int = 48, n_theta: int = 48, xpoints: int = 1024
) -> float:
    """Deterministic quadrature for the edges/ball-union vacancy integral
    with one shared point and one intersection-volume power, at gamma = 1.

    Integral over y in B(0,1), z in B(y,1) of
        exp(-(vol(B0 u By) + vol(By u Bz))) * vol((B0 u By) & (By u Bz))
    with all balls of unit radius and
        vol((B0 u By) & (By u Bz)) = pi + lens(|z|) - triple(0, y, z).

    Reduced by rotational symmetry (y on the positive x-axis, weight 2*pi*s)
    and reflection symmetry in the x-axis (theta on [0, pi], doubled).
    """
    s_nodes, s_w = _gauss(n_s, 0.0, 1.0)
    rho_nodes, rho_w = _gauss(n_rho, 0.0, 1.0)
    th_nodes, th_w = _gauss(n_theta, 0.0, np.pi)
    total = 0.0
    for s, ws in zip(s_nodes, s_w):
        vol_a = 2.0 * np.pi - lens_area(s)
        rho = rho_nodes[:, None]
        theta = th_nodes[None, :]
        zx = s + rho * np.cos(theta)
        zy = rho * np.sin(theta)
        vol_b = 2.0 * np.pi - lens_area(rho)
        znorm = np.sqrt(zx * zx + zy * zy)
        inter = np.pi + np.where(znorm < 2.0, lens_area(znorm), 0.0)
        for i in range(n_rho):
            for jj in range(n_theta):
                centers = np.array([[0.0, 0.0], [s, 0.0], [zx[i, jj], zy[i, jj]]])
                inter[i, jj] -= triple_disk_area(centers, xpoints)
        integrand = np.exp(-(vol_a + vol_b)) * inter
        inner = np.sum((rho_w[:, None] * rho_nodes[:, None]) * th_w[None, :] * integrand)
        total += ws * 2.0 * np.pi * s * 2.0 * inner
    return total


# ---------------------------------------------------------------------------
# invariance validation of local functionals

VALUE_TOL = 1e-9  # values closer than this are equal


class InvarianceReport(NamedTuple):
    trials: int
    scale_violations: int
    locality_violations: int
    bound_violations: int
    max_deviation: float
    feasible_fraction: float

    @property
    def ok(self) -> bool:
        return (
            self.scale_violations == 0
            and self.locality_violations == 0
            and self.bound_violations == 0
        )


def validate_functional(functional, metric, trials: int = 1000, seed: int = 0) -> InvarianceReport:
    """Spot-check scale/translation invariance, locality and boundedness of
    a local functional on random subsets under a euclidean ``metric``; also
    reports how often ``f > 0`` occurred (zero feasible hits usually means a
    degenerate definition)."""
    rng = np.random.default_rng(seed)
    dim = metric.dim
    k = functional.k
    scale_bad = 0
    local_bad = 0
    bound_bad = 0
    feasible = 0
    max_dev = 0.0
    for _ in range(trials):
        r = 0.5 + rng.random()
        spread = r * functional.r_max
        points = rng.uniform(-spread, spread, size=(k, dim))
        value = functional(points, r, metric)
        if abs(value) > functional.xi_sup + VALUE_TOL:
            bound_bad += 1
        if value > 0.0:
            feasible += 1
        alpha = 0.5 + 1.5 * rng.random()
        shift = rng.uniform(-5.0, 5.0, size=dim)
        moved = functional(alpha * points + shift, alpha * r, metric)
        dev = abs(moved - value)
        max_dev = max(max_dev, dev)
        if dev > VALUE_TOL:
            scale_bad += 1
        # force a diameter violation and require a zero value
        if k > 1:
            far = points.copy()
            far[-1] = points[0] + _unit_vector(rng, dim) * (
                functional.r_max * r * (1.1 + rng.random())
            )
            if functional(far, r, metric) != 0.0:
                local_bad += 1
    return InvarianceReport(
        trials=trials,
        scale_violations=scale_bad,
        locality_violations=local_bad,
        bound_violations=bound_bad,
        max_deviation=max_dev,
        feasible_fraction=feasible / trials,
    )


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)

if __name__ == "__main__":
    coarse = vacancy_rate_kappa_edges_j1_m1(48, 32, 32, 512)
    fine = vacancy_rate_kappa_edges_j1_m1(64, 48, 48, 1024)
    print(f"coarse = {coarse:.8f}")
    print(f"fine   = {fine:.8f}")
    print(f"band   = {abs(fine - coarse):.2e}")
