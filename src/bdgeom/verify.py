"""Verification tools: covariance estimation, distribution distances, and
exact-identity oracles for the simulator.

The moment-identity oracle (``mecke_check``) evaluates both sides of the
multi-subset Mecke formula for a finite Poisson process: the expected sum of
a test function over tuples of subsets with a prescribed intersection
pattern equals an explicit integral against i.i.d. points.  Both sides are
estimated by Monte Carlo from independent randomness, giving an end-to-end
consistency check of the samplers and the enumeration machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy import special, stats

from .geometry import Metric, circumball
from .process import Density, SimulationConfig, sample_stationary
from .statistics import TimeSeries


# ---------------------------------------------------------------------------
# ensemble covariance


@dataclass
class CovarianceEstimate:
    lags: NDArray
    values: NDArray
    half_widths: NDArray  # 95% confidence half-widths
    n_paths: int


def estimate_covariance(
    paths: Sequence[TimeSeries] | tuple[NDArray, NDArray],
    lags: Sequence[float],
    time_tol: float = 1e-9,
) -> CovarianceEstimate:
    """Normalized ensemble autocovariance of stationary paths.

    All paths must share one time grid.  For each lag the covariance is
    estimated across replications, pooled over every pair of grid times
    with that separation, and normalized by the pooled lag-0 variance (so
    the value at lag 0 is exactly 1).  Confidence intervals come from the
    replication-to-replication scatter of the pooled products via the
    delta method for the ratio, which correctly shrinks to zero width at
    lag 0.
    """
    if isinstance(paths, tuple):
        times, matrix = paths
        times = np.asarray(times, dtype=float)
        matrix = np.asarray(matrix, dtype=float)
    else:
        times = np.asarray(paths[0].times, dtype=float)
        for p in paths:
            if len(p.times) != len(times) or np.any(np.abs(p.times - times) > time_tol):
                raise ValueError("all paths must share one time grid")
        matrix = np.vstack([p.values for p in paths])
    n_paths, n_times = matrix.shape
    if n_paths < 3:
        raise ValueError("need at least 3 paths")
    resid = matrix - matrix.mean(axis=0, keepdims=True)

    def pooled_products(lag: float) -> NDArray:
        targets = times + lag
        j = np.searchsorted(times, targets - time_tol)
        valid = (j < n_times) & (np.abs(times[np.minimum(j, n_times - 1)] - targets) <= time_tol)
        ii = np.nonzero(valid)[0]
        jj = j[valid]
        if len(ii) == 0:
            raise ValueError(f"lag {lag} not representable on the time grid")
        return (resid[:, ii] * resid[:, jj]).mean(axis=1)

    base = pooled_products(0.0)
    v_mean = float(base.mean())
    if v_mean <= 0:
        raise ValueError("paths have zero variance")
    lags = np.asarray(lags, dtype=float)
    values = np.empty(len(lags))
    halves = np.empty(len(lags))
    for idx, lag in enumerate(lags):
        prod = pooled_products(float(lag))
        c_mean = float(prod.mean())
        rho = c_mean / v_mean
        cov_cc = float(np.var(prod, ddof=1))
        cov_vv = float(np.var(base, ddof=1))
        cov_cv = float(np.cov(prod, base, ddof=1)[0, 1])
        var_rho = (cov_cc - 2.0 * rho * cov_cv + rho**2 * cov_vv) / (
            n_paths * v_mean**2
        )
        values[idx] = rho
        halves[idx] = 1.96 * math.sqrt(max(var_rho, 0.0))
    return CovarianceEstimate(lags, values, halves, n_paths)


# ---------------------------------------------------------------------------
# distribution distances


def kolmogorov_distance(sample: NDArray) -> float:
    """Sup distance between the sample's empirical CDF and the standard
    normal CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    cdf = special.ndtr(x)
    upper = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
    lower = np.max(np.abs(cdf - np.arange(0, n) / n))
    return float(max(upper, lower))


def poisson_chi_square(
    counts: NDArray, mean: float, min_expected: float = 5.0
) -> tuple[float, float]:
    """Chi-square goodness-of-fit of integer counts against Poisson(mean).

    Adjacent integer cells (including both infinite tails) are merged until
    each expected count reaches ``min_expected``.  Returns (statistic, p).
    """
    counts = np.asarray(counts, dtype=int)
    n = len(counts)
    hi = int(max(counts.max(), mean + 10.0 * math.sqrt(mean))) + 1
    pmf = stats.poisson.pmf(np.arange(hi + 1), mean)
    pmf[-1] = 1.0 - pmf[:-1].sum()  # absorb the upper tail
    observed = np.bincount(np.minimum(counts, hi), minlength=hi + 1)
    # greedy merge from the left so each bin expects >= min_expected
    bins_obs: list[float] = []
    bins_exp: list[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for value in range(hi + 1):
        acc_o += observed[value]
        acc_e += n * pmf[value]
        if acc_e >= min_expected:
            bins_obs.append(acc_o)
            bins_exp.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    if acc_e > 0:
        if bins_exp:
            bins_obs[-1] += acc_o
            bins_exp[-1] += acc_e
        else:
            bins_obs.append(acc_o)
            bins_exp.append(acc_e)
    if len(bins_obs) < 2:
        raise ValueError("not enough data to form chi-square bins")
    stat, pvalue = stats.chisquare(bins_obs, f_exp=bins_exp)
    return float(stat), float(pvalue)


# ---------------------------------------------------------------------------
# multi-subset moment identity oracle


@dataclass(frozen=True)
class IntersectionPattern:
    """How many distinct points fall in each intersection of subsets.

    ``blocks`` maps a non-empty set of subset labels (1-based) to the number
    of points shared by exactly those subsets.  The pattern determines the
    sizes of the subsets: subset ``j`` has ``sum(count for J, count in
    blocks if j in J)`` points.
    """

    blocks: tuple[tuple[frozenset, int], ...]

    @classmethod
    def of(cls, spec: dict) -> "IntersectionPattern":
        items = []
        for labels, count in spec.items():
            J = frozenset(labels if isinstance(labels, (tuple, frozenset, list)) else (labels,))
            if not J or min(J) < 1:
                raise ValueError("subset labels must be positive integers")
            if count < 1:
                raise ValueError("block counts must be >= 1")
            items.append((J, int(count)))
        items.sort(key=lambda item: tuple(sorted(item[0])))
        return cls(blocks=tuple(items))

    @property
    def n_subsets(self) -> int:
        return max(max(J) for J, _ in self.blocks)

    @property
    def size(self) -> int:
        return sum(count for _, count in self.blocks)

    def subset_sizes(self) -> list[int]:
        sizes = [0] * self.n_subsets
        for J, count in self.blocks:
            for j in J:
                sizes[j - 1] += count
        return sizes

    def symmetry(self) -> int:
        """Product of block factorials (the overcount of ordered splits)."""
        out = 1
        for _, count in self.blocks:
            out *= math.factorial(count)
        return out

    def split(self, points: NDArray) -> tuple[NDArray, ...]:
        """Assign consecutive rows of ``points`` to blocks and assemble the
        subsets in label order."""
        cursor = 0
        rows: list[list[int]] = [[] for _ in range(self.n_subsets)]
        for J, count in self.blocks:
            for j in J:
                rows[j - 1].extend(range(cursor, cursor + count))
            cursor += count
        return tuple(points[r] for r in rows)


@dataclass
class MeckeResult:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def tolerance(self) -> float:
        return 3.0 * math.hypot(self.lhs_se, self.rhs_se)

    @property
    def agree(self) -> bool:
        return self.gap <= max(self.tolerance, 1e-12)


def mecke_check(
    h: Callable[[tuple[NDArray, ...], NDArray], float],
    pattern: IntersectionPattern,
    n: float,
    density: Density,
    budget: int = 400,
    seed: int = 0,
) -> MeckeResult:
    """Monte Carlo check of the multi-subset Mecke identity.

    Left side: expected sum of ``h(subsets, all_points)`` over ordered
    tuples of subsets of a stationary Poisson sample with the prescribed
    intersection pattern.  Right side: ``n**size / symmetry`` times the
    expectation of ``h`` evaluated on i.i.d. density points (split per the
    pattern) against an independent Poisson sample augmented by them.  The
    test function must be symmetric within each subset and bounded.
    """
    rng_lhs = np.random.default_rng((seed, 1))
    rng_rhs = np.random.default_rng((seed, 2))
    config = SimulationConfig(n=n, dim=density.dim, horizon=0.0, density=density)
    sizes = pattern.subset_sizes()

    lhs_vals = np.empty(budget)
    for b in range(budget):
        state = sample_stationary(config, rng_lhs)
        pts = state.positions_array()
        ids = list(range(len(pts)))
        total = 0.0
        for assignment in _pattern_assignments(ids, pattern):
            subsets = tuple(
                pts[np.fromiter(assignment[j], dtype=int, count=sizes[j])]
                for j in range(pattern.n_subsets)
            )
            total += h(subsets, pts)
        lhs_vals[b] = total
    lhs = float(lhs_vals.mean())
    lhs_se = float(lhs_vals.std(ddof=1) / math.sqrt(budget))

    factor = n**pattern.size / pattern.symmetry()
    rhs_vals = np.empty(budget)
    for b in range(budget):
        extra = density.sample(rng_rhs, pattern.size)
        state = sample_stationary(config, rng_rhs)
        allpts = np.vstack([extra, state.positions_array()])
        rhs_vals[b] = factor * h(pattern.split(extra), allpts)
    rhs = float(rhs_vals.mean())
    rhs_se = float(rhs_vals.std(ddof=1) / math.sqrt(budget))
    return MeckeResult(lhs, lhs_se, rhs, rhs_se)


def _pattern_assignments(ids: list[int], pattern: IntersectionPattern):
    """Yield, per subset label, the ids assigned to it (via disjoint block
    choices in canonical block order)."""
    n_subsets = pattern.n_subsets
    blocks = pattern.blocks

    def rec(block_idx: int, available: list[int], acc: list[tuple[frozenset, tuple]]):
        if block_idx == len(blocks):
            out: list[list[int]] = [[] for _ in range(n_subsets)]
            for J, chosen in acc:
                for j in J:
                    out[j - 1].extend(chosen)
            yield out
            return
        J, count = blocks[block_idx]
        for chosen in combinations(available, count):
            remaining = [i for i in available if i not in chosen]
            yield from rec(block_idx + 1, remaining, acc + [(J, chosen)])

    yield from rec(0, ids, [])


# ---------------------------------------------------------------------------
# Euler characteristic of the distance-function critical points


def euler_characteristic(points: NDArray) -> int:
    """Alternating sum of distance-function critical points of a finite set.

    A subset of ``k + 1`` points spans an index-``k`` critical point when
    the circumcenter lies strictly inside their open simplex and the open
    circumball contains no other point of the set.  For points in general
    position the alternating sum equals 1 (the sublevel sets sweep out a
    contractible space as the radius grows).
    """
    pts = np.asarray(points, dtype=float)
    m, dim = pts.shape
    chi = m  # index 0: every point is a local minimum of the distance field
    sign = 1
    for k in range(1, dim + 1):
        sign = -sign
        combos = np.array(list(combinations(range(m), k + 1)), dtype=np.intp).reshape(-1, k + 1)
        ball = circumball(pts[combos])
        dist = np.sqrt(np.sum((pts[None, :, :] - ball.center[:, None, :]) ** 2, axis=2))
        np.put_along_axis(dist, combos, np.inf, axis=1)
        empty = np.all(dist >= ball.radius[:, None], axis=1)
        chi += sign * int(np.count_nonzero(ball.center_in_simplex & empty))
    return chi
