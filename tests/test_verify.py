"""Tests for the verification toolbox: covariance estimation, distribution
distances, the moment-identity oracle, and the critical-point Euler sum."""
import math
from itertools import permutations

import numpy as np
import pytest

from bdgeom.process import Density, SimulationConfig, sample_stationary
from bdgeom.suite import _battery_cases
from bdgeom.theory import CovarianceModel, simulate_ou_superposition
from bdgeom.verify import (
    IntersectionPattern,
    _assignment_rows,
    estimate_covariance,
    euler_characteristic,
    kolmogorov_distance,
    mecke_check,
    poisson_chi_square,
)


# -- ensemble covariance -------------------------------------------------------


def test_covariance_lag_zero_exact():
    rng = np.random.default_rng(0)
    times = np.arange(0.0, 4.0, 0.5)
    matrix = rng.standard_normal((50, len(times)))
    est = estimate_covariance((times, matrix), [0.0])
    assert est.values[0] == 1.0
    # the delta-method variance cancels exactly at lag 0, up to roundoff
    assert est.half_widths[0] < 1e-6
    assert est.n_paths == 50


def test_covariance_white_noise_decorrelated():
    rng = np.random.default_rng(1)
    times = np.arange(0.0, 8.0, 0.5)
    matrix = rng.standard_normal((400, len(times)))
    est = estimate_covariance((times, matrix), [0.5, 1.0, 2.0])
    assert np.all(np.abs(est.values) <= est.half_widths + 0.05)


def test_covariance_recovers_ou_curve():
    model = CovarianceModel(
        kind="plain", functional="clique:2", gamma=1.0, k=2,
        rates=[1], weights=np.array([1.0]), weight_errors=np.array([0.0]),
    )
    times = np.linspace(0.0, 4.0, 17)
    matrix = simulate_ou_superposition(model, times, seed=2, n_paths=2_000)
    lags = [0.0, 0.25, 0.5, 1.0, 2.0]
    est = estimate_covariance((times, matrix), lags)
    target = np.exp(-np.asarray(lags))
    assert np.all(np.abs(est.values - target) <= est.half_widths + 0.02)


def test_covariance_validates_the_grid():
    times = np.array([0.0, 1.0, 2.0])
    matrix = np.random.default_rng(3).standard_normal((5, 3))
    assert estimate_covariance((times, matrix), [1.0]).n_paths == 5
    # one column per grid time, no fewer and no more
    for bad in (matrix[:, :2], np.hstack([matrix, matrix[:, :1]]), matrix[0]):
        with pytest.raises(ValueError, match="grid"):
            estimate_covariance((times, bad), [1.0])


def test_covariance_input_validation():
    times = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        estimate_covariance((times, np.zeros((2, 2))), [0.0])  # too few paths
    with pytest.raises(ValueError):
        estimate_covariance((times, np.zeros((5, 2))), [0.0])  # zero variance
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        estimate_covariance((times, rng.standard_normal((5, 2))), [0.3])


# -- distribution distances ------------------------------------------------------


def test_kolmogorov_distance_point_mass():
    from scipy import special

    sample = np.full(100, 0.5)
    expected = max(special.ndtr(0.5), 1.0 - special.ndtr(0.5))
    assert kolmogorov_distance(sample) == pytest.approx(expected, rel=1e-12)


def test_kolmogorov_distance_normal_sample():
    rng = np.random.default_rng(5)
    assert kolmogorov_distance(rng.standard_normal(10_000)) < 0.03


def test_kolmogorov_distance_shifted():
    rng = np.random.default_rng(6)
    assert kolmogorov_distance(rng.standard_normal(1_000) + 10.0) > 0.999


def test_kolmogorov_distance_empty():
    with pytest.raises(ValueError):
        kolmogorov_distance(np.array([]))


def test_poisson_chi_square_accepts_true_mean():
    rng = np.random.default_rng(7)
    counts = rng.poisson(30.0, size=2_000)
    stat, p = poisson_chi_square(counts, 30.0)
    assert p > 1e-3
    assert stat >= 0.0


def test_poisson_chi_square_rejects_wrong_mean():
    rng = np.random.default_rng(8)
    counts = rng.poisson(30.0, size=2_000)
    _, p = poisson_chi_square(counts, 20.0)
    assert p < 1e-6


def test_poisson_chi_square_needs_data():
    with pytest.raises(ValueError):
        poisson_chi_square(np.array([1]), 0.01)


# -- moment-identity oracle ------------------------------------------------------


def test_pattern_bookkeeping():
    pattern = IntersectionPattern.of({(1, 2): 1, (1,): 2})
    assert pattern.n_subsets == 2
    assert pattern.size == 3
    assert pattern.subset_sizes() == [3, 1]
    assert pattern.symmetry() == 2
    rows = np.arange(9.0).reshape(3, 3)
    first, second = pattern.split(rows)
    assert first.shape == (3, 3) and second.shape == (1, 3)
    # blocks are canonicalized with (1,) before (1, 2), so the shared row is last
    assert np.array_equal(second[0], rows[2])
    # a stack of tuples splits like each of its rows
    stack = np.arange(18.0).reshape(2, 3, 3)
    for got, want in zip(pattern.split(stack), zip(*map(pattern.split, stack))):
        assert np.array_equal(got, np.stack(want))


def test_pattern_validation():
    with pytest.raises(ValueError):
        IntersectionPattern.of({(0,): 1})
    with pytest.raises(ValueError):
        IntersectionPattern.of({(1,): 0})


def test_pattern_assignment_counts():
    assert len(_assignment_rows(5, (2,))) == 10
    shared = IntersectionPattern.of({(1, 2): 1, (1,): 1, (2,): 1})
    assert len(_assignment_rows(4, tuple(c for _, c in shared.blocks))) == 24


BATTERY_PATTERNS = sorted(
    {IntersectionPattern.of(case["pattern"]) for case in _battery_cases()}, key=repr
)


@pytest.mark.parametrize("pattern", BATTERY_PATTERNS, ids=repr)
def test_assignment_rows_match_brute_force(pattern):
    counts = tuple(c for _, c in pattern.blocks)
    ends = np.cumsum(counts)
    for m in range(10):
        # ordered tuples of distinct ids, kept when ids ascend within each block
        expected = [
            perm
            for perm in permutations(range(m), pattern.size)
            if all(list(perm[e - c:e]) == sorted(perm[e - c:e]) for c, e in zip(counts, ends))
        ]
        rows = _assignment_rows(m, counts)
        assert rows.shape == (len(expected), pattern.size)
        assert [tuple(row) for row in rows.tolist()] == expected


@pytest.mark.parametrize("case", _battery_cases(), ids=lambda case: case["name"])
def test_battery_h_batch_equals_row_by_row(case):
    pattern = IntersectionPattern.of(case["pattern"])
    density = case["density"]
    config = SimulationConfig(n=case["n"], dim=density.dim, horizon=0.0, density=density)
    counts = tuple(c for _, c in pattern.blocks)
    for seed in range(3):
        pts = sample_stationary(config, np.random.default_rng(seed)).positions_array()
        stack = pts[_assignment_rows(len(pts), counts)]
        batched = case["h"](pattern.split(stack), pts)
        assert batched.shape == (len(stack),)
        single = [case["h"](pattern.split(row[None]), pts) for row in stack]
        assert all(value.shape == (1,) for value in single)
        assert np.array_equal(batched, np.concatenate([np.zeros(0), *single]))


def test_mecke_rejects_scalar_h():
    pattern = IntersectionPattern.of({(1,): 1})
    with pytest.raises(ValueError, match=r"shape \(A,\)"):
        mecke_check(lambda subsets, pts: 1.0, pattern, n=5.0,
                    density=Density("uniform", 2), budget=10, seed=0)


def count(subsets, pts):
    return np.ones(len(subsets[0]))


def test_mecke_point_count():
    pattern = IntersectionPattern.of({(1,): 1})
    res = mecke_check(count, pattern, n=5.0,
                      density=Density("uniform", 2), budget=400, seed=0)
    assert res.rhs == pytest.approx(5.0, rel=1e-12)
    assert res.rhs_se == 0.0
    assert res.agree


def test_mecke_pair_count():
    pattern = IntersectionPattern.of({(1,): 2})
    res = mecke_check(count, pattern, n=6.0,
                      density=Density("uniform", 2), budget=400, seed=1)
    assert res.rhs == pytest.approx(18.0, rel=1e-12)  # n^2 / 2
    assert res.agree


FIRST_SECOND = ([0], [1])


def test_mecke_edge_indicator():
    density = Density("uniform", 2)
    metric = density.metric
    r = 0.1

    def h(subsets, pts):
        return (metric.pairwise_batch(subsets[0], FIRST_SECOND)[:, 0] <= r).astype(float)

    pattern = IntersectionPattern.of({(1,): 2})
    res = mecke_check(h, pattern, n=20.0, density=density, budget=400, seed=2)
    exact = 20.0**2 / 2.0 * math.pi * r * r
    assert res.agree
    assert abs(res.rhs - exact) <= 3.0 * res.rhs_se + 1e-12
    assert abs(res.lhs - exact) <= 3.0 * res.lhs_se


def test_mecke_shared_point_pattern():
    density = Density("uniform", 2)
    metric = density.metric
    r = 0.15

    def h(subsets, pts):
        a, b = subsets
        da = metric.pairwise_batch(a, FIRST_SECOND)[:, 0]
        db = metric.pairwise_batch(b, FIRST_SECOND)[:, 0]
        return (np.maximum(da, db) <= r).astype(float)

    pattern = IntersectionPattern.of({(1, 2): 1, (1,): 1, (2,): 1})
    res = mecke_check(h, pattern, n=8.0, density=density, budget=300, seed=3)
    assert res.agree


# -- Euler characteristic --------------------------------------------------------


def test_euler_single_and_pair():
    assert euler_characteristic(np.array([[0.2, 0.7]])) == 1
    assert euler_characteristic(np.array([[0.0, 0.0], [1.0, 0.0]])) == 1


def test_euler_one_dimensional():
    assert euler_characteristic(np.array([[0.0], [1.0], [3.0]])) == 1


def test_euler_collinear_planar():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert euler_characteristic(pts) == 1


def test_euler_random_planar():
    for seed in range(5):
        pts = np.random.default_rng(seed).random((12, 2))
        assert euler_characteristic(pts) == 1
