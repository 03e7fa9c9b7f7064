"""Tests of the benchmark's reference computations on hand-built inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_oracles.py
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference  # noqa: E402
from workloads import WEIGHT_ERRORS  # noqa: E402

R = 0.05


def _triangle(center, side=0.8 * R):
    """Equilateral triangle of the given side around ``center``."""
    angles = np.pi / 2 + np.array([0.0, 2.0, 4.0]) * np.pi / 3
    radius = side / math.sqrt(3.0)
    return np.asarray(center) + radius * np.column_stack([np.cos(angles), np.sin(angles)])


def test_isolated_triangle_broken_by_point_just_inside_r():
    tri = _triangle([0.5, 0.5])
    far = np.array([[0.1, 0.1], [0.9, 0.2]])
    assert reference.isolated_triangle_count(np.vstack([tri, far]), R) == 1
    outward = (tri[0] - tri.mean(axis=0)) / np.linalg.norm(tri[0] - tri.mean(axis=0))
    inside = tri[0] + 0.999 * R * outward
    outside = tri[0] + 1.001 * R * outward
    assert reference.isolated_triangle_count(np.vstack([tri, far, inside]), R) == 0
    assert reference.isolated_triangle_count(np.vstack([tri, far, outside]), R) == 1


def test_path_and_star_components_are_not_triangles():
    path = np.array([[0.2, 0.2], [0.2 + 0.9 * R, 0.2], [0.2 + 1.8 * R, 0.2]])
    assert reference.edge_count(path, R) == 2
    assert reference.isolated_triangle_count(path, R) == 0


def test_triangle_across_the_torus_seam():
    tri = np.mod(_triangle([0.0, 0.0]), 1.0)
    assert np.all(tri >= 0.0) and np.any(tri[:, 0] > 0.9) and np.any(tri[:, 1] > 0.9)
    others = np.array([[0.5, 0.5], [0.3, 0.7]])
    points = np.vstack([tri, others])
    assert reference.edge_count(points, R) == 3
    assert reference.isolated_triangle_count(points, R) == 1
    # a point across the other seam, within r of a vertex, breaks it
    vertex = tri[np.argmax(tri[:, 1])]
    intruder = np.mod(vertex + np.array([0.0, 0.9 * R]), 1.0)
    assert intruder[1] < 0.5
    assert reference.isolated_triangle_count(np.vstack([points, intruder]), R) == 0


def test_gabriel_edge_blocked_by_point_near_midpoint():
    a, b = np.array([0.4, 0.5]), np.array([0.4 + 1.5 * R, 0.5])
    far = np.array([[0.1, 0.9]])
    assert reference.gabriel_edge_count(np.vstack([a, b, far]), R) == 1
    # just inside the open diametral disk: a-b is blocked, a-c and c-b remain
    near_mid = (a + b) / 2 + np.array([0.0, 0.74 * R])
    assert reference.gabriel_edge_count(np.vstack([a, b, near_mid, far]), R) == 2
    # just outside it: all three edges are Gabriel edges
    off_mid = (a + b) / 2 + np.array([0.0, 0.76 * R])
    assert reference.gabriel_edge_count(np.vstack([a, b, off_mid, far]), R) == 3


def test_gabriel_edges_longer_than_2r_and_across_the_seam():
    a, b = np.array([0.99, 0.3]), np.array([0.99 + 1.9 * R - 1.0, 0.3])
    assert reference.gabriel_edge_count(np.vstack([a, b]), R) == 1
    c = np.array([0.99 + 2.1 * R - 1.0, 0.3])
    assert reference.gabriel_edge_count(np.vstack([a, c]), R) == 0


def test_replay_alive_applies_events_up_to_each_time():
    initial = {0: np.array([0.1, 0.1]), 1: np.array([0.2, 0.2])}
    events = [
        (0.1, "birth", 2, np.array([0.3, 0.3])),
        (0.25, "death", 0, np.array([0.1, 0.1])),
        (0.4, "death", 2, np.array([0.3, 0.3])),
    ]
    alive = reference.replay_alive(initial, events, [0.0, 0.25, 0.5])
    assert [len(a) for a in alive] == [2, 2, 1]
    assert np.array_equal(alive[2], np.array([[0.2, 0.2]]))


def test_pooled_autocovariance_by_hand():
    matrix = np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 1.0], [2.0, 1.0, 2.0]])
    resid = matrix - matrix.mean(axis=0)
    lag0 = np.mean(resid * resid)
    lag1 = np.mean(resid[:, :2] * resid[:, 1:])
    lag2 = np.mean(resid[:, :1] * resid[:, 2:])
    got = reference.pooled_autocovariance(matrix, 0.5, [0.0, 0.5, 1.0])
    assert np.allclose(got, [1.0, lag1 / lag0, lag2 / lag0], rtol=0, atol=1e-15)


def test_plain_weights_closed_forms():
    edges = reference.edge_plain_weights(1.0)
    assert edges[0] == pytest.approx(math.pi**2 / (math.pi**2 + math.pi / 2), abs=1e-15)
    # I3 = pi (pi - 3 sqrt(3) / 4): area of {y1, y2 in the unit disk, |y1 - y2| <= 1}
    i3 = math.pi * (math.pi - 3.0 * math.sqrt(3.0) / 4.0)
    weights = reference.triangle_plain_weights(2.0)
    raw3 = i3 / (2.0**3 * 6.0)
    raw1 = i3 * i3 / (2.0 * 4.0)
    assert weights[2] / weights[0] == pytest.approx(raw3 / raw1, rel=1e-10)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_isolated_point_quadrature_converges(gamma):
    coarse = reference.isolated_point_weights(gamma, 20, nodes=100)
    fine = reference.isolated_point_weights(gamma, 20, nodes=400)
    assert coarse.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(coarse - fine)) < 1e-9


def test_isolated_point_quadrature_matches_model_at_second_gamma():
    from bdgeom import Density, NeighborhoodMap, exclusive_mixture_model, make_clique

    gamma = 0.5
    model = exclusive_mixture_model(
        make_clique(1), NeighborhoodMap("balls"), Density("uniform", 2), gamma,
        budget=2_000, vol_samples=8_000, max_rate=20, tail_tol=1e-3, seed=11,
    )
    want = reference.isolated_point_weights(gamma, 20)
    assert np.all(np.abs(model.weights - want) <= WEIGHT_ERRORS * model.weight_errors)
    # the band is tight enough to see a wrong gamma
    wrong = reference.isolated_point_weights(1.0, 20)
    assert not np.all(np.abs(model.weights - wrong) <= WEIGHT_ERRORS * model.weight_errors)
