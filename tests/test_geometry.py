"""Metric, grid index, and circumball unit tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bdgeom.functionals import BallUnionRegion
from bdgeom.geometry import GridIndex, Metric, circumball, norms


def summed_norms(delta):
    """Lengths by numpy's summed formula, which ``norms`` reproduces
    bitwise below 8 coordinates."""
    return np.sqrt((delta * delta).sum(axis=-1))


def distance_matrix(metric, pts):
    """Full pairwise distance matrix of the rows of ``pts`` by the summed
    formula, with the minimal image on the torus."""
    delta = pts[:, None, :] - pts[None, :, :]
    if metric.kind == "torus":
        delta = delta - np.round(delta)
    return summed_norms(delta)


# ---------------------------------------------------------------------------
# metric


def test_torus_wraps_across_faces():
    m = Metric("torus", 2)
    a = np.array([0.05, 0.5])
    b = np.array([0.95, 0.5])
    assert m.distance(a, b) == pytest.approx(0.1, abs=1e-15)
    assert np.allclose(m.displacement(a, b), [0.1, 0.0])


def test_euclidean_distance_plain():
    m = Metric("euclidean", 3)
    assert m.distance(np.zeros(3), np.array([1.0, 2.0, 2.0])) == pytest.approx(3.0)


def test_pairwise_matches_distance():
    rng = np.random.default_rng(3)
    for kind in ("euclidean", "torus"):
        m = Metric(kind, 2)
        pts = rng.random((14, 2))
        dmat = distance_matrix(m, pts)
        assert np.allclose(dmat, dmat.T)
        assert np.all(np.diag(dmat) == 0.0)
        for i in range(len(pts)):
            for j in range(len(pts)):
                assert dmat[i, j] == pytest.approx(m.distance(pts[i], pts[j]), abs=1e-12)


def test_pairwise_batch_matches_pairwise():
    rng = np.random.default_rng(4)
    m = Metric("torus", 2)
    batch = rng.random((17, 3, 2))
    iu = np.triu_indices(3, 1)
    got = m.pairwise_batch(batch, iu)
    assert got.shape == (17, 3)
    for b in range(len(batch)):
        assert np.array_equal(got[b], distance_matrix(m, batch[b])[iu])


def test_distance_many_empty():
    m = Metric("torus", 2)
    assert m.distance_many(np.zeros(2), np.zeros((0, 2))).shape == (0,)


# np.mod(x, 1.0) rounds each of the tiny negatives up to exactly 1.0
SEAM = (0.0, -0.0, 1.0, -1e-17, -5e-324, 1.0 - 2.0**-53, -1.0, 3.0)


def tie_and_seam_points(rng, count, dim):
    """``(count, 3, dim)`` point sets on the grid of eighths, mixed with seam
    coordinates and uniform ones.  In the first half of the sets point 1 is
    point 0 moved by 1/8 along an axis, and point 2 is point 0 moved by
    -7/8, 1/8 away on the torus across the seam: exact ties at r = 1/8."""
    pts = rng.integers(0, 8, size=(count, 3, dim)) / 8.0
    seam = rng.random(pts.shape) < 0.2
    pts[seam] = rng.choice(SEAM, size=int(seam.sum()))
    free = rng.random(pts.shape) < 0.2
    pts[free] = rng.random(int(free.sum()))
    tied = np.arange(count // 2)
    pts[tied, 1:] = pts[tied, :1]
    pts[tied, 1, rng.integers(0, dim, len(tied))] += 0.125
    pts[tied, 2, rng.integers(0, dim, len(tied))] -= 0.875
    return pts


@pytest.mark.parametrize("dim", range(1, 8))
def test_norms_match_the_summed_formula_bitwise(dim):
    rng = np.random.default_rng(dim)
    # magnitudes from 1e-200, where squares underflow, up to the 1e150 coordinates the store accepts
    scales = 10.0 ** rng.integers(-200, 151, size=(64, 1, 1)).astype(float)
    ties = tie_and_seam_points(rng, 64, dim)
    torus = ties[:, 1:] - ties[:, :1]
    torus -= np.round(torus)
    for delta in (rng.standard_normal((64, 5, dim)) * scales, ties, torus, ties[0, 0], np.zeros((0, dim))):
        assert np.array_equal(norms(delta), summed_norms(delta))


@pytest.mark.parametrize("dim", range(1, 8))
@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_metric_distances_and_containment_match_the_summed_formula(kind, dim):
    # every distance goes through norms, so each caller agrees bitwise with
    # the summed formula, and ties at dist == r fall the same way in each
    metric = Metric(kind, dim)
    rng = np.random.default_rng(100 + dim)
    pts = tie_and_seam_points(rng, 200, dim)
    iu = np.triu_indices(3, 1)  # pairs 0-1, 0-2, 1-2
    want = np.stack([distance_matrix(metric, row)[iu] for row in pts])
    assert np.array_equal(metric.pairwise_batch(pts, iu), want)
    assert np.array_equal(metric.distance_many(pts[:, 1], pts[:, 2]), want[:, 2])
    assert np.array_equal(metric.distance_many(pts[0, 0], pts[0]), distance_matrix(metric, pts[0])[0])
    assert metric.distance(pts[0, 0], pts[0, 1]) == want[0, 0]
    r = 0.125
    assert np.count_nonzero(want == r) >= len(pts) // 4  # the ties are there
    for closed in (True, False):
        # point 1 against the balls around points 0 and 2
        region = BallUnionRegion(pts[:, [0, 2]], np.full((len(pts), 2), r), closed, metric)
        near = want[:, [0, 2]]
        hit = (near <= r) if closed else (near < r)
        assert np.array_equal(region.contains_many(pts[:, 1:2]), hit.any(axis=-1)[:, None])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arrays(float, (5, 2), elements=st.one_of(st.floats(-4.0, 4.0), st.sampled_from(SEAM))))
def test_torus_wrap_is_idempotent_into_unit_cube(x):
    m = Metric("torus", 2)
    once = m.wrap(x)
    assert np.all((once >= 0.0) & (once < 1.0))
    assert np.array_equal(m.wrap(once), once)


def test_unwrap_preserves_small_diameter_geometry():
    m = Metric("torus", 2)
    rng = np.random.default_rng(5)
    for _ in range(50):
        center = rng.random(2)
        pts = np.mod(center + 0.1 * (rng.random((5, 2)) - 0.5), 1.0)
        flat = m.unwrap(pts)
        euclid = Metric("euclidean", 2)
        assert np.allclose(distance_matrix(euclid, flat), distance_matrix(m, pts), atol=1e-12)


# ---------------------------------------------------------------------------
# grid index


def _brute(metric, positions, x, rho):
    if not positions:
        return set()
    keys = list(positions)
    pts = np.array([positions[k] for k in keys])
    hits = metric.distance_many(x, pts) <= rho
    return {k for k, h in zip(keys, hits) if h}


def _rows(csr):
    """The rows of a CSR ``(starts, ids)`` as lists."""
    starts, ids = csr
    return [ids[a:b].tolist() for a, b in zip(starts[:-1], starts[1:])]


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_query_matches_brute_force(kind, dim):
    rng = np.random.default_rng(hash((kind, dim)) % 2**32)
    metric = Metric(kind, dim)
    for trial in range(60):
        cell = float(rng.uniform(0.02, 0.4))
        index = GridIndex(metric, cell)
        n = int(rng.integers(0, 60))
        scale = 1.0 if kind == "torus" else 3.0
        pos = rng.random((n, dim)) * scale
        # one key at a time, then the rest in one call
        half = n // 2
        for key in range(half):
            index.insert([key], pos[key, None])
        index.insert(list(range(half, n)), pos[half:])
        positions = dict(enumerate(pos))
        # radii above and below the cell edge, including zero-ish
        rho = float(rng.choice([0.01, cell / 2, cell, 3 * cell, 0.45]))
        if kind == "torus":
            rho = min(rho, 0.49)
        xs = rng.random((6, dim)) * scale
        starts, got = index.query(xs, rho, pos)
        assert got.dtype == starts.dtype == np.intp
        assert _rows((starts, got)) == [sorted(_brute(metric, positions, x, rho)) for x in xs]
        # a row does not depend on the stack it is queried in
        assert _rows(index.query(xs[2], rho, pos)) == _rows((starts, got))[2:3]


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
def test_grid_query_over_more_cells_than_one_pass_holds(kind):
    # 0.9 / 0.002 = 450 cells per axis, about 9e7 in the block: every key
    # is a candidate instead, and the distance test decides
    metric = Metric(kind, 3)
    index = GridIndex(metric, 0.002)
    pos = np.random.default_rng(13).random((40, 3))
    index.insert(np.arange(40), pos)
    xs = np.random.default_rng(14).random((3, 3))
    want = [sorted(_brute(metric, dict(enumerate(pos)), x, 0.45)) for x in xs]
    assert _rows(index.query(xs, 0.45, pos)) == want
    assert all(row == list(range(40)) for row in _rows(index.candidates(xs, 0.45)))


def test_grid_insert_remove_roundtrip():
    metric = Metric("torus", 2)
    index = GridIndex(metric, 0.2)
    rng = np.random.default_rng(11)
    pos = rng.random((30, 2))
    index.insert(list(range(30)), pos)
    assert len(index) == 30
    pts = dict(enumerate(pos))
    index.remove(0)
    del pts[0]
    index.remove(list(pts)[1::2])  # several keys in one call
    for k in list(pts)[1::2]:
        del pts[k]
    assert len(index) == len(pts)
    x = np.array([0.5, 0.5])
    assert _rows(index.query(x, 0.3, pos)) == [sorted(_brute(metric, pts, x, 0.3))]
    assert index.ids().tolist() == sorted(pts)


def test_grid_keeps_each_keys_cell_not_its_position():
    # a key stays in the cell of its position at insertion, whatever later
    # happens to the caller's array; query reads the array it is given
    index = GridIndex(Metric("torus", 2), 0.1)
    source = np.array([[0.05, 0.05], [0.55, 0.55]])
    index.insert([0, 1], source)
    source[:] = source[::-1]
    xs = np.array([[0.05, 0.05], [0.55, 0.55]])
    assert _rows(index.candidates(xs, 0.01)) == [[0], [1]]
    assert _rows(index.query(xs, 0.01, source)) == [[], []]
    assert _rows(index.query(xs, 0.01, source[::-1])) == [[0], [1]]
    index.remove(0)  # from its kept cell: the source no longer says where
    assert 0 not in index and len(index) == 1
    assert _rows(index.candidates(xs, 0.01)) == [[], [1]]


def test_grid_candidates_cover_the_query_ball():
    rng = np.random.default_rng(12)
    metric = Metric("torus", 2)
    index = GridIndex(metric, 0.15)
    pos = rng.random((80, 2))
    index.insert(list(range(80)), pos)
    pts = dict(enumerate(pos))
    for _ in range(20):
        # one ball wraps a whole axis of the 6 x 6 grid
        xs, rho = rng.random((3, 2)), float(rng.choice([rng.uniform(0.01, 0.3), 0.49]))
        for x, found in zip(xs, _rows(index.candidates(xs, rho))):
            assert found == sorted(set(found))
            assert _brute(metric, pts, x, rho) <= set(found)
        assert _rows(index.query(xs, rho, pos)) == [sorted(_brute(metric, pts, x, rho)) for x in xs]


@pytest.mark.parametrize("kind", ["euclidean", "torus"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grid_rejects_positions_without_a_cell(kind, bad):
    index = GridIndex(Metric(kind, 2), 0.1)
    with pytest.raises((ValueError, OverflowError)):
        index.insert([0, 1], np.array([[0.5, 0.5], [bad, 0.5]]))
    assert len(index) == 0


def test_grid_duplicate_or_missing_key():
    index = GridIndex(Metric("euclidean", 2), 1.0)
    index.insert([3], np.zeros((1, 2)))
    for keys in ([3], [4, 3], [4, 4], [-1]):
        with pytest.raises(KeyError):
            index.insert(keys, np.ones((len(keys), 2)))
        assert index.ids().tolist() == [3]  # a refused call indexes nothing
    for keys in (4, [3, 4], [3, 3], -1, 10**6):
        with pytest.raises(KeyError):
            index.remove(keys)
        assert index.ids().tolist() == [3]


# ---------------------------------------------------------------------------
# circumball


def test_circumball_of_segment_is_midpoint():
    ball = circumball(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(ball.center, [0.5, 0.0])
    assert ball.radius == pytest.approx(0.5, abs=1e-12)
    assert ball.center_in_simplex


def test_circumball_equilateral_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    ball = circumball(pts)
    assert ball.radius == pytest.approx(1 / math.sqrt(3), abs=1e-12)
    assert np.allclose(ball.center, [0.5, 0.5 / math.sqrt(3)], atol=1e-12)
    assert ball.center_in_simplex


def test_circumball_obtuse_center_outside():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2]])
    ball = circumball(pts)
    assert np.allclose(ball.center, [1.0, -2.4], atol=1e-12)
    assert ball.radius == pytest.approx(2.6, abs=1e-12)
    assert not ball.center_in_simplex


def test_circumball_single_point():
    ball = circumball(np.array([[0.3, 0.7]]))
    assert ball.radius == 0.0
    assert ball.center_in_simplex


def test_circumball_degenerate_rows_are_invalid():
    collinear = circumball(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert not collinear.valid and not collinear.center_in_simplex
    stack = circumball(np.array([[[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [1.0, 0.0]]]))
    assert list(stack.valid) == [False, True]
    assert list(stack.center_in_simplex) == [False, True]
    assert np.isnan(stack.radius[0]) and stack.radius[1] == pytest.approx(0.5)


@pytest.mark.parametrize("m,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_circumball_rows_do_not_depend_on_the_stack(m, d):
    rng = np.random.default_rng(10 * m + d)
    stack = rng.random((4096, m, d))
    stack[1, 1] = stack[1, 0]  # coincident
    if m == 3:
        stack[2, 2] = 2.0 * stack[2, 1] - stack[2, 0]  # collinear
    whole = circumball(stack)
    assert not whole.valid[1] and not whole.center_in_simplex[1]
    if m == 3:
        assert not whole.valid[2] and not whole.center_in_simplex[2]
    assert np.count_nonzero(~whole.valid) == (2 if m == 3 else 1)
    fields = ("center", "radius", "center_in_simplex", "barycentric", "valid")
    square = circumball(stack.reshape(64, 64, m, d))
    for name in fields:
        got = getattr(square, name).reshape(getattr(whole, name).shape)
        assert np.array_equal(got, getattr(whole, name), equal_nan=True), name
    for i in [0, 1, 2, *rng.choice(len(stack), 40, replace=False)]:
        for part in (circumball(stack[i : i + 1]), circumball(stack[i])):
            for name in fields:
                got = np.asarray(getattr(part, name)).reshape(np.shape(getattr(whole, name)[i]))
                assert np.array_equal(got, getattr(whole, name)[i], equal_nan=True), (i, name)


def test_circumball_too_many_points_rejected():
    with pytest.raises(ValueError):
        circumball(np.zeros((4, 2)))


def test_circumball_equidistance_property():
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, d + 2))
        pts = rng.standard_normal((m, d))
        ball = circumball(pts)
        if not ball.valid:
            continue
        dists = np.linalg.norm(pts - ball.center, axis=1)
        assert np.allclose(dists, ball.radius, atol=1e-8)
        assert ball.barycentric.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(ball.barycentric @ pts, ball.center, atol=1e-8)


def test_circumball_rigid_motion_invariance():
    rng = np.random.default_rng(23)
    pts = rng.random((3, 2))
    base = circumball(pts)
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = pts @ rot.T + np.array([5.0, -2.0])
    ball = circumball(moved)
    assert ball.radius == pytest.approx(base.radius, abs=1e-10)
    assert ball.center_in_simplex == base.center_in_simplex
