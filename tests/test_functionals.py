"""Local functionals, neighborhood regions, and the invariance validator."""
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bdgeom import functionals
from bdgeom.functionals import (
    BallUnionRegion,
    ConfigError,
    LocalFunctional,
    MAX_SUBGRAPH_NODES,
    NeighborhoodMap,
    from_selector,
    make_clique,
    make_morse,
    make_subgraph,
    neighborhood_from_selector,
    pair_volumes,
)
from bdgeom.geometry import Metric
from oracles import (
    ball_lens_volume,
    disk_lens_area,
    induced_pattern_indicator,
    interval_union_length,
    lens_area,
    region_contains,
    triple_disk_area,
    validate_functional,
)

E2 = Metric("euclidean", 2)
T2 = Metric("torus", 2)


# ---------------------------------------------------------------------------
# cliques


def test_clique2_threshold():
    f = make_clique(2)
    assert f(np.array([[0.0, 0.0], [0.9, 0.0]]), 1.0, E2) == 1.0
    assert f(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0, E2) == 1.0  # closed at r
    assert f(np.array([[0.0, 0.0], [1.1, 0.0]]), 1.0, E2) == 0.0


def test_clique3_requires_all_pairs():
    f = make_clique(3)
    tight = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.4]])
    assert f(tight, 0.6, E2) == 1.0
    stretched = tight.copy()
    stretched[2] = [3.0, 0.0]
    assert f(stretched, 0.6, E2) == 0.0


def test_clique_batch_matches_loop():
    f = make_clique(3)
    rng = np.random.default_rng(0)
    batch = rng.random((50, 3, 2)) * 0.3
    single = np.array([f(p, 0.15, T2) for p in batch])
    assert np.array_equal(f.batch(batch, 0.15, T2), single)


def test_clique1_always_one():
    f = make_clique(1)
    assert f(np.array([[0.2, 0.8]]), 0.01, E2) == 1.0


# ---------------------------------------------------------------------------
# subgraphs


def test_path3_is_induced():
    f = make_subgraph(3, [(0, 1), (1, 2)])
    r = 1.0
    chain = np.array([[0.0, 0.0], [0.9, 0.0], [1.8, 0.0]])
    assert f(chain, r, E2) == 1.0
    # a triangle has an extra edge: not an induced path
    triangle = np.array([[0.0, 0.0], [0.5, 0.0], [0.25, 0.3]])
    assert f(triangle, r, E2) == 0.0
    # fully separated: no edges at all
    sparse = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
    assert f(sparse, r, E2) == 0.0


def test_path3_label_invariance():
    f = make_subgraph(3, [(0, 1), (1, 2)])
    # hub point listed first: still a path after relabeling
    pts = np.array([[0.9, 0.0], [0.0, 0.0], [1.8, 0.0]])
    assert f(pts, 1.0, E2) == 1.0


def test_subgraph_batch_matches_loop():
    f = make_subgraph(3, [(0, 1), (1, 2)])
    rng = np.random.default_rng(1)
    batch = rng.random((80, 3, 2)) * 2.0
    single = np.array([f(p, 0.8, E2) for p in batch])
    assert np.array_equal(f.batch(batch, 0.8, E2), single)


def connected_patterns(k):
    """Every connected labelled pattern on ``k`` nodes, with its functional."""
    pairs = list(itertools.combinations(range(k), 2))
    for mask in range(1, 2 ** len(pairs)):
        edges = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
        try:
            yield edges, make_subgraph(k, edges)
        except ConfigError:  # disconnected
            continue


def test_subgraph_codes_match_permutation_oracle():
    rng = np.random.default_rng(5)
    patterns = 0
    for k in (2, 3, 4):
        # integer points put many pairs at distance exactly r = 1
        lattice = rng.integers(0, 3, size=(80, k, 2)).astype(float)
        spread = rng.random((80, k, 2)) * 2.0
        batch = np.concatenate([lattice, spread])
        for edges, f in connected_patterns(k):
            patterns += 1
            expect = [induced_pattern_indicator(p, 1.0, k, edges) for p in batch]
            assert 0.0 < np.mean(expect) < 1.0, f.name
            assert np.array_equal(f.batch(batch, 1.0, E2), expect), f.name
    assert patterns == 1 + 4 + 38


def test_subgraph_rejects_bad_patterns():
    with pytest.raises(ConfigError):
        make_subgraph(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(ConfigError):
        make_subgraph(3, [(0, 5)])  # node out of range
    with pytest.raises(ConfigError):
        make_subgraph(2, [])  # no edges


def test_subgraph_node_cap():
    def path(k):
        return ",".join(f"{i}-{i + 1}" for i in range(k - 1))

    assert from_selector(f"subgraph:8:{path(8)}").k == MAX_SUBGRAPH_NODES
    # rejected before the k! relabelling table is built
    with pytest.raises(ConfigError, match="at most 8 nodes"):
        from_selector(f"subgraph:12:{path(12)}")


# ---------------------------------------------------------------------------
# critical-pair (morse) functionals


def test_morse1_pair_radius_window():
    f = make_morse(1)
    assert f.k == 2
    near = np.array([[0.0, 0.0], [1.0, 0.0]])  # circumradius 0.5
    assert f(near, 0.6, E2) == 1.0
    assert f(near, 0.5, E2) == 1.0  # boundary: radius == hi*r counts
    assert f(near, 0.4, E2) == 0.0


def test_morse2_center_must_be_interior():
    f = make_morse(2)
    acute = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert f(acute, 0.7, E2) == 1.0  # circumradius 1/sqrt(3) ~ 0.577
    obtuse = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.2]])
    assert f(obtuse, 5.0, E2) == 0.0  # center outside the triangle
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert f(collinear, 5.0, E2) == 0.0  # degenerate -> zero, not an error


def test_morse_works_across_torus_seam():
    f = make_morse(1)
    pts = np.array([[0.98, 0.5], [0.02, 0.5]])  # distance 0.04 across the seam
    assert f(pts, 0.05, T2) == 1.0


def test_morse_batch_matches_loop():
    # the stack mixes valid, degenerate and seam-crossing subsets
    f = make_morse(2)
    rng = np.random.default_rng(3)
    batch = np.mod(rng.random((60, 3, 2)) * 0.2 - 0.1, 1.0)
    batch[0, 1] = batch[0, 0]
    batch[1, 2] = 2.0 * batch[1, 1] - batch[1, 0]
    single = np.array([f(p, 0.1, T2) for p in batch])
    assert 0.0 < single.mean() < 1.0
    assert single[0] == single[1] == 0.0
    assert np.array_equal(f.batch(batch, 0.1, T2), single)


def test_morse_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        make_morse(0)
    with pytest.raises(ConfigError):
        make_morse(1, radius_range=(0.8, 0.2))


# ---------------------------------------------------------------------------
# selectors


def test_selector_round_trips():
    f = from_selector("clique:3")
    assert (f.name, f.k) == ("clique:3", 3)
    g = from_selector("subgraph:3:0-1,1-2")
    assert g.k == 3 and g.name.startswith("subgraph:3:")
    h = from_selector("morse:2")
    assert h.k == 3 and h.r_max == 2.0


def test_readme_selectors_parse():
    """Every selector the README lists under "Functional selectors" parses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Functional selectors:", 1)[1].split("Exclusion regions:", 1)[0]
    templates = [s for s in re.findall(r"`([^`]+)`", listed) if re.match(r"[a-z]+:", s)]
    assert {t.split(":")[0] for t in templates} == {"clique", "subgraph", "morse"}
    for template in templates:
        selector = template.replace("I-J,...", "0-1,1-2").replace("INDEX", "2")
        from_selector(selector.replace("K", "3"))


@pytest.mark.parametrize(
    "bad", ["clique", "clique:x", "hexagon:2", "subgraph:3:0-9", "morse:zero", ""]
)
def test_selector_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        from_selector(bad)


# ---------------------------------------------------------------------------
# neighborhood regions


def test_ball_union_region_membership():
    stack, _ = NeighborhoodMap("balls").build(np.array([[[0.0, 0.0], [1.0, 0.0]]]), 0.5, E2)
    region = stack[0]
    assert region.closed and np.array_equal(region.radii, [0.5, 0.5])
    on_axis = np.array([[1.4, 0.0], [1.5, 0.0], [1.6, 0.0]])
    assert list(region.contains_many(on_axis)) == [True, True, False]  # closed boundary
    ys = np.array([[0.2, 0.1], [0.9, 0.3], [0.5, 0.49], [2.0, 2.0]])
    assert list(region.contains_many(ys)) == [True, True, False, False]


def test_ball_union_region_wraps_on_torus():
    region = BallUnionRegion(np.array([[0.98, 0.5]]), np.array([0.1]), True, T2)
    assert list(region.contains_many(np.array([[0.02, 0.5]]))) == [True]


def test_circumball_region_is_open():
    region = BallUnionRegion(np.array([[0.0, 0.0]]), np.array([1.0]), False, E2)
    assert list(region.contains_many(np.array([[0.99, 0.0], [1.0, 0.0]]))) == [True, False]
    ys = np.array([[0.0, 0.5], [0.0, 1.0]])
    assert list(region.contains_many(ys)) == [True, False]


@pytest.mark.parametrize("closed", [True, False])
def test_contains_many_broadcasts_and_matches_the_oracle(closed):
    # regions straddling the torus seam, against shared and per-row points;
    # some points sit exactly on a sphere
    rng = np.random.default_rng(41)
    centers = np.mod(rng.uniform(-0.1, 0.1, (12, 3, 2)), 1.0)
    radii = rng.uniform(0.02, 0.1, (12, 3))
    radii[:, 0] = 0.0625
    centers[:, 0] = [0.0, 0.5]
    region = BallUnionRegion(centers, radii, closed, T2)
    shared = np.mod(rng.uniform(-0.15, 0.15, (30, 2)), 1.0)
    shared[:3] = [[0.9375, 0.5], [0.0625, 0.5], [0.0, 0.5625]]  # on the first sphere
    rows = np.mod(rng.uniform(-0.15, 0.15, (12, 30, 2)), 1.0)
    for ys in (shared, rows):
        got = region.contains_many(ys)
        assert got.shape == (12, 30)
        for i in range(12):
            row = ys if ys.ndim == 2 else ys[i]
            want = [region_contains(y, centers[i], radii[i], closed, True) for y in row]
            assert list(got[i]) == want
    # the first balls alone, with one more leading axis
    first = BallUnionRegion(centers[:, None, :1], radii[:, None, :1], closed, T2)
    on_sphere = first.contains_many(shared[:3])
    assert on_sphere.shape == (12, 1, 3)
    assert on_sphere.all() if closed else not on_sphere.any()


def test_circumball_neighborhood_build():
    nbhd = NeighborhoodMap("circumball")
    region, valid = nbhd.build(
        np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]]]), 0.6, E2
    )
    assert not region.closed and region.centers.shape == (2, 1, 2)
    assert np.allclose(region.centers[0, 0], [0.5, 0.0])
    assert region.radii[0, 0] == pytest.approx(0.5)
    # degenerate subsets have no region
    assert list(valid) == [True, False]
    collinear = np.array([[[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]])
    assert list(nbhd.build(collinear, 0.6, E2)[1]) == [False]


def test_circumball_build_on_torus_anchors_each_row():
    # each row straddles the seam; its region must match a one-row build
    rng = np.random.default_rng(12)
    stack = np.mod(rng.random((20, 2, 2)) * 0.1 - 0.05, 1.0)
    nbhd = NeighborhoodMap("circumball")
    region, _ = nbhd.build(stack, 0.1, T2)
    for i, row in enumerate(stack):
        alone, _ = nbhd.build(row[None], 0.1, T2)
        assert np.array_equal(region.centers[i], alone.centers[0])
        assert np.array_equal(region.radii[i], alone.radii[0])
        center, radius = region.centers[i, 0], region.radii[i, 0]
        assert np.all((0.0 <= center) & (center < 1.0))
        assert np.allclose(T2.distance_many(center, row), radius, atol=1e-12)


def test_max_reach_bounds():
    balls = NeighborhoodMap("balls")
    assert balls.max_reach(make_clique(3), 0.2) == pytest.approx(0.4)
    circ = NeighborhoodMap("circumball")
    assert circ.max_reach(make_morse(1), 0.2) == pytest.approx(0.2)
    with pytest.raises(ConfigError):
        circ.max_reach(make_clique(2), 0.2)  # no radius_range to bound by


def test_neighborhood_selector():
    assert neighborhood_from_selector("none") is None
    assert neighborhood_from_selector("balls").kind == "balls"
    assert neighborhood_from_selector("circumball").kind == "circumball"
    with pytest.raises(ConfigError):
        neighborhood_from_selector("donut")


def unit_discs(*rows):
    """Centres ``(H, m, d)`` and unit radii ``(H, m)`` of equal-size rows."""
    centers = np.array(rows, dtype=float)
    return centers, np.ones(centers.shape[:2])


def test_pair_volumes_disk_areas():
    rng = np.random.default_rng(8)
    # one disc a side, and the same discs as unions of two copies
    for copies in (1, 2):
        ca, ra = unit_discs([[0.0, 0.0]] * copies, [[0.0, 0.0]] * copies)
        cb, rb = unit_discs([[1.0, 0.0]] * copies, [[5.0, 0.0]] * copies)
        va, vb, vab = pair_volumes(ca, ra, cb, rb, 400_000, rng)
        lens = 2 * math.acos(0.5) - 0.5 * math.sqrt(3)
        assert np.allclose(va, math.pi, rtol=0, atol=1e-12)
        assert np.allclose(vb, math.pi, rtol=0, atol=1e-12)
        # far apart: no overlap at all
        assert vab[0] == pytest.approx(lens, abs=1e-12) and vab[1] == pytest.approx(0.0, abs=1e-12)


def test_disc_unions_match_lens_and_triple_oracles():
    # A = B(c0) u B(c1), B = B(c1) u B(c2): the regions of two edges sharing c1
    rng = np.random.default_rng(21)
    rows = rng.uniform(-1.0, 1.0, (60, 3, 2))
    rows[0] = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]  # coincident discs
    rows[1] = [[0.0, 0.0], [1.0, 0.0], [3.5, 0.0]]  # c2 clear of A
    ca, ra = unit_discs(*rows[:, :2])
    cb, rb = unit_discs(*rows[:, 1:])
    va, vb, vab = pair_volumes(ca, ra, cb, rb, 1, rng)
    gap = lambda i, j: np.linalg.norm(rows[:, i] - rows[:, j], axis=1)
    assert np.allclose(va, 2.0 * math.pi - lens_area(gap(0, 1)), rtol=0, atol=1e-12)
    assert np.allclose(vb, 2.0 * math.pi - lens_area(gap(1, 2)), rtol=0, atol=1e-12)
    # inclusion-exclusion: vol(A & B) = pi + lens(c0, c2) - triple(c0, c1, c2)
    triple = np.array([triple_disk_area(row, xpoints=65536) for row in rows])
    want = math.pi + np.where(gap(0, 2) < 2.0, lens_area(gap(0, 2)), 0.0) - triple
    assert np.allclose(vab, want, rtol=0, atol=2e-7)


def test_interval_unions_match_merge_oracle():
    rng = np.random.default_rng(22)
    centers = rng.uniform(-2.0, 2.0, (200, 5, 1))
    radii = rng.uniform(0.2, 1.0, (200, 5))
    centers[0, :, 0] = [0.0, 0.0, 1.0, 2.0, 3.0]  # a repeat and touching ends
    radii[0] = 0.5
    va, vb, vab = pair_volumes(centers[:, :2], radii[:, :2], centers[:, 2:], radii[:, 2:], 1, rng)
    for row, c, r in zip(range(len(centers)), centers[..., 0], radii):
        spans = list(zip(c - r, c + r))
        union = interval_union_length(spans)
        assert va[row] == pytest.approx(interval_union_length(spans[:2]), abs=1e-12)
        assert vb[row] == pytest.approx(interval_union_length(spans[2:]), abs=1e-12)
        assert vab[row] == pytest.approx(va[row] + vb[row] - union, abs=1e-12)


def test_unit_balls_in_three_dimensions_match_the_lens_volume():
    rng = np.random.default_rng(23)
    t = np.array([0.0, 0.4, 1.0, 1.7, 2.5])
    lens = np.array([ball_lens_volume(min(x, 2.0)) for x in t])
    offsets = np.zeros((len(t), 1, 3))
    offsets[:, 0, 0] = t
    ones = np.ones((len(t), 1))
    # one ball a side: the closed form
    va, _, vab = pair_volumes(np.zeros((len(t), 1, 3)), ones, offsets, ones, 1, rng)
    assert np.allclose(va, 4.0 * math.pi / 3.0, rtol=0, atol=1e-12)
    assert np.allclose(vab, lens, rtol=0, atol=1e-12)
    # each ball as a union of two copies: hit-or-miss over the covering box
    samples = 200_000
    ca, cb = np.zeros((len(t), 2, 3)), np.repeat(offsets, 2, axis=1)
    va, _, vab = pair_volumes(ca, np.ones((len(t), 2)), cb, np.ones((len(t), 2)), samples, rng)
    box = 2.0 * 2.0 * (2.0 + t)
    err = box * np.sqrt(lens / box * (1.0 - lens / box) / samples)
    assert np.all(np.abs(vab - lens) <= 4.0 * err + 1e-12)
    assert np.all(np.abs(va - 4.0 * math.pi / 3.0) <= 4.0 * box / math.sqrt(samples))


def test_hit_or_miss_blocks_bound_memory_not_values(monkeypatch):
    rng_rows = np.random.default_rng(24)
    ca = rng_rows.uniform(-1.0, 1.0, (7, 3, 3))
    cb = rng_rows.uniform(-1.0, 1.0, (7, 3, 3))
    radii = np.ones((7, 3))
    whole = pair_volumes(ca, radii, cb, radii, 500, np.random.default_rng(5))
    # one row a block: the same uniform stream, so the same volumes
    monkeypatch.setattr(functionals, "HIT_OR_MISS_BLOCK", 1)
    blocked = pair_volumes(ca, radii, cb, radii, 500, np.random.default_rng(5))
    for a, b in zip(whole, blocked):
        assert np.array_equal(a, b)


def test_unequal_circumballs_match_the_two_radius_lens():
    rng = np.random.default_rng(25)
    cases = [(1.3, 0.6, 1.1), (1.0, 0.4, 0.2), (0.9, 0.5, 1.6), (0.7, 0.7, 0.0), (2.0, 0.3, 1.7)]
    big, small, gap = (np.array(col) for col in zip(*cases))
    ca = np.zeros((len(cases), 1, 2))
    cb = np.zeros((len(cases), 1, 2))
    cb[:, 0, 0] = gap
    va, vb, vab = pair_volumes(ca, big[:, None], cb, small[:, None], 1, rng)
    assert np.allclose(va, math.pi * big**2, rtol=0, atol=1e-12)
    assert np.allclose(vb, math.pi * small**2, rtol=0, atol=1e-12)
    want = [disk_lens_area(*case) for case in cases]
    assert np.allclose(vab, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind, selector", [("balls", "clique:3"), ("circumball", "morse:1")])
def test_intruder_counts_match_the_oracle(kind, selector):
    nbhd = NeighborhoodMap(kind)
    k = from_selector(selector).k
    rng = np.random.default_rng(26)
    tuples = rng.uniform(-1.0, 1.0, (40, k, 2))
    ys = rng.uniform(-1.5, 1.5, (40, 4, 2))
    # ties: a point exactly one unit from a ball centre, and the tuple's own points
    tuples[0] = np.array([[0.5, 0.25], [-0.5, 0.25], [-0.5, -0.75]])[:k]
    ys[0, 0] = [1.5, 0.25]  # exactly 1 from the first point, farther from the rest
    ys[1, :k] = tuples[1]
    region, valid = nbhd.build(tuples, 1.0, E2)
    assert valid.all()
    counts = np.count_nonzero(region.contains_many(ys), axis=1)
    if kind == "balls":  # the balls come from the tuples themselves
        assert np.array_equal(region.centers, tuples) and np.all(region.radii == 1.0)
    brute = [
        sum(region_contains(y, region.centers[i], region.radii[i], kind == "balls", False) for y in ys[i])
        for i in range(len(ys))
    ]
    assert list(counts) == brute
    if kind == "balls":
        assert counts[0] >= 1  # closed balls keep the point at distance exactly 1
    else:
        assert counts[0] == 0  # outside the circumball of radius 1/2 around (0, 0.25)


# ---------------------------------------------------------------------------
# invariance validation


@pytest.mark.parametrize(
    "selector", ["clique:2", "clique:3", "subgraph:3:0-1,1-2", "morse:1"]
)
def test_builtins_pass_validation(selector):
    report = validate_functional(from_selector(selector), E2, trials=1000, seed=3)
    assert report.ok, report
    assert report.feasible_fraction > 0.0


def test_validation_flags_scale_violation():
    bad = LocalFunctional(
        name="bad-scale",
        k=2,
        r_max=1.0,
        xi_sup=10.0,
        batch=lambda pts, r, metric: (metric.pairwise_batch(pts, ([0], [1]))[:, 0] <= 0.7).astype(float),
    )
    report = validate_functional(bad, E2, trials=500, seed=4)
    assert report.scale_violations > 0


def test_validation_flags_locality_violation():
    bad = LocalFunctional(
        name="bad-local", k=2, r_max=1.0, xi_sup=1.0,
        batch=lambda pts, r, metric: np.ones(len(pts)),
    )
    report = validate_functional(bad, E2, trials=500, seed=5)
    assert report.locality_violations > 0


def test_validation_flags_bound_violation():
    bad = LocalFunctional(
        name="bad-bound", k=1, r_max=1.0, xi_sup=0.5,
        batch=lambda pts, r, metric: np.ones(len(pts)),
    )
    report = validate_functional(bad, E2, trials=100, seed=6)
    assert report.bound_violations > 0
