"""Tests for the covariance-mixture theory module.

Monte Carlo estimators are confronted with closed forms where they exist
and with frozen outputs of the deterministic quadrature in ``oracles.py``
otherwise (rerun those with ``BDGEOM_RUN_ORACLES=1``).
"""
import math
import os

import numpy as np
import pytest

from bdgeom import theory
from bdgeom.functionals import (
    ConfigError,
    NeighborhoodMap,
    make_clique,
    make_morse,
    make_subgraph,
    pair_volumes,
)
from bdgeom.geometry import Metric
from bdgeom.process import Density
from bdgeom.theory import (
    HARMONIC_GROUPS,
    CovarianceModel,
    TruncationError,
    _exclusive_harmonics,
    _normalize_weights,
    _shared_tuples,
    exclusive_mixture_model,
    mixture_model,
    rate_integral,
    simulate_ou_superposition,
    unit_ball_volume,
)
from oracles import region_contains

UNIFORM2 = Density("uniform", 2)

# frozen output of oracles.vacancy_rate_kappa_edges_j1_m1 (64/48/48/1024
# nodes); the band is the coarse-vs-fine quadrature gap
KAPPA_EDGES_J1_M1 = 0.00575949
KAPPA_BAND = 5.13e-8


# -- small helpers ------------------------------------------------------------


def test_unit_ball_volume():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


# -- scale-free rate integrals ---------------------------------------------------


def test_rate_integral_closed_forms():
    f = make_clique(2)
    est1 = rate_integral(f, UNIFORM2, shared=1)
    est2 = rate_integral(f, UNIFORM2, shared=2)
    assert est1.method == "closed-form" and est1.std_error == 0.0
    assert est1.value == pytest.approx(math.pi**2, rel=1e-14)
    assert est2.value == pytest.approx(math.pi, rel=1e-14)
    one_d = rate_integral(f, Density("uniform", 1), shared=1)
    assert one_d.value == pytest.approx(4.0, rel=1e-14)


def test_rate_integral_monte_carlo_agrees():
    f = make_clique(2)
    for shared, exact in ((1, math.pi**2), (2, math.pi)):
        est = rate_integral(
            f, UNIFORM2, shared, budget=100_000, seed=5, method="monte-carlo"
        )
        # the proposal ball fills the pair support, so the estimate is exact
        assert est.value == pytest.approx(exact, rel=1e-12)
        assert est.std_error == 0.0
    # 1d triples, fully shared: the overlap region {|y1|, |y2|, |y1-y2| <= 1}
    # has area 3, and here the indicator genuinely fluctuates
    est = rate_integral(
        make_clique(3), Density("uniform", 1), shared=3,
        budget=100_000, seed=5, method="monte-carlo",
    )
    assert est.std_error > 0
    assert abs(est.value - 3.0) < 4.0 * est.std_error


def test_rate_integral_validation():
    with pytest.raises(ValueError):
        rate_integral(make_clique(2), UNIFORM2, shared=0)
    with pytest.raises(ConfigError):
        rate_integral(make_clique(3), UNIFORM2, shared=1, method="closed-form")


@pytest.mark.parametrize("budget", [0, 1, -3])
def test_plain_budget_below_two_is_rejected(budget):
    # one draw has no standard error, none has no mean, and a negative one no array
    for build in (
        lambda: rate_integral(make_clique(3), UNIFORM2, 1, budget=budget),
        lambda: rate_integral(make_clique(2), UNIFORM2, 1, budget=budget),
        lambda: mixture_model(make_clique(3), UNIFORM2, gamma=1.0, budget=budget),
    ):
        with pytest.raises(ConfigError, match="budget must be at least 2"):
            build()


def plain_pair_scores(functional, first, second, shared, metric):
    """The plain estimator: both tuples scored on every row."""
    return functional.batch(first, 1.0, metric) * functional.batch(second, 1.0, metric)


@pytest.mark.parametrize(
    "functional, kind",
    [(make_clique(3), "balls"), (make_subgraph(3, [(0, 1), (1, 2)]), "balls"), (make_morse(1), "circumball")],
    ids=["clique3", "path3", "morse1"],
)
def test_second_tuple_scoring_matches_the_plain_estimator_bitwise(functional, kind, monkeypatch):
    # _pair_scores scores the second tuple only where the first counts, and
    # reuses the first's scores when every point is shared
    nbhd = NeighborhoodMap(kind)
    metric = Metric("euclidean", 2)

    def estimates(shared):
        out = list(_exclusive_harmonics(functional, nbhd, UNIFORM2, 1.3, shared, 4, budget=2_000, seed=shared))
        if shared:
            out.append(rate_integral(functional, UNIFORM2, shared, budget=2_000, seed=shared, method="monte-carlo"))
        return out

    for shared in range(functional.k + 1):
        rng = np.random.default_rng(shared)
        first, second, _ = _shared_tuples(functional, 2, shared, 2_000, rng, free_anchor_radius=1.0)
        want = plain_pair_scores(functional, first, second, shared, metric)
        assert np.array_equal(theory._pair_scores(functional, first, second, shared, metric), want)
        fast = estimates(shared)
        with monkeypatch.context() as patch:
            patch.setattr(theory, "_pair_scores", plain_pair_scores)
            plain = estimates(shared)
        for got, ref in zip(fast[:2], plain[:2]):
            assert np.array_equal(got, ref)
        assert fast[2:] == plain[2:]


# -- plain mixture model ---------------------------------------------------------


def test_plain_mixture_weights_closed_form():
    model = mixture_model(make_clique(2), UNIFORM2, gamma=1.0)
    # raw weights pi^2 and pi/2 normalize to pi/(pi + 1/2), (1/2)/(pi + 1/2)
    w1 = math.pi / (math.pi + 0.5)
    assert model.rates == [1, 2]
    assert model.weights[0] == pytest.approx(w1, rel=1e-13)
    assert model.weights[1] == pytest.approx(1.0 - w1, rel=1e-13)
    assert np.all(model.weight_errors == 0.0)
    assert model.curve(0.0)[0] == pytest.approx(1.0, rel=1e-13)
    expected = w1 / math.e + (1.0 - w1) / math.e**2
    assert model.curve(1.0)[0] == pytest.approx(expected, rel=1e-13)
    assert model.curve(1.0)[0] == pytest.approx(0.33595053, abs=1e-7)


def test_plain_mixture_regime_limits():
    # fast joint renewal dominates when points are dense, slow when sparse
    w1 = lambda g: math.pi / (math.pi + 1.0 / (2.0 * g))
    dense = mixture_model(make_clique(2), UNIFORM2, gamma=1000.0)
    sparse = mixture_model(make_clique(2), UNIFORM2, gamma=0.001)
    assert dense.weights[0] == pytest.approx(w1(1000.0), rel=1e-12)
    assert dense.weights[0] > 0.999
    assert sparse.weights[1] == pytest.approx(1.0 - w1(0.001), rel=1e-12)
    assert sparse.weights[1] > 0.99


def test_plain_mixture_monte_carlo_triangles():
    model = mixture_model(make_clique(3), UNIFORM2, gamma=1.0, budget=40_000, seed=6)
    assert model.rates == [1, 2, 3]
    assert np.all(model.weights > 0)
    assert model.weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.isfinite(model.weight_errors))
    curve = model.curve([0.0, 0.5, 1.0, 2.0])
    assert np.all(np.diff(curve) < 0)


def test_plain_mixture_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        mixture_model(make_clique(2), UNIFORM2, gamma=0.0)


def test_normalize_weights_tells_a_zero_sum_from_a_negative_one():
    weights, errs = _normalize_weights(np.array([1.0, 3.0]), np.diag([0.04, 0.0]))
    assert weights.tolist() == [0.25, 0.75]
    assert errs == pytest.approx([0.0375, 0.0375])
    with pytest.raises(ConfigError, match="all mixture weights are zero"):
        _normalize_weights(np.zeros(3), np.eye(3))
    with pytest.raises(ConfigError, match=r"sum to -13\.5 < 0: the estimate is too noisy at this budget"):
        _normalize_weights(np.array([-15.0, 1.0, 0.5]), np.eye(3))


# -- vacancy-weighted integrals ---------------------------------------------------
#
# Without cross exclusion the harmonic column of power p is the
# vacancy-weighted integral of (q * vol(A & B))**p times gamma**p / p!.


def column_estimates(group_means):
    """Each harmonic column's mean and batch-means standard error."""
    means = group_means.mean(axis=0)
    # shifted by one group, so a column equal in every group reads exactly 0
    errs = (group_means - group_means[0]).std(axis=0, ddof=1) / math.sqrt(len(group_means))
    return means, errs


def vacancy_columns(f, gamma, shared, max_power, **kwargs):
    signed, absed = _exclusive_harmonics(
        f, NeighborhoodMap("balls"), UNIFORM2, gamma, shared, max_power,
        cross_exclusion=False, **kwargs,
    )
    assert np.array_equal(signed.mean(axis=0), absed.mean(axis=0))
    return signed


def test_vacancy_integral_matches_quadrature_oracle():
    means, errs = column_estimates(vacancy_columns(
        make_clique(2), 1.0, shared=1, max_power=1, budget=6_000, vol_samples=3_000, seed=2
    ))
    tol = 3.0 * errs[1] + 0.01 * KAPPA_EDGES_J1_M1 + KAPPA_BAND
    assert abs(means[1] - KAPPA_EDGES_J1_M1) < tol


def test_vacancy_integral_fully_shared_power_zero():
    # j = k = 1 with ball regions: every sample contributes e^(-2 gamma pi)
    gamma = 0.8
    means, errs = column_estimates(vacancy_columns(
        make_clique(1), gamma, shared=1, max_power=0, budget=400, vol_samples=20_000, seed=3
    ))
    exact = math.exp(-2.0 * gamma * math.pi)
    assert abs(means[0] - exact) < 4.0 * errs[0] + 1e-3


def test_vacancy_batch_shared_zero_column():
    cols = vacancy_columns(
        make_clique(2), 1.0, shared=0, max_power=2, budget=4_000, vol_samples=1_000, seed=4
    )
    means, errs = column_estimates(cols)
    assert np.all(cols[:, 0] == 0.0)
    assert means[1] > 0
    assert means[1] > 2.0 * errs[1]


def test_harmonics_compute_volumes_in_one_stacked_call(monkeypatch):
    from bdgeom import theory

    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return theory_pair_volumes(*args)

    theory_pair_volumes = theory.pair_volumes
    monkeypatch.setattr(theory, "pair_volumes", counted)
    _exclusive_harmonics(make_clique(3), NeighborhoodMap("balls"), UNIFORM2, 1.0, 1, 4, budget=800)
    assert len(calls) == 1 and calls[0] > 1


def test_isolated_point_fully_shared_column_is_exact():
    # j = k = 1: A = B is one unit disc, so every draw gives e^(-2 g pi) (g pi)^p / p!
    gamma = 0.8
    signed, absed = _exclusive_harmonics(
        make_clique(1), NeighborhoodMap("balls"), UNIFORM2, gamma, 1, 6, budget=400, seed=3
    )
    means, errs = column_estimates(signed)
    dom_means, _ = column_estimates(absed)
    for p in range(7):
        exact = math.exp(-2.0 * gamma * math.pi) * (gamma * math.pi) ** p / math.factorial(p)
        assert means[p] == pytest.approx(exact, rel=0, abs=1e-12)
        assert errs[p] == 0.0 and dom_means[p] == means[p]


@pytest.mark.parametrize("shared", [0, 1, 2])
@pytest.mark.parametrize("kind", ["balls", "circumball"])
def test_stacked_harmonics_match_a_per_row_loop(kind, shared):
    # reference: one tuple pair at a time, regions from build, intruders from
    # the brute-force containment oracle, and the (1 -+ s)**W product by np.convolve
    f = make_clique(2) if kind == "balls" else make_morse(1)
    nbhd = NeighborhoodMap(kind)
    gamma, max_power, budget, seed = 1.3, 5, 400, 7
    signed, absed = _exclusive_harmonics(
        f, nbhd, UNIFORM2, gamma, shared, max_power, budget, seed=seed
    )
    rng = np.random.default_rng(seed)
    first, second, volume = _shared_tuples(
        f, 2, shared, budget, rng, free_anchor_radius=2.0 * nbhd.reach_scale1(f)
    )
    metric = Metric("euclidean", 2)
    vals = f.batch(first, 1.0, metric) * f.batch(second, 1.0, metric)
    want_signed = np.zeros((budget, max_power + 1))
    want_absed = np.zeros((budget, max_power + 1))
    for i in np.nonzero(vals)[0]:
        region_a, _ = nbhd.build(first[i][None], 1.0, metric)
        region_b, _ = nbhd.build(second[i][None], 1.0, metric)
        vols = pair_volumes(region_a.centers, region_a.radii, region_b.centers, region_b.radii, 1, rng)
        vol_a, vol_b, vol_ab = (float(v[0]) for v in vols)
        base = vals[i] * volume * math.exp(-gamma * (vol_a + vol_b))
        exp_coef = np.array([(gamma * vol_ab) ** p / math.factorial(p) for p in range(max_power + 1)])
        w = sum(
            region_contains(y, region.centers[0], region.radii[0], kind == "balls", False)
            for region, ys in ((region_a, second[i, shared:]), (region_b, first[i, : f.k - shared]))
            for y in ys
        )
        binom = np.array([math.comb(w, n) for n in range(w + 1)], dtype=float)
        alt = binom * (-1.0) ** np.arange(w + 1)
        want_signed[i] = base * np.convolve(exp_coef, alt)[: max_power + 1]
        want_absed[i] = base * np.convolve(exp_coef, binom)[: max_power + 1]
    for got, want in ((signed, want_signed), (absed, want_absed)):
        means, _ = column_estimates(got)
        for p in range(max_power + 1):
            if shared == 0 and p == 0:
                assert np.all(got[:, 0] == 0.0)
                continue
            assert means[p] == pytest.approx(want[:, p].mean(), rel=1e-10, abs=1e-14)


def test_vacancy_integral_validation():
    f = make_clique(2)
    nb = NeighborhoodMap("balls")
    signed, absed = _exclusive_harmonics(f, nb, UNIFORM2, 1.0, 0, 0, budget=10)
    assert signed.shape == absed.shape == (HARMONIC_GROUPS, 1)
    assert np.all(signed == 0.0) and np.all(absed == 0.0)
    with pytest.raises(ValueError):
        _exclusive_harmonics(f, nb, UNIFORM2, 1.0, shared=3, max_power=1, budget=10)


# -- exclusive mixture model -----------------------------------------------------


def test_exclusive_mixture_basicisolated_points():
    model = exclusive_mixture_model(
        make_clique(1),
        NeighborhoodMap("balls"),
        UNIFORM2,
        gamma=1.0,
        budget=4_000,
        vol_samples=1_000,
        max_rate=12,
        tail_tol=1e-2,
        seed=0,
    )
    assert model.kind == "exclusive"
    assert model.rates == list(range(1, 13))
    assert model.weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert model.curve(0.0)[0] == pytest.approx(1.0, rel=1e-12)


def test_cross_exclusion_changes_the_model():
    kwargs = dict(
        gamma=1.0, budget=4_000, vol_samples=1_000, max_rate=16, tail_tol=5e-2, seed=0
    )
    f = make_clique(2)
    nb = NeighborhoodMap("balls")
    corrected = exclusive_mixture_model(f, nb, UNIFORM2, **kwargs)
    background = exclusive_mixture_model(
        f, nb, UNIFORM2, cross_exclusion=False, **kwargs
    )
    assert not np.allclose(corrected.weights, background.weights, atol=1e-3)
    # mutual exclusion steepens the curve: less weight on the slowest rate
    assert corrected.weights[0] < background.weights[0]


def test_exclusive_mixture_truncation_error():
    with pytest.raises(TruncationError):
        exclusive_mixture_model(
            make_clique(3),
            NeighborhoodMap("balls"),
            UNIFORM2,
            gamma=1.0,
            budget=1_500,
            vol_samples=400,
            max_rate=8,
            tail_tol=1e-12,
            seed=1,
        )


def test_exclusive_mixture_tail_check_needs_a_contracting_cutoff():
    # j = 0 with cross exclusion: cutoff 3 and intruder bound 4 leave the
    # contraction ratio's denominator at 0, which must not be divided by
    with pytest.raises(TruncationError, match="does not contract"):
        exclusive_mixture_model(
            make_clique(2), NeighborhoodMap("balls"), UNIFORM2, gamma=1.0,
            budget=400, max_rate=3,
        )


@pytest.mark.parametrize("max_rate", [-2, 0, 2])
def test_exclusive_mixture_rejects_max_rate_below_k(max_rate):
    with pytest.raises(ConfigError, match="max_rate"):
        exclusive_mixture_model(
            make_clique(3), NeighborhoodMap("balls"), UNIFORM2, gamma=1.0,
            budget=100, max_rate=max_rate,
        )


def test_single_rate_exclusive_model_has_exact_weight():
    model = exclusive_mixture_model(
        make_clique(1), NeighborhoodMap("balls"), UNIFORM2, gamma=0.01,
        budget=400, max_rate=1, tail_tol=1.0, cross_exclusion=False,
    )
    assert model.weights.tolist() == [1.0] and model.weight_errors.tolist() == [0.0]


def test_exclusive_weight_errors_match_the_spread_across_seeds():
    # isolated points: the reported errors must describe the seed-to-seed
    # spread of the weights, which share their draws across rates
    builds = [
        exclusive_mixture_model(
            make_clique(1), NeighborhoodMap("balls"), UNIFORM2, gamma=1.0,
            budget=2_000, vol_samples=8_000, max_rate=20, tail_tol=1e-3, seed=seed,
        )
        for seed in range(200)
    ]
    weights = np.array([m.weights[:10] for m in builds])
    errors = np.array([m.weight_errors[:10] for m in builds])
    ratio = weights.std(axis=0, ddof=1) / np.sqrt(np.mean(errors**2, axis=0))
    assert np.all((ratio >= 0.8) & (ratio <= 1.25)), ratio


def test_exclusive_mixture_rejects_bad_gamma():
    with pytest.raises(ConfigError):
        exclusive_mixture_model(
            make_clique(2), NeighborhoodMap("balls"), UNIFORM2, gamma=-1.0, budget=100
        )


# -- covariance model object -----------------------------------------------------


def make_toy_model():
    return CovarianceModel(
        kind="plain",
        functional="clique:2",
        gamma=1.0,
        k=2,
        rates=[1, 2],
        weights=np.array([0.75, 0.25]),
        weight_errors=np.array([0.01, 0.01]),
    )


def test_model_round_trip(tmp_path):
    model = make_toy_model()
    again = CovarianceModel.from_dict(model.to_dict())
    assert again.rates == model.rates
    assert np.array_equal(again.weights, model.weights)
    path = tmp_path / "model.json"
    model.save(str(path))
    loaded = CovarianceModel.load(str(path))
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.kind == "plain" and loaded.k == 2


def test_exclusive_model_records_its_tail_ratio(tmp_path):
    model = exclusive_mixture_model(
        make_clique(1), NeighborhoodMap("balls"), UNIFORM2, gamma=1.0,
        budget=400, max_rate=12, tail_tol=1e-2, seed=0,
    )
    assert 0.0 < model.tail_ratio <= 1e-2
    path = tmp_path / "model.json"
    model.save(str(path))
    assert CovarianceModel.load(str(path)).tail_ratio == model.tail_ratio
    plain = make_toy_model()
    assert plain.tail_ratio is None
    assert CovarianceModel.from_dict(plain.to_dict()).tail_ratio is None


def test_model_curve_properties():
    model = make_toy_model()
    assert model.curve(0.0)[0] == pytest.approx(1.0, rel=1e-14)
    assert model.curve(-1.5)[0] == model.curve(1.5)[0]
    grid = model.curve(np.linspace(0.0, 3.0, 13))
    assert np.all(np.diff(grid) < 0)
    assert np.allclose(model.amplitudes() ** 2, model.weights)


# -- OU superposition sampler ----------------------------------------------------


def test_ou_single_rate_covariance():
    model = CovarianceModel(
        kind="plain", functional="clique:2", gamma=1.0, k=2,
        rates=[2], weights=np.array([1.0]), weight_errors=np.array([0.0]),
    )
    times = np.linspace(0.0, 1.0, 11)
    paths = simulate_ou_superposition(model, times, seed=8, n_paths=20_000)
    assert paths.shape == (20_000, 11)
    assert np.var(paths[:, 0]) == pytest.approx(1.0, abs=0.03)
    corr = np.corrcoef(paths[:, 0], paths[:, 5])[0, 1]
    assert corr == pytest.approx(math.exp(-2.0 * 0.5), abs=0.02)


def test_ou_superposition_covariance():
    model = CovarianceModel(
        kind="plain", functional="clique:2", gamma=1.0, k=2,
        rates=[1, 3], weights=np.array([0.5, 0.5]), weight_errors=np.zeros(2),
    )
    times = np.array([0.0, 0.3])
    paths = simulate_ou_superposition(model, times, seed=9, n_paths=30_000)
    target = 0.5 * math.exp(-0.3) + 0.5 * math.exp(-0.9)
    cov = np.mean(paths[:, 0] * paths[:, 1])
    assert cov == pytest.approx(target, abs=0.03)


def test_ou_deterministic_and_validated():
    model = make_toy_model()
    times = [0.0, 0.5, 1.0]
    a = simulate_ou_superposition(model, times, seed=10, n_paths=3)
    b = simulate_ou_superposition(model, times, seed=10, n_paths=3)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        simulate_ou_superposition(model, [0.0, 0.0, 1.0], seed=0)


# -- oracle regeneration (slow; opt-in) -------------------------------------------


@pytest.mark.skipif(
    os.environ.get("BDGEOM_RUN_ORACLES") != "1",
    reason="slow deterministic quadrature; set BDGEOM_RUN_ORACLES=1 to rerun",
)
def test_oracle_quadrature_reproduces_frozen_value():
    from oracles import vacancy_rate_kappa_edges_j1_m1

    fine = vacancy_rate_kappa_edges_j1_m1(64, 48, 48, 1024)
    assert fine == pytest.approx(KAPPA_EDGES_J1_M1, abs=1e-7)
