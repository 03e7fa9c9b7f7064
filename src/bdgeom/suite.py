"""Acceptance battery: every promise the package makes, as a runnable check.

Each check returns a ``CheckResult`` carrying the observed value, the
tolerance it is held to, and a verdict.  The battery is deterministic: every
check fixes its own seed, so reruns produce identical numbers.  Checks are
independent and can run in any order (or in parallel via ``run_all``).
"""
from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy import stats

from .functionals import LocalFunctional, NeighborhoodMap, make_clique, make_morse, make_subgraph
from .process import (
    Configuration,
    Density,
    SimulationConfig,
    _marked_draw,
    alive_count_path,
    sample_stationary,
    simulate_events,
)
from .statistics import SubsetTracker, count_pairs_within, evaluate_statistic, replay
from .theory import CovarianceModel, exclusive_mixture_model, mixture_model, simulate_ou_superposition
from .verify import (
    IntersectionPattern,
    estimate_covariance,
    euler_characteristic,
    kolmogorov_distance,
    mecke_check,
    poisson_chi_square,
)


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    observed: float
    threshold: float
    detail: str
    seconds: float
    # diagnostics of the check's inputs, such as its model's tail ratio
    metrics: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "FAIL"

    def line(self) -> str:
        return (
            f"[{self.verdict}] {self.index:02d} {self.name}: "
            f"observed={self.observed:.6g} threshold={self.threshold:.6g} "
            f"({self.detail}; {self.seconds:.1f}s)"
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "pass": self.passed,
            "observed": self.observed,
            "threshold": self.threshold,
            "detail": self.detail,
            "seconds": round(self.seconds, 2),
            **({"metrics": self.metrics} if self.metrics else {}),
        }


def _timed(index: int, name: str, fn) -> CheckResult:
    """Run a check body returning ``(passed, observed, threshold, detail)``,
    optionally followed by a ``metrics`` dict."""
    start = time.perf_counter()
    passed, observed, threshold, detail, *metrics = fn()
    seconds = time.perf_counter() - start
    return CheckResult(index, name, passed, observed, threshold, detail, seconds, *metrics)


def _uniform_config(n: float, horizon: float, gamma: Optional[float] = None, seed: int = 0) -> SimulationConfig:
    return SimulationConfig(
        n=n, dim=2, horizon=horizon, density=Density("uniform", 2), seed=seed, gamma=gamma
    )


def _marked_arrays(config: SimulationConfig, rep: int) -> tuple[NDArray, NDArray, NDArray]:
    """Positions, births and death times of replication ``rep``'s marked draw."""
    pos, births, lifetimes = _marked_draw(config, config.rng(rep))
    return pos, births, births + lifetimes


def _slice_value_matrix(
    config: SimulationConfig,
    reps: int,
    times: NDArray,
    value_of: Callable[[NDArray], float],
) -> NDArray:
    """Statistic values on a time grid for ``reps`` stationary evolutions.

    Uses the one-shot marked construction (points alive on ``[0, horizon]``
    with birth/lifetime marks) and slices it at each grid time; the law of
    each slice path matches the event-driven engine, which the battery
    verifies separately (cross-sampler and incremental checks).
    """
    out = np.zeros((reps, len(times)))
    for rep in range(reps):
        pos, births, ends = _marked_arrays(config, rep)
        for i, t in enumerate(times):
            mask = (births <= t) & (t < ends)
            out[rep, i] = value_of(pos[mask])
    return out


# ---------------------------------------------------------------------------
# 1. stationarity


def check_stationarity(seed: int = 0) -> CheckResult:
    """Alive counts stay Poisson(n) through time under the event engine."""

    def body():
        n, horizon, reps = 200.0, 5.0, 2000
        probe = [0.0, 2.5, 5.0]
        config = _uniform_config(n, horizon, seed=seed)
        counts = np.zeros((len(probe), reps), dtype=int)
        for rep in range(reps):
            rng = config.rng(rep)
            initial = sample_stationary(config, rng)
            stream = simulate_events(config, initial, rng)
            counts[:, rep] = alive_count_path(stream, probe)
        pvals = [poisson_chi_square(counts[i], n)[1] for i in range(len(probe))]
        detail = "chi-square p at t=0,2.5,5: " + ", ".join(f"{p:.3f}" for p in pvals)
        return min(pvals) > 0.01, min(pvals), 0.01, detail + " (need all > 0.01)"

    return _timed(1, "stationarity", body)


# ---------------------------------------------------------------------------
# 2. cross-sampler equivalence


def check_cross_sampler(seed: int = 0) -> CheckResult:
    """Edge counts at t=1 agree in law between the two samplers."""

    def body():
        n, horizon, reps, t_probe = 100.0, 2.0, 2000, 1.0
        config = _uniform_config(n, horizon, gamma=1.0, seed=seed)
        r = config.interaction_radius
        metric = config.metric
        event_counts = np.zeros(reps)
        for rep in range(reps):
            rng = config.rng(rep)
            state = sample_stationary(config, rng)
            stream = simulate_events(config, state, rng)
            for event in stream.events:
                if event.time > t_probe:
                    break
                state.apply_event(event)
            event_counts[rep] = count_pairs_within(state.positions_array(), r, metric)
        marked_counts = np.zeros(reps)
        for rep in range(reps):
            pos, births, ends = _marked_arrays(config, reps + rep)
            mask = (births <= t_probe) & (t_probe < ends)
            marked_counts[rep] = count_pairs_within(pos[mask], r, metric)
        pvalue = float(stats.ks_2samp(event_counts, marked_counts).pvalue)
        detail = (
            f"two-sample KS p={pvalue:.3f}; means {event_counts.mean():.2f} vs "
            f"{marked_counts.mean():.2f}"
        )
        return pvalue > 0.01, pvalue, 0.01, detail

    return _timed(2, "cross-sampler", body)


# ---------------------------------------------------------------------------
# 3. mark probabilities


def check_mark_probabilities(seed: int = 0) -> CheckResult:
    """Alive-at-0 / alive-at-delta / alive-at-both fractions of the marked
    construction match 1/(1+T), 1/(1+T), exp(-delta)/(1+T)."""

    def body():
        horizon = 2.0
        config = _uniform_config(60000.0, horizon, seed=seed)
        _, births, ends = _marked_arrays(config, 0)
        total = len(births)
        cases = [("P[alive at 0]", (births <= 0.0) & (0.0 < ends), 1.0 / (1.0 + horizon))]
        for delta in (0.5, 1.0):
            alive_d = (births <= delta) & (delta < ends)
            cases.append((f"P[alive at {delta}]", alive_d, 1.0 / (1.0 + horizon)))
            both = ((births <= 0.0) & (0.0 < ends)) & alive_d
            cases.append(
                (f"P[alive at 0 and {delta}]", both, math.exp(-delta) / (1.0 + horizon))
            )
        worst = 0.0
        parts = []
        for name, indicator, target in cases:
            phat = float(indicator.mean())
            se = float(indicator.std(ddof=1)) / math.sqrt(total)
            z = abs(phat - target) / se
            worst = max(worst, z)
            parts.append(f"{name}: {phat:.4f} vs {target:.4f} (z={z:.2f})")
        return worst <= 3.0, worst, 3.0, "; ".join(parts)

    return _timed(3, "mark-probabilities", body)


# ---------------------------------------------------------------------------
# 4. mean formula


def check_mean_formula(seed: int = 0) -> CheckResult:
    """Stationary mean edge count matches n^2 pi r^2 / 2 = 39.27."""

    def body():
        n, r, reps, target = 100.0, 0.05, 5000, 39.27
        config = _uniform_config(n, 0.0, seed=seed)
        metric = config.metric
        counts = np.zeros(reps)
        for rep in range(reps):
            state = sample_stationary(config, config.rng(rep))
            counts[rep] = count_pairs_within(state.positions_array(), r, metric)
        se = float(counts.std(ddof=1)) / math.sqrt(reps)
        z = abs(float(counts.mean()) - target) / se
        detail = f"mean={counts.mean():.3f} vs {target} (se={se:.3f}, z={z:.2f})"
        return z <= 3.0, z, 3.0, detail

    return _timed(4, "mean-formula", body)


# ---------------------------------------------------------------------------
# 5. plain covariance convergence


def check_covariance_plain(seed: int = 0) -> CheckResult:
    """Normalized edge-count covariance matches the two-rate limit mixture."""

    def body():
        n, horizon, reps = 1000.0, 16.0, 200
        lags = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
        config = _uniform_config(n, horizon, gamma=1.0, seed=seed)
        r = config.interaction_radius
        metric = config.metric
        times = np.arange(0.0, horizon + 1e-9, 0.25)
        matrix = _slice_value_matrix(
            config, reps, times, lambda pts: count_pairs_within(pts, r, metric)
        )
        est = estimate_covariance((times, matrix), lags)
        reference = 0.86267 * np.exp(-lags) + 0.13733 * np.exp(-2.0 * lags)
        gap = float(np.max(np.abs(est.values - reference)))
        pairs = ", ".join(
            f"d={lag:g}: {v:.3f}/{t:.3f}" for lag, v, t in zip(lags, est.values, reference)
        )
        return gap <= 0.05, gap, 0.05, f"max |empirical - limit| over lags; {pairs}"

    return _timed(5, "covariance-plain", body)


# ---------------------------------------------------------------------------
# 6. gaussianity trend


def check_gaussianity(seed: int = 0) -> CheckResult:
    """Kolmogorov distance of standardized edge counts shrinks with n."""

    def body():
        reps = 2000

        def dk(n: float) -> float:
            config = _uniform_config(n, 0.0, gamma=1.0, seed=seed)
            r = config.interaction_radius
            metric = config.metric
            counts = np.zeros(reps)
            for rep in range(reps):
                state = sample_stationary(config, config.rng(rep))
                counts[rep] = count_pairs_within(state.positions_array(), r, metric)
            z = (counts - counts.mean()) / counts.std(ddof=1)
            return kolmogorov_distance(z)

        d_small, d_large = dk(100.0), dk(1000.0)
        detail = f"d_K(n=100)={d_small:.4f}, d_K(n=1000)={d_large:.4f}"
        passed = d_large < d_small and d_large < 0.05
        return passed, d_large, 0.05, detail + " (need decrease and < 0.05)"

    return _timed(6, "gaussianity-trend", body)


# ---------------------------------------------------------------------------
# 7. exclusive covariance convergence


def check_covariance_exclusive(seed: int = 0) -> CheckResult:
    """Normalized covariance of isolated-triangle counts matches the
    truncated exclusive mixture (rates 1..20)."""

    def body():
        n, horizon, reps = 1000.0, 8.0, 200
        lags = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
        functional = make_clique(3)
        nbhd = NeighborhoodMap("balls")
        density = Density("uniform", 2)
        # tail_tol relaxed from the 1e-8 default: cross-exclusion cancels most
        # of the raw series mass (retained ~7e-3), so with rates capped at 20
        # the certified tail is ~3e-4 of retained mass and cannot reach 1e-8.
        # 3e-4 of curve mass is far below the 0.07 comparison tolerance.
        model = exclusive_mixture_model(
            functional,
            nbhd,
            density,
            gamma=1.0,
            budget=20_000,
            vol_samples=8_000,
            max_rate=20,
            tail_tol=1e-3,
            seed=seed,
        )
        config = _uniform_config(n, horizon, gamma=1.0, seed=seed)
        r = config.interaction_radius
        metric = config.metric
        times = np.arange(0.0, horizon + 1e-9, 0.25)

        def value_of(pts: NDArray) -> float:
            state = Configuration.from_points(pts, metric)
            return evaluate_statistic(state, functional, r, nbhd)

        matrix = _slice_value_matrix(config, reps, times, value_of)
        est = estimate_covariance((times, matrix), lags)
        reference = model.curve(lags)
        gap = float(np.max(np.abs(est.values - reference)))
        pairs = ", ".join(
            f"d={lag:g}: {v:.3f}/{t:.3f}" for lag, v, t in zip(lags, est.values, reference)
        )
        detail = f"max |empirical - truncated mixture|; {pairs}"
        return gap <= 0.07, gap, 0.07, detail, {"tail_ratio": model.tail_ratio}

    return _timed(7, "covariance-exclusive", body)


# ---------------------------------------------------------------------------
# 8. moment-identity oracle battery


def _battery_cases() -> list[dict]:
    d2 = Density("uniform", 2)
    d1 = Density("uniform", 1)
    m2 = d2.metric
    r_edge = 0.3

    def edge2(pairs: NDArray) -> NDArray:
        return (m2.pairwise_batch(pairs, ([0], [1]))[:, 0] <= r_edge).astype(float)

    def tri(triples: NDArray) -> NDArray:
        return np.all(m2.pairwise_batch(triples, np.triu_indices(3, 1)) <= 0.45, axis=1).astype(float)

    def crowd(x: NDArray, allpts: NDArray, radius: float) -> NDArray:
        delta = m2.displacement(allpts[None], x[:, None])
        return np.count_nonzero(np.sqrt(np.sum(delta * delta, axis=2)) <= radius, axis=1)

    return [
        dict(name="count-single", pattern={(1,): 1}, n=9.0, density=d2, budget=200,
             h=lambda s, a: np.ones(len(s[0]))),
        dict(name="count-pair-1d", pattern={(1,): 2}, n=9.0, density=d1, budget=200,
             h=lambda s, a: np.ones(len(s[0]))),
        dict(name="edge-pair", pattern={(1,): 2}, n=8.0, density=d2, budget=300,
             h=lambda s, a: edge2(s[0])),
        dict(name="triangle", pattern={(1,): 3}, n=7.0, density=d2, budget=300,
             h=lambda s, a: tri(s[0])),
        dict(name="cross-edge", pattern={(1,): 1, (2,): 1}, n=8.0, density=d2, budget=300,
             h=lambda s, a: edge2(np.concatenate(s, axis=1))),
        dict(name="shared-weight", pattern={(1, 2): 1}, n=9.0, density=d2, budget=200,
             h=lambda s, a: s[0][:, 0, 0] * (1.0 - s[1][:, 0, 0])),
        dict(name="shared-edges", pattern={(1, 2): 1, (1,): 1, (2,): 1}, n=7.0, density=d2,
             budget=300, h=lambda s, a: edge2(s[0]) * edge2(s[1])),
        dict(name="block-mixed", pattern={(1,): 2, (2,): 1}, n=8.0, density=d2, budget=300,
             h=lambda s, a: edge2(s[0]) * (s[1][:, 0, 0] < 0.5)),
        dict(name="three-singles", pattern={(1,): 1, (2,): 1, (3,): 1}, n=7.0, density=d2,
             budget=300, h=lambda s, a: tri(np.concatenate(s, axis=1))),
        dict(name="identical-pair", pattern={(1, 2): 2}, n=8.0, density=d2, budget=300,
             h=lambda s, a: edge2(s[1])),
        dict(name="isolation", pattern={(1,): 1}, n=8.0, density=d2, budget=300,
             h=lambda s, a: (crowd(s[0][:, 0], a, 0.25) == 1).astype(float)),
        dict(name="exclusive-edge", pattern={(1,): 2}, n=8.0, density=d2, budget=300,
             h=lambda s, a: edge2(s[0])
             * (crowd(s[0][:, 0], a, r_edge) + crowd(s[0][:, 1], a, r_edge) <= 4)),
    ]


MECKE_PASS_RATE = 0.95  # share of battery cases that must agree


def mecke_battery(seed: int = 0, n_seeds: int = 1) -> tuple[list[tuple], float]:
    """Run the fixed 12-case moment-identity battery on seeds ``seed`` to
    ``seed + n_seeds - 1``.  Returns ``(name, seed, budget, result)`` per
    case and seed, and the share of them that agree."""
    outcomes = []
    for s in range(seed, seed + n_seeds):
        for case in _battery_cases():
            pattern = IntersectionPattern.of(case["pattern"])
            result = mecke_check(case["h"], pattern, case["n"], case["density"], case["budget"], s)
            outcomes.append((case["name"], s, case["budget"], result))
    return outcomes, float(np.mean([result.agree for *_, result in outcomes]))


def check_mecke_battery(seed: int = 0) -> CheckResult:
    """12 identity cases x 5 seeds at the 3-SE criterion, >= 95% pass."""

    def body():
        outcomes, rate = mecke_battery(seed, 5)
        failed = [
            f"{name}@seed{s} (lhs={result.lhs:.3f} rhs={result.rhs:.3f} "
            f"gap={result.gap:.3f} tol={result.tolerance:.3f})"
            for name, s, _, result in outcomes
            if not result.agree
        ]
        detail = f"{len(outcomes) - len(failed)}/{len(outcomes)} cases agree"
        if failed:
            detail += "; failed: " + ", ".join(failed)
        return rate >= MECKE_PASS_RATE, rate, MECKE_PASS_RATE, detail

    return _timed(8, "mecke-battery", body)


# ---------------------------------------------------------------------------
# 9. incremental correctness


def _builtin_pairs() -> list[tuple[LocalFunctional, Optional[NeighborhoodMap]]]:
    pairs: list[tuple[LocalFunctional, Optional[NeighborhoodMap]]] = []
    for functional in (
        make_clique(2),
        make_clique(3),
        make_subgraph(3, [(0, 1), (1, 2)]),
        make_morse(1),
    ):
        pairs.append((functional, None))
        kind = "circumball" if functional.name.startswith("morse") else "balls"
        pairs.append((functional, NeighborhoodMap(kind)))
    return pairs


def check_incremental(seed: int = 0) -> CheckResult:
    """Replayed tracker values equal from-scratch recomputation exactly."""

    def body():
        streams, worst = 10, 0.0
        config = _uniform_config(60.0, 9.0, gamma=0.6, seed=seed)
        r = config.interaction_radius
        metric = config.metric
        probe = np.arange(1.0, 9.5, 1.0)
        pairs = _builtin_pairs()
        total_events = 0
        for rep in range(streams):
            rng = config.rng(rep)
            initial = sample_stationary(config, rng)
            stream = simulate_events(config, initial, rng)
            total_events += len(stream.events)
            base = initial.positions_array()
            tracked_state = Configuration.from_points(base, metric)
            trackers = [
                SubsetTracker(tracked_state, f, r, nbhd) for f, nbhd in pairs
            ]
            tracked = replay(tracked_state, stream, trackers, probe)
            fresh = Configuration.from_points(base, metric)
            recomputed = np.zeros_like(tracked)
            idx = 0
            for event in stream.events:
                while idx < len(probe) and probe[idx] < event.time:
                    for row, (f, nbhd) in enumerate(pairs):
                        recomputed[row, idx] = evaluate_statistic(fresh, f, r, nbhd)
                    idx += 1
                fresh.apply_event(event)
            for row, (f, nbhd) in enumerate(pairs):
                recomputed[row, idx:] = evaluate_statistic(fresh, f, r, nbhd)
            worst = max(worst, float(np.max(np.abs(tracked - recomputed))))
        detail = (
            f"max |replayed - recomputed| over {streams} streams "
            f"({total_events} events), {len(pairs)} functional/mode pairs"
        )
        return worst == 0.0, worst, 0.0, detail

    return _timed(9, "incremental-replay", body)


# ---------------------------------------------------------------------------
# 10. Euler invariant


def check_euler(seed: int = 0) -> CheckResult:
    """Alternating critical-point sum is 1 on 100/100 random configurations."""

    def body():
        rng = np.random.default_rng(seed)
        good = 0
        total = 0
        for dim, reps in ((1, 50), (2, 50)):
            for _ in range(reps):
                m = int(rng.integers(3 + dim, 13 + dim))
                chi = euler_characteristic(rng.random((m, dim)))
                good += chi == 1
                total += 1
        detail = f"{good}/{total} configurations with alternating sum 1 (d=1 and d=2)"
        return good == total, good / total, 1.0, detail

    return _timed(10, "euler-invariant", body)


# ---------------------------------------------------------------------------
# 11. OU reference loop


def check_ou_loop(seed: int = 0) -> CheckResult:
    """Covariance estimator recovers the exact OU-mixture curve within CI."""

    def body():
        model = mixture_model(make_clique(2), Density("uniform", 2), 1.0, method="closed-form")
        times = np.arange(0.0, 12.0 + 1e-9, 0.25)
        lags = np.arange(0.0, 3.0 + 1e-9, 0.25)
        paths = simulate_ou_superposition(model, times, seed=seed, n_paths=600)
        est = estimate_covariance((times, paths), lags)
        reference = model.curve(lags)
        covered = np.abs(est.values - reference) <= est.half_widths
        coverage = float(covered.mean())
        detail = f"{int(covered.sum())}/{len(lags)} lags inside the 95% CI"
        return coverage >= 0.9, coverage, 0.9, detail

    return _timed(11, "ou-loop", body)


# ---------------------------------------------------------------------------
# 12. regime limits


def check_regime_limits(seed: int = 0) -> CheckResult:
    """Dense regime concentrates weight on rate 1; sparse regime on rate k."""

    def body():
        density = Density("uniform", 2)
        functional = make_clique(2)
        dense = mixture_model(functional, density, 1e3, method="closed-form")
        sparse = mixture_model(functional, density, 1e-3, method="closed-form")
        w_slow = float(dense.weights[0])
        w_fast = float(sparse.weights[-1])
        detail = (
            f"gamma=1e3: weight {w_slow:.5f} on rate 1; "
            f"gamma=1e-3: weight {w_fast:.5f} on rate {sparse.rates[-1]}"
        )
        observed = min(w_slow, w_fast)
        return observed >= 0.99, observed, 0.99, detail

    return _timed(12, "regime-limits", body)


# ---------------------------------------------------------------------------
# runner


CHECKS: dict[str, Callable[..., CheckResult]] = {
    "stationarity": check_stationarity,
    "cross-sampler": check_cross_sampler,
    "mark-probabilities": check_mark_probabilities,
    "mean-formula": check_mean_formula,
    "covariance-plain": check_covariance_plain,
    "gaussianity-trend": check_gaussianity,
    "covariance-exclusive": check_covariance_exclusive,
    "mecke-battery": check_mecke_battery,
    "incremental-replay": check_incremental,
    "euler-invariant": check_euler,
    "ou-loop": check_ou_loop,
    "regime-limits": check_regime_limits,
}


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes worth starting: never more than the tasks or the CPUs."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _run_named(args: tuple[str, int]) -> CheckResult:
    name, seed = args
    return CHECKS[name](seed=seed)


def run_all(
    names: Optional[Sequence[str]] = None,
    seed: int = 0,
    jobs: int = 1,
    progress: Optional[Callable[[CheckResult], None]] = None,
) -> list[CheckResult]:
    """Run the selected checks (all by default) and return their results."""
    selected = list(names) if names is not None else list(CHECKS)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    workers = worker_count(jobs, len(selected))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_named, [(name, seed) for name in selected]))
        if progress is not None:
            for result in results:
                progress(result)
        return results
    results = []
    for name in selected:
        result = CHECKS[name](seed=seed)
        if progress is not None:
            progress(result)
        results.append(result)
    return results
