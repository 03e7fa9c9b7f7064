"""Limit predictions for normalized subset statistics.

In the regime where ``n * r**dim`` is held at ``gamma`` while ``n`` grows,
the time-autocovariance of a tracked subset statistic converges to a finite
mixture of exponentials ``sum_j w_j * exp(-rate_j * dt)``:

* plain statistics of ``k``-point subsets mix the integer rates ``1..k``,
  with weights from overlap integrals of the functional;
* exclusive statistics additionally shed correlation through births inside
  the attached neighborhood regions, which spreads the mixture over all
  integer rates; the series is truncated at ``max_rate`` with a certified
  tail bound.

A mixture is exactly the covariance of a superposition of independent
Ornstein-Uhlenbeck processes (amplitude ``sqrt(w_j)``, relaxation rate
``rate_j``), which ``simulate_ou_superposition`` provides as a reference
process for closing the verification loop.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .functionals import ConfigError, LocalFunctional, NeighborhoodMap, pair_volumes
from .geometry import Metric, norms, unit_ball_volume
from .process import Density


class TruncationError(RuntimeError):
    """The certified tail of the rate mixture exceeds the tolerance."""


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    std_error: float
    method: str  # "closed-form" | "monte-carlo"
    samples: int = 0


def _uniform_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> NDArray:
    """Uniform draws from the ball of the given radius around the origin."""
    direction = rng.standard_normal((count, dim))
    direction /= norms(direction)[:, None]
    radii = radius * rng.random(count) ** (1.0 / dim)
    return direction * radii[:, None]


# ---------------------------------------------------------------------------
# scale-free rate integrals (evaluated at r = 1, euclidean chart)


def _shared_tuples(
    functional: LocalFunctional,
    dim: int,
    j: int,
    budget: int,
    rng: np.random.Generator,
    free_anchor_radius: float = 0.0,
) -> tuple[NDArray, NDArray, float]:
    """Draw tuple pairs sharing ``j`` points, plus the importance volume.

    The first tuple is ``(0, y_1..y_{k-1})`` with the ``y`` uniform on the
    ball of radius ``r_max`` (a subset of positive value has diameter at
    most ``r_max``, so this covers the support).  The second tuple reuses
    the last ``j`` entries of the first and draws its ``k - j`` fresh points
    uniformly in the ``r_max``-ball around its own first element; for
    ``j == 0`` that element is itself drawn from a ball of radius
    ``free_anchor_radius``.  Returns (first, second, volume_factor).
    """
    k = functional.k
    r_max = functional.r_max
    vball = unit_ball_volume(dim) * r_max**dim
    first = np.zeros((budget, k, dim))
    if k > 1:
        first[:, 1:] = _uniform_ball(rng, budget * (k - 1), dim, r_max).reshape(
            budget, k - 1, dim
        )
    # the second tuple's points taken from the first, or its free anchor
    if j >= 1:
        head = first[:, k - j :]
        volume = vball ** (2 * k - j - 1)
    else:
        head = _uniform_ball(rng, budget, dim, free_anchor_radius)[:, None, :]
        volume = vball ** (2 * k - 2) * (unit_ball_volume(dim) * free_anchor_radius**dim)
    fresh_count = k - head.shape[1]
    fresh = head[:, :1] + _uniform_ball(rng, budget * fresh_count, dim, r_max).reshape(
        budget, fresh_count, dim
    )
    return first, np.concatenate([head, fresh], axis=1), volume


def _pair_scores(
    functional: LocalFunctional, first: NDArray, second: NDArray, shared: int, metric: Metric
) -> NDArray:
    """``batch(first) * batch(second)`` at scale 1, scoring the second tuple
    only on the rows where the first scores nonzero (a row's score does not
    depend on the stack it is scored in).  With every point shared the
    second tuple is the first, so its scores are the first's."""
    scores = functional.batch(first, 1.0, metric)
    if shared == functional.k:
        return scores * scores
    vals = scores.copy()
    counted = np.flatnonzero(scores)
    vals[counted] *= functional.batch(second[counted], 1.0, metric)
    return vals


def _check_budget(budget: int) -> None:
    """A plain model's standard error needs at least two draws."""
    if not budget >= 2:
        raise ConfigError(f"the plain model budget must be at least 2, got {budget!r}")


def rate_integral(
    functional: LocalFunctional,
    density: Density,
    shared: int,
    budget: int = 200_000,
    seed: int = 0,
    method: str = "auto",
) -> IntegralEstimate:
    """Scale-free overlap integral behind the weight of rate ``shared``.

    This is the ``r -> 0`` limit of the overlap moment ``E[f(X, r) *
    f(X', r)]`` of two ``k``-point tuples sharing ``shared`` points, over
    ``r**(dim * (2k - shared - 1))``: an integral over euclidean offsets of
    the two tuples, times the density power integral.  Closed
    form for the pair functional under the uniform density; Monte Carlo
    otherwise.
    """
    k = functional.k
    if not 1 <= shared <= k:
        raise ValueError("shared must lie in 1..k")
    _check_budget(budget)
    dim = density.dim
    closed = method in ("auto", "closed-form")
    if closed and functional.name == "clique:2" and density.kind == "uniform":
        vball = unit_ball_volume(dim)
        value = vball**2 if shared == 1 else vball
        return IntegralEstimate(value, 0.0, "closed-form")
    if method == "closed-form":
        raise ConfigError("no closed form for this functional/density pair")
    rng = np.random.default_rng(seed)
    first, second, volume = _shared_tuples(functional, dim, shared, budget, rng)
    vals = _pair_scores(functional, first, second, shared, Metric("euclidean", dim))
    q_part = density.power_integral(2 * k - shared)
    scale = volume * q_part
    return IntegralEstimate(
        float(vals.mean()) * scale,
        float(vals.std(ddof=1) / math.sqrt(budget)) * scale,
        "monte-carlo",
        budget,
    )


def _region_volume_sup(functional: LocalFunctional, nbhd: NeighborhoodMap, dim: int) -> float:
    """Upper bound on the region volume at scale 1 over feasible subsets."""
    vball = unit_ball_volume(dim)
    if nbhd.kind == "balls":
        # k unit balls centered on a set of diameter <= r_max
        return vball * min(float(functional.k), (functional.r_max / 2.0 + 1.0) ** dim)
    hi = functional.meta["radius_range"][1]
    return vball * hi**dim


# ---------------------------------------------------------------------------
# covariance models


@dataclass
class CovarianceModel:
    """Normalized limit covariance ``sum_j weights[j] * exp(-rates[j] * dt)``."""

    kind: str  # "plain" | "exclusive"
    functional: str
    gamma: float
    k: int
    rates: list[int]
    weights: NDArray
    weight_errors: NDArray
    # certified tail / retained mass of an exclusive build; None when plain
    tail_ratio: Optional[float] = None

    def curve(self, deltas) -> NDArray:
        deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
        rates = np.asarray(self.rates, dtype=float)
        return np.exp(-np.abs(deltas)[:, None] * rates[None, :]) @ self.weights

    def amplitudes(self) -> NDArray:
        return np.sqrt(self.weights)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "functional": self.functional,
            "gamma": self.gamma,
            "k": self.k,
            "rates": [int(r) for r in self.rates],
            "weights": [float(w) for w in self.weights],
            "weight_errors": [float(e) for e in self.weight_errors],
            "tail_ratio": self.tail_ratio,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CovarianceModel":
        return cls(
            kind=data["kind"],
            functional=data["functional"],
            gamma=float(data["gamma"]),
            k=int(data["k"]),
            rates=[int(r) for r in data["rates"]],
            weights=np.asarray(data["weights"], dtype=float),
            weight_errors=np.asarray(data["weight_errors"], dtype=float),
            tail_ratio=data.get("tail_ratio"),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CovarianceModel":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def _normalize_weights(raw: NDArray, cov: NDArray) -> tuple[NDArray, NDArray]:
    """Weights ``raw / sum(raw)`` and their delta-method standard errors
    ``sqrt(diag(J cov J^T))`` with ``J = (I - w 1^T) / sum(raw)``, given the
    covariance ``cov`` of the raw weights."""
    total = float(raw.sum())
    if total == 0:
        raise ConfigError("all mixture weights are zero: functional infeasible?")
    if total < 0:
        raise ConfigError(
            f"mixture weights sum to {total:.6g} < 0: the estimate is too noisy at this budget"
        )
    weights = raw / total
    jac = (np.eye(len(raw)) - weights[:, None]) / total
    return weights, np.sqrt(np.diag(jac @ cov @ jac.T))


def mixture_model(
    functional: LocalFunctional,
    density: Density,
    gamma: float,
    budget: int = 200_000,
    seed: int = 0,
    method: str = "auto",
) -> CovarianceModel:
    """Limit covariance mixture of the plain statistic: rates ``1..k``.

    The unnormalized weight of rate ``j`` is ``gamma**(-j) * I_j / (j! *
    ((k-j)!)**2)`` with ``I_j`` the rate integral for ``j`` shared points.
    """
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    _check_budget(budget)
    k = functional.k
    raw = np.zeros(k)
    raw_err = np.zeros(k)
    for j in range(1, k + 1):
        est = rate_integral(functional, density, j, budget, seed + j, method)
        coef = gamma ** (-j) / (math.factorial(j) * math.factorial(k - j) ** 2)
        raw[j - 1] = coef * est.value
        raw_err[j - 1] = coef * est.std_error
    weights, errs = _normalize_weights(raw, np.diag(raw_err**2))
    return CovarianceModel(
        kind="plain",
        functional=functional.name,
        gamma=gamma,
        k=k,
        rates=list(range(1, k + 1)),
        weights=weights,
        weight_errors=errs,
    )


# batch-means groups of the harmonic columns' standard errors
HARMONIC_GROUPS = 40


def _exclusive_harmonics(
    functional: LocalFunctional,
    nbhd: NeighborhoodMap,
    density: Density,
    gamma: float,
    shared: int,
    max_power: int,
    budget: int = 20_000,
    vol_samples: int = 10_000,
    seed: int = 0,
    cross_exclusion: bool = True,
) -> tuple[NDArray, NDArray]:
    """Harmonic columns of the time kernel for one shared-point count.

    For a pair of tuples sharing ``shared`` points, the exact time kernel of
    their joint-vacancy covariance term is (with ``s = exp(-dt)``)

        ``s**shared * (1 - s)**W * exp(gamma * q * vol(A & B) * s)``

    where ``W`` counts tuple points that sit inside the *other* tuple's
    region: such a point forbids the other subset from being counted while
    both are alive, which is what the ``(1 - s)**W`` factor encodes.  With
    ``cross_exclusion=False`` that factor is dropped (``W = 0``), matching
    the background-only vacancy kernel.

    Returns two ``(HARMONIC_GROUPS, max_power + 1)`` arrays of batch means,
    one row per group of draws and one column per power ``p`` of ``s``
    beyond ``shared``: the signed expansion coefficients, and the
    coefficients of the absolute-value kernel ``(1 + s)**W * exp(...)``
    which dominate the signed ones term by term (used for the truncation
    bound).  A column's estimate is its mean over the rows.  Power 0 is
    exactly 0.0 for ``shared == 0``: that coefficient is the product of
    marginals and cancels against it.
    """
    k = functional.k
    if not 0 <= shared <= k:
        raise ValueError("shared must lie in 0..k")
    budget = max(HARMONIC_GROUPS, (budget // HARMONIC_GROUPS) * HARMONIC_GROUPS)
    dim = density.dim
    rng = np.random.default_rng(seed)
    reach = nbhd.reach_scale1(functional)
    first, second, volume = _shared_tuples(
        functional, dim, shared, budget, rng, free_anchor_radius=2.0 * reach
    )
    metric = Metric("euclidean", dim)
    vals = _pair_scores(functional, first, second, shared, metric)
    hits = np.nonzero(vals != 0.0)[0]
    uniform_density = density.kind == "uniform"
    if uniform_density:
        qx = np.ones(len(hits))
        x_weight = np.ones(len(hits))
    else:
        x = density.sample(rng, len(hits))
        qx = density.pdf_many(x)
        # x is importance-sampled from q, so one density factor cancels
        x_weight = qx ** (2 * k - shared - 1)
    region_a, valid_a = nbhd.build(first[hits], 1.0, metric)
    region_b, valid_b = nbhd.build(second[hits], 1.0, metric)
    keep = valid_a & valid_b  # a degenerate circumball has no region
    hits, qx, x_weight = hits[keep], qx[keep], x_weight[keep]
    region_a, region_b = region_a[keep], region_b[keep]
    vol_a, vol_b, vol_ab = pair_volumes(
        region_a.centers, region_a.radii, region_b.centers, region_b.radii, vol_samples, rng
    )
    base = vals[hits] * x_weight * np.exp(-gamma * qx * (vol_a + vol_b)) * volume
    a = gamma * qx * vol_ab
    # coefficients a**p / p! of exp(a * s), via the stable running product
    exp_coef = np.cumprod(
        np.column_stack([np.ones(len(hits)), a[:, None] / np.arange(1.0, max_power + 1.0)]), axis=1
    )
    if cross_exclusion:
        inside_a = region_a.contains_many(second[hits, shared:])
        inside_b = region_b.contains_many(first[hits, : k - shared])
        intruders = np.count_nonzero(inside_a, axis=1) + np.count_nonzero(inside_b, axis=1)
    else:
        intruders = np.zeros(len(hits), dtype=int)
    # times (1 - s)**W and (1 + s)**W: coef is base * C(W, w), zero for w > W
    signed = np.zeros((budget, max_power + 1))
    absed = np.zeros((budget, max_power + 1))
    coef = base
    for w in range(min(int(intruders.max(initial=0)), max_power) + 1):
        if w:
            coef = coef * (intruders - w + 1) / w
        term = coef[:, None] * exp_coef[:, : max_power + 1 - w]
        signed[hits, w:] += (-1.0) ** w * term
        absed[hits, w:] += term
    groups = [
        contrib.reshape(HARMONIC_GROUPS, budget // HARMONIC_GROUPS, -1).mean(axis=1)
        for contrib in (signed, absed)
    ]
    if shared == 0:
        for group_means in groups:
            group_means[:, 0] = 0.0
    return groups[0], groups[1]


def exclusive_mixture_model(
    functional: LocalFunctional,
    nbhd: NeighborhoodMap,
    density: Density,
    gamma: float,
    budget: int = 20_000,
    vol_samples: int = 10_000,
    max_rate: int = 20,
    tail_tol: float = 1e-8,
    seed: int = 0,
    cross_exclusion: bool = True,
) -> CovarianceModel:
    """Limit covariance mixture of the exclusive statistic: rates ``1..max_rate``.

    Rate ``l`` collects the order-``l`` harmonics of the exact two-time
    kernel over shared-point counts ``j = 0..min(l, k)``: the unnormalized
    weight is ``sum_j gamma**(2k - j) * H[j][l - j] / (j! ((k-j)!)**2)``
    with ``H[j]`` the column means of ``_exclusive_harmonics``' group means.
    Every rate of one ``j`` comes from the same draws, so the weight errors
    take the full covariance of the raw weights from the same sums over
    the ``HARMONIC_GROUPS`` group means (the ``j`` draws are independent).

    ``cross_exclusion=True`` (the default) keeps the factors by which the
    two counted subsets exclude *each other* through their regions; dropping
    them (``False``) reproduces the background-only kernel, which for
    mutually intruding geometries (for example cliques with ball-union
    regions) overstates the weight of slow rates.

    The series over ``l`` is truncated at ``max_rate``; the discarded tail
    is bounded through the dominating absolute-value kernel (each further
    power costs at most ``gamma * sup(q) * sup(vol) / (p - W)`` once ``p``
    exceeds the intruder bound ``W``), and must stay below ``tail_tol``
    relative to the retained mass, else ``TruncationError`` is raised.
    """
    if gamma <= 0:
        raise ConfigError("gamma must be positive")
    k = functional.k
    if max_rate < k:
        raise ConfigError(f"max_rate must be at least k = {k}")
    # raw[l] and replicates[:, l] collect rate l; rate 0 only takes the
    # j = 0 power-0 column, which is 0.0, and is dropped
    raw = np.zeros(max_rate + 1)
    replicates = np.zeros((HARMONIC_GROUPS, max_rate + 1))
    dominating = []
    for j in range(0, k + 1):
        signed, absed = _exclusive_harmonics(
            functional, nbhd, density, gamma, j, max_rate - j, budget, vol_samples,
            seed + 101 * j, cross_exclusion=cross_exclusion,
        )
        coef = gamma ** (2 * k - j) / (math.factorial(j) * math.factorial(k - j) ** 2)
        raw[j:] += coef * signed.mean(axis=0)
        replicates[:, j:] += coef * signed
        dominating.append(absed)
    raw = raw[1:]
    # the j draws are independent, so the group sums carry the covariance
    weights, errs = _normalize_weights(
        raw, np.atleast_2d(np.cov(replicates[:, 1:], rowvar=False)) / HARMONIC_GROUPS
    )
    retained = float(raw.sum())
    tail = _certified_tail(
        functional, nbhd, density, gamma, dominating, max_rate, cross_exclusion
    )
    if tail > tail_tol * retained:
        raise TruncationError(
            f"certified tail {tail:.3e} exceeds tolerance "
            f"{tail_tol:.1e} x retained mass {retained:.3e}; increase max_rate"
        )
    return CovarianceModel(
        kind="exclusive",
        functional=functional.name,
        gamma=gamma,
        k=k,
        rates=list(range(1, max_rate + 1)),
        weights=weights,
        weight_errors=errs,
        tail_ratio=tail / retained,
    )


def _certified_tail(
    functional: LocalFunctional,
    nbhd: NeighborhoodMap,
    density: Density,
    gamma: float,
    dominating: Sequence[NDArray],
    max_rate: int,
    cross_exclusion: bool,
) -> float:
    """Upper bound on the unnormalized mixture mass beyond ``max_rate``.

    Works on the absolute-value harmonic group means of each shared count
    ``j`` (``dominating[j]``), whose per-sample terms
    ``A_p`` obey ``A_{p+1} <= A_p * a / (p + 1 - W)`` for ``p >= W`` (with
    ``a <= gamma * sup(q) * sup(vol)`` and at most ``W`` intruding points)
    and ``A_{p+1} <= (a + W) * A_p`` below that, so an observed column value
    can be transported to the cutoff and summed geometrically beyond it.
    """
    k = functional.k
    dim = density.dim
    vol_sup = _region_volume_sup(functional, nbhd, dim)
    a_sup = gamma * density.sup_density() * vol_sup
    tail = 0.0
    for j, column in enumerate(dominating):
        w_max = 2 * (k - j) if cross_exclusion else 0
        means = column.mean(axis=0)
        # shifted by one group, so a column equal in every group reads exactly 0
        errs = (column - column[0]).std(axis=0, ddof=1) / math.sqrt(HARMONIC_GROUPS)
        observed = np.flatnonzero(means > 0)
        if not len(observed):
            continue  # no observed mass in this column; nothing to continue
        m0 = int(observed[-1])
        bound = means[m0] + 3.0 * errs[m0]
        cutoff = max_rate - j  # powers above this were discarded
        for p in range(m0, cutoff):
            bound *= a_sup / (p + 1 - w_max) if p >= w_max else (a_sup + w_max)
        ratio = a_sup / (cutoff + 1 - w_max) if cutoff >= w_max else math.inf
        if ratio >= 1.0:
            raise TruncationError(
                "tail bound does not contract: increase max_rate "
                f"(gamma * sup(q) * sup(vol) = {a_sup:.3g} at power {cutoff + 1})"
            )
        coef = gamma ** (2 * k - j) / (math.factorial(j) * math.factorial(k - j) ** 2)
        tail += coef * bound * ratio / (1.0 - ratio)
    return tail


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck reference process


def simulate_ou_superposition(
    model: CovarianceModel,
    times: Sequence[float],
    seed: int = 0,
    n_paths: int = 1,
) -> NDArray:
    """Stationary Gaussian paths with the model's covariance, sampled exactly.

    One independent unit-variance OU component per rate, stepped by the
    exact discretization ``X(t+h) = e^(-rate h) X(t) + sqrt(1 - e^(-2 rate
    h)) Z``, combined with amplitudes ``sqrt(weight)``.  Returns an array
    of shape ``(n_paths, len(times))``.
    """
    rng = np.random.default_rng(seed)
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    amps = model.amplitudes()
    rates = np.asarray(model.rates, dtype=float)
    state = rng.standard_normal((n_paths, len(rates)))
    out = np.empty((n_paths, len(times)))
    out[:, 0] = state @ amps
    for i in range(1, len(times)):
        h = times[i] - times[i - 1]
        decay = np.exp(-rates * h)
        noise = np.sqrt(1.0 - decay**2)
        state = state * decay[None, :] + rng.standard_normal(
            (n_paths, len(rates))
        ) * noise[None, :]
        out[:, i] = state @ amps
    return out
