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
from .geometry import Metric
from .process import Density


class TruncationError(RuntimeError):
    """The certified tail of the rate mixture exceeds the tolerance."""


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    std_error: float
    method: str  # "closed-form" | "monte-carlo"
    samples: int = 0


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def _uniform_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> NDArray:
    """Uniform draws from the ball of the given radius around the origin."""
    direction = rng.standard_normal((count, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / dim)
    return direction * radii[:, None]


# ---------------------------------------------------------------------------
# moment integrals of the plain statistic


def mean_moment(
    functional: LocalFunctional,
    density: Density,
    r: float,
    budget: int = 100_000,
    seed: int = 0,
) -> IntegralEstimate:
    """Monte Carlo estimate of ``E[f(X, r)]`` for ``k`` i.i.d. density points."""
    rng = np.random.default_rng(seed)
    k = functional.k
    pts = density.sample(rng, budget * k).reshape(budget, k, -1)
    vals = functional.batch(pts, r, density.metric)
    return IntegralEstimate(
        float(vals.mean()),
        float(vals.std(ddof=1) / math.sqrt(budget)),
        "monte-carlo",
        budget,
    )


def overlap_moment(
    functional: LocalFunctional,
    density: Density,
    r: float,
    shared: int,
    budget: int = 100_000,
    seed: int = 0,
) -> IntegralEstimate:
    """Monte Carlo estimate of ``E[f(X, r) * f(X', r)]`` where the two
    ``k``-point tuples share exactly ``shared`` points.

    ``shared == 0`` is returned as the squared mean with propagated error
    (the tuples are then independent).
    """
    k = functional.k
    if not 0 <= shared <= k:
        raise ValueError("shared must lie in 0..k")
    if shared == 0:
        base = mean_moment(functional, density, r, budget, seed)
        return IntegralEstimate(
            base.value**2,
            2.0 * abs(base.value) * base.std_error,
            "monte-carlo",
            budget,
        )
    rng = np.random.default_rng(seed)
    total = 2 * k - shared
    pts = density.sample(rng, budget * total).reshape(budget, total, -1)
    first = pts[:, :k]
    second = np.concatenate([pts[:, :shared], pts[:, k:]], axis=1)
    metric = density.metric
    vals = functional.batch(first, r, metric) * functional.batch(second, r, metric)
    return IntegralEstimate(
        float(vals.mean()),
        float(vals.std(ddof=1) / math.sqrt(budget)),
        "monte-carlo",
        budget,
    )


def statistic_mean_variance(
    n: float,
    k: int,
    mean_mom: IntegralEstimate,
    overlaps: dict[int, IntegralEstimate],
) -> tuple[IntegralEstimate, IntegralEstimate]:
    """Mean and variance of the plain statistic under stationarity.

    ``mean = n**k / k! * E[f]`` and the variance sums the overlap moments:
    ``var = (n**k / k!) * sum_{i=1..k} C(k,i) * n**(k-i) / (k-i)! * m_i``.
    """
    lead = n**k / math.factorial(k)
    mean = IntegralEstimate(
        lead * mean_mom.value, lead * mean_mom.std_error, mean_mom.method
    )
    var = 0.0
    var_err_sq = 0.0
    for i in range(1, k + 1):
        coef = lead * math.comb(k, i) * n ** (k - i) / math.factorial(k - i)
        var += coef * overlaps[i].value
        var_err_sq += (coef * overlaps[i].std_error) ** 2
    return mean, IntegralEstimate(var, math.sqrt(var_err_sq), "monte-carlo")


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
    if j >= 1:
        shared = first[:, k - j :]
        anchor = first[:, k - j]
        fresh_count = k - j
        volume = vball ** (2 * k - j - 1)
    else:
        anchor = _uniform_ball(rng, budget, dim, free_anchor_radius)
        shared = np.zeros((budget, 0, dim))
        fresh_count = k - 1
        volume = vball ** (2 * k - 2) * (
            unit_ball_volume(dim) * free_anchor_radius**dim
        )
        anchor_col = anchor[:, None, :]
    if j >= 1:
        pieces = [shared]
    else:
        pieces = [anchor_col]
    if fresh_count > 0:
        fresh = anchor[:, None, :] + _uniform_ball(
            rng, budget * fresh_count, dim, r_max
        ).reshape(budget, fresh_count, dim)
        pieces.append(fresh)
    second = np.concatenate(pieces, axis=1)
    return first, second, volume


def rate_integral(
    functional: LocalFunctional,
    density: Density,
    shared: int,
    budget: int = 200_000,
    seed: int = 0,
    method: str = "auto",
) -> IntegralEstimate:
    """Scale-free overlap integral behind the weight of rate ``shared``.

    This is the ``r -> 0`` limit of ``overlap_moment(shared) / r**(dim *
    (2k - shared - 1))``, an integral over euclidean offsets of two tuples
    sharing ``shared`` points, times the density power integral.  Closed
    form for the pair functional under the uniform density; Monte Carlo
    otherwise.
    """
    k = functional.k
    if not 1 <= shared <= k:
        raise ValueError("shared must lie in 1..k")
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
    metric = Metric("euclidean", dim)
    vals = functional.batch(first, 1.0, metric) * functional.batch(second, 1.0, metric)
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
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CovarianceModel":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def _normalize_weights(raw: NDArray, raw_err: NDArray) -> tuple[NDArray, NDArray]:
    total = float(raw.sum())
    if total <= 0:
        raise ConfigError("all mixture weights are zero: functional infeasible?")
    weights = raw / total
    errs = np.zeros_like(raw)
    for i in range(len(raw)):
        grad = -raw[i] / total**2 * np.ones(len(raw))
        grad[i] += 1.0 / total
        errs[i] = math.sqrt(float(np.sum((grad * raw_err) ** 2)))
    return weights, errs


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
    k = functional.k
    raw = np.zeros(k)
    raw_err = np.zeros(k)
    for j in range(1, k + 1):
        est = rate_integral(functional, density, j, budget, seed + j, method)
        coef = gamma ** (-j) / (math.factorial(j) * math.factorial(k - j) ** 2)
        raw[j - 1] = coef * est.value
        raw_err[j - 1] = coef * est.std_error
    weights, errs = _normalize_weights(raw, raw_err)
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
) -> tuple[list[Optional[IntegralEstimate]], list[Optional[IntegralEstimate]]]:
    """Harmonic columns of the time kernel for one shared-point count.

    For a pair of tuples sharing ``shared`` points, the exact time kernel of
    their joint-vacancy covariance term is (with ``s = exp(-dt)``)

        ``s**shared * (1 - s)**W * exp(gamma * q * vol(A & B) * s)``

    where ``W`` counts tuple points that sit inside the *other* tuple's
    region: such a point forbids the other subset from being counted while
    both are alive, which is what the ``(1 - s)**W`` factor encodes.  With
    ``cross_exclusion=False`` that factor is dropped (``W = 0``), matching
    the background-only vacancy kernel.

    Returns two columns indexed by the power ``p`` of ``s`` beyond
    ``shared``: the signed expansion coefficients, and the coefficients of
    the absolute-value kernel ``(1 + s)**W * exp(...)`` which dominate the
    signed ones term by term (used for the truncation bound).  Index 0 is
    None for ``shared == 0``: that coefficient is exactly the product of
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
    vals = functional.batch(first, 1.0, metric) * functional.batch(second, 1.0, metric)
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
    signed = np.zeros((budget, max_power + 1))
    absed = np.zeros((budget, max_power + 1))
    regions_a = nbhd.build(first[hits], 1.0, metric)
    regions_b = nbhd.build(second[hits], 1.0, metric)
    for row, i in enumerate(hits):
        region_a, region_b = regions_a[row], regions_b[row]
        if region_a is None or region_b is None:
            continue
        vol_a, vol_b, vol_ab = pair_volumes(region_a, region_b, vol_samples, rng)
        base = vals[i] * x_weight[row] * math.exp(-gamma * qx[row] * (vol_a + vol_b))
        a = gamma * qx[row] * vol_ab
        # coefficients a**m / m! of exp(a * s), via the stable running product
        exp_coef = np.cumprod(np.concatenate([[1.0], a / np.arange(1.0, max_power + 1.0)]))
        if cross_exclusion:
            intruders = 0
            fresh_second = second[i, shared:]
            if len(fresh_second):
                intruders += int(np.count_nonzero(region_a.contains_many(fresh_second)))
            fresh_first = first[i, : k - shared]
            if len(fresh_first):
                intruders += int(np.count_nonzero(region_b.contains_many(fresh_first)))
        else:
            intruders = 0
        if intruders == 0:
            signed[i] = base * exp_coef
            absed[i] = base * exp_coef
            continue
        binom = np.array(
            [math.comb(intruders, w) for w in range(min(intruders, max_power) + 1)]
        )
        alt = binom * (-1.0) ** np.arange(len(binom))
        signed[i] = base * np.convolve(exp_coef, alt)[: max_power + 1]
        absed[i] = base * np.convolve(exp_coef, binom)[: max_power + 1]
    signed *= volume
    absed *= volume
    out: list[list[Optional[IntegralEstimate]]] = []
    for contrib in (signed, absed):
        group_means = contrib.reshape(HARMONIC_GROUPS, budget // HARMONIC_GROUPS, -1).mean(axis=1)
        means = group_means.mean(axis=0)
        errs = group_means.std(axis=0, ddof=1) / math.sqrt(HARMONIC_GROUPS)
        column: list[Optional[IntegralEstimate]] = []
        for power in range(max_power + 1):
            if shared == 0 and power == 0:
                column.append(None)
                continue
            column.append(
                IntegralEstimate(
                    float(means[power]), float(errs[power]), "monte-carlo", budget
                )
            )
        out.append(column)
    return out[0], out[1]


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
    with ``H`` the harmonic columns of ``_exclusive_harmonics``.

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
    signed: dict[int, list[Optional[IntegralEstimate]]] = {}
    dominating: dict[int, list[Optional[IntegralEstimate]]] = {}
    for j in range(0, k + 1):
        signed[j], dominating[j] = _exclusive_harmonics(
            functional,
            nbhd,
            density,
            gamma,
            j,
            max_rate - j,
            budget,
            vol_samples,
            seed + 101 * j,
            cross_exclusion=cross_exclusion,
        )
    raw = np.zeros(max_rate)
    raw_err = np.zeros(max_rate)
    for l in range(1, max_rate + 1):
        total = 0.0
        err_sq = 0.0
        for j in range(0, min(l, k) + 1):
            est = signed[j][l - j]
            if est is None:
                continue
            coef = gamma ** (2 * k - j) / (
                math.factorial(j) * math.factorial(k - j) ** 2
            )
            total += coef * est.value
            err_sq += (coef * est.std_error) ** 2
        raw[l - 1] = total
        raw_err[l - 1] = math.sqrt(err_sq)
    retained = float(raw.sum())
    if retained <= 0:
        raise ConfigError("all mixture weights are zero: functional infeasible?")
    tail = _certified_tail(
        functional, nbhd, density, gamma, dominating, max_rate, cross_exclusion
    )
    if tail > tail_tol * retained:
        raise TruncationError(
            f"certified tail {tail:.3e} exceeds tolerance "
            f"{tail_tol:.1e} x retained mass {retained:.3e}; increase max_rate"
        )
    weights, errs = _normalize_weights(raw, raw_err)
    return CovarianceModel(
        kind="exclusive",
        functional=functional.name,
        gamma=gamma,
        k=k,
        rates=list(range(1, max_rate + 1)),
        weights=weights,
        weight_errors=errs,
    )


def _certified_tail(
    functional: LocalFunctional,
    nbhd: NeighborhoodMap,
    density: Density,
    gamma: float,
    dominating: dict[int, list[Optional[IntegralEstimate]]],
    max_rate: int,
    cross_exclusion: bool,
) -> float:
    """Upper bound on the unnormalized mixture mass beyond ``max_rate``.

    Works on the absolute-value harmonic columns, whose per-sample terms
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
    for j in range(0, k + 1):
        column = dominating[j]
        w_max = 2 * (k - j) if cross_exclusion else 0
        anchor = None
        for m in range(len(column) - 1, -1, -1):
            est = column[m]
            if est is not None and est.value > 0:
                anchor = (m, est.value + 3.0 * est.std_error)
                break
        if anchor is None:
            continue  # no observed mass in this column; nothing to continue
        m0, bound = anchor
        cutoff = max_rate - j  # powers above this were discarded
        for p in range(m0, cutoff):
            bound *= a_sup / (p + 1 - w_max) if p >= w_max else (a_sup + w_max)
        ratio = a_sup / (cutoff + 1 - w_max)
        if cutoff < w_max or ratio >= 1.0:
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
