"""Spatial birth-death process on R^d or the unit torus.

Points are born at total rate ``n`` with i.i.d. locations drawn from a
probability density, and every alive point dies independently at unit rate.
The stationary law of the alive set is a Poisson process with intensity
``n * q``, which is how initial states are drawn.

Two exact samplers are provided:

* ``simulate_events``: the event-driven engine (competing exponential
  clocks), producing the full ordered event stream on ``(0, T]``;
* ``sample_marked``: the static construction that draws all points that are
  ever alive during ``[0, T]`` in one shot, each carrying a birth time and
  lifetime, from which any time slice can be read off.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .functionals import ConfigError
from .geometry import GridIndex, Metric


@dataclass(frozen=True)
class Density:
    """Sampling density of birth locations.

    ``uniform``: the unit torus (periodic boundary, no edge effects).
    ``gaussian``: isotropic normal with scale ``sigma`` on R^d.
    ``table``: piecewise-constant on a uniform grid over the unit cube,
    periodic; ``table`` holds one weight per cell and must average to 1 so
    the density integrates to 1.
    """

    kind: Literal["uniform", "gaussian", "table"]
    dim: int
    sigma: float = 1.0
    table: Optional[NDArray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.kind == "gaussian" and self.sigma <= 0:
            raise ConfigError("gaussian sigma must be positive")
        if self.kind == "table":
            if self.table is None:
                raise ConfigError("table density needs a weight array")
            w = np.asarray(self.table, dtype=float)
            if w.ndim != self.dim or np.any(w < 0):
                raise ConfigError("table must be a non-negative array of rank dim")
            if abs(float(w.mean()) - 1.0) > 1e-9:
                raise ConfigError(
                    "table density is unnormalized: cell weights must average to 1"
                )
            object.__setattr__(self, "table", w)

    @property
    def metric(self) -> Metric:
        kind = "euclidean" if self.kind == "gaussian" else "torus"
        return Metric(kind, self.dim)

    def sample(self, rng: np.random.Generator, size: int) -> NDArray:
        if self.kind == "uniform":
            return rng.random((size, self.dim))
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, (size, self.dim))
        w = self.table
        probs = (w / w.sum()).ravel()
        flat = rng.choice(probs.size, size=size, p=probs)
        cells = np.column_stack(np.unravel_index(flat, w.shape))
        m = w.shape[0]
        return (cells + rng.random((size, self.dim))) / m

    def pdf_many(self, x: NDArray) -> NDArray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "uniform":
            return np.ones(len(x))
        if self.kind == "gaussian":
            norm = (2.0 * np.pi * self.sigma**2) ** (-self.dim / 2.0)
            return norm * np.exp(-np.sum(x * x, axis=1) / (2.0 * self.sigma**2))
        m = self.table.shape[0]
        idx = np.clip((np.mod(x, 1.0) * m).astype(int), 0, m - 1)
        return self.table[tuple(idx.T)]

    def sup_density(self) -> float:
        if self.kind == "uniform":
            return 1.0
        if self.kind == "gaussian":
            return float((2.0 * np.pi * self.sigma**2) ** (-self.dim / 2.0))
        return float(self.table.max())

    def power_integral(self, power: int) -> float:
        """Exact integral of ``q(x) ** power`` over the domain."""
        if power < 0:
            raise ValueError("power must be >= 0")
        if self.kind == "uniform":
            return 1.0
        if self.kind == "gaussian":
            if power == 0:
                raise ValueError("q**0 does not integrate over R^d")
            two_pi_sig = 2.0 * np.pi * self.sigma**2
            return float(
                two_pi_sig ** (-self.dim * (power - 1) / 2.0) * power ** (-self.dim / 2.0)
            )
        return float(np.mean(self.table**power))


def density_from_spec(spec: dict | str, dim: int) -> Density:
    """Build a density from a JSON-style spec: ``"uniform"``,
    ``{"kind": "gaussian", "sigma": s}`` or ``{"kind": "table", "cells": [...]}``."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"config field 'density' must be a string or an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "uniform":
        return Density("uniform", dim)
    if kind == "gaussian":
        return Density("gaussian", dim, sigma=float(spec.get("sigma", 1.0)))
    if kind == "table":
        try:
            cells = np.asarray(spec["cells"], dtype=float)
        except (KeyError, TypeError, ValueError):
            cells = spec.get("cells")
            raise ConfigError(f"config field 'density.cells' must be an array of numbers, got {cells!r}")
        return Density("table", dim, table=cells)
    raise ConfigError(f"unknown density kind {kind!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one birth-death experiment.

    ``n`` is the birth rate (and the expected stationary point count);
    ``gamma`` is the target of ``n * r**dim``, from which the interaction
    radius is derived as ``r = (gamma / n) ** (1/dim)``.
    """

    n: float
    dim: int
    horizon: float
    density: Density
    seed: int = 0
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigError("n must be positive")
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        if self.density.dim != self.dim:
            raise ConfigError("density dimension does not match config")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError("gamma must be positive")

    @property
    def metric(self) -> Metric:
        return self.density.metric

    @property
    def interaction_radius(self) -> float:
        if self.gamma is None:
            raise ConfigError("no gamma set, interaction radius undefined")
        return float((self.gamma / self.n) ** (1.0 / self.dim))

    def rng(self, rep: int = 0) -> np.random.Generator:
        """Independent counter-based stream for replication ``rep``."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(rep,))
        return np.random.Generator(np.random.Philox(seq))


@dataclass(slots=True)
class MarkedPoint:
    """A point with its birth time and lifetime, alive on
    ``[birth, birth + lifetime)``."""

    pid: int
    position: NDArray
    birth: float
    lifetime: float


@dataclass(frozen=True, slots=True)
class Event:
    time: float
    kind: str  # "birth" | "death"
    point: MarkedPoint


@dataclass
class EventStream:
    """Time-ordered events on ``(0, horizon]`` plus the initial point count."""

    events: list[Event]
    horizon: float
    initial_count: int

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)


# a larger coordinate could overflow a squared distance
MAX_COORDINATE = 1e150


def _check_coordinates(points: NDArray) -> None:
    """A ``ValueError`` naming the first coordinate of ``points`` that is
    NaN, infinite or larger than ``MAX_COORDINATE`` in size, if any."""
    fits = np.abs(points) <= MAX_COORDINATE
    if not fits.all():
        at = tuple(np.argwhere(~fits)[0].tolist())
        raise ValueError(
            f"coordinate {list(at)} is {float(points[at])}, not a finite number of size at most {MAX_COORDINATE:g}"
        )


class Configuration:
    """The alive point set at one time instant.

    Positions live in one array indexed by point id beside a boolean alive
    mask.  Ids are issued once, in increasing order, so ``ids()`` ascends
    and a written row never changes.  ``build_index`` attaches a uniform-grid
    index of the ids, which filters its candidates against this same
    array; neighbor queries fall back to a full scan when no index exists.
    ``from_points`` and ``add`` store nothing unless every coordinate is
    finite and at most ``MAX_COORDINATE`` in size.
    """

    def __init__(self, metric: Metric):
        self.metric = metric
        self._pos = np.empty((0, metric.dim))
        self._alive = np.zeros(0, dtype=bool)
        self._grid: Optional[GridIndex] = None
        self._next_id = 0

    @classmethod
    def from_points(cls, positions: NDArray, metric: Metric) -> "Configuration":
        """Configuration holding the rows of ``positions`` (shape ``(m, d)``,
        or one ``(d,)`` point) with ids ``0, 1, ...``."""
        pts = np.array(positions, dtype=float, ndmin=2)
        if pts.size == 0:  # [] has no coordinate axis
            pts = pts.reshape(0, pts.shape[-1] or metric.dim)
        if pts.ndim != 2 or pts.shape[1] != metric.dim:
            raise ValueError(f"positions must have shape (m, {metric.dim}), got {np.shape(positions)}")
        _check_coordinates(pts)
        config = cls(metric)
        config._pos = metric.wrap(pts)
        config._alive = np.ones(len(pts), dtype=bool)
        config._next_id = len(pts)
        return config

    def __len__(self) -> int:
        return int(np.count_nonzero(self._alive))

    def __contains__(self, pid: int) -> bool:
        return 0 <= pid < self._next_id and bool(self._alive[pid])

    @property
    def next_id(self) -> int:
        return self._next_id

    def ids(self) -> NDArray:
        return np.flatnonzero(self._alive)

    def position(self, pid: int) -> NDArray:
        if pid not in self:
            raise KeyError(pid)
        return self._pos[pid]

    def positions_array(self, pids: Optional[Sequence[int]] = None) -> NDArray:
        """Positions of the alive points, or of the ids ``pids`` in their
        order; a ``KeyError`` unless every id is issued and alive."""
        if pids is None:
            return self._pos[self._alive]
        idx = np.asarray(pids, dtype=np.intp)
        # the range test first, with negative ids read as huge unsigned ones,
        # so that none indexes from the end
        if not (idx.view(np.uintp) < self._next_id).all() or not self._alive[idx].all():
            raise KeyError(f"point ids not all alive: {pids!r}")
        return self._pos[idx]

    def add(self, position: NDArray, pid: Optional[int] = None) -> int:
        position = np.asarray(position, dtype=float)
        if position.shape != (self.metric.dim,):
            raise ValueError(f"position must have shape ({self.metric.dim},), got {position.shape}")
        _check_coordinates(position)
        if pid is None:
            pid = self._next_id
        if pid < self._next_id:
            raise KeyError(f"point id {pid} was already issued")
        if pid >= len(self._alive):  # grow both arrays, at least doubling them
            grow = max(len(self._alive), pid + 1 - len(self._alive))
            self._pos = np.pad(self._pos, ((0, grow), (0, 0)))
            self._alive = np.pad(self._alive, (0, grow))
        self._pos[pid] = self.metric.wrap(position)
        self._alive[pid] = True
        self._next_id = pid + 1
        if self._grid is not None:
            self._grid.insert([pid], self._pos[pid, None])
        return pid

    def remove(self, pid: int) -> None:
        if pid not in self:
            raise KeyError(pid)
        self._alive[pid] = False
        if self._grid is not None:
            self._grid.remove(pid)

    def build_index(self, cell_size: float) -> None:
        grid = GridIndex(self.metric, cell_size)
        ids = self.ids()
        grid.insert(ids.tolist(), self._pos[ids])
        self._grid = grid

    @property
    def indexed(self) -> bool:
        return self._grid is not None

    def neighbors_within(self, x: NDArray, rho: float) -> NDArray:
        """Ascending ``np.intp`` ids of the alive points within closed
        distance ``rho`` of ``x``."""
        if self._grid is not None:
            return self._grid.query(x, rho, self._pos)
        pids = self.ids()
        return pids[self.metric.distance_many(x, self._pos[pids]) <= rho]

    def apply_event(self, event: Event) -> None:
        if event.kind == "birth":
            self.add(event.point.position, pid=event.point.pid)
        else:
            self.remove(event.point.pid)


def sample_stationary(
    config: SimulationConfig, rng: Optional[np.random.Generator] = None
) -> Configuration:
    """Draw the stationary state: Poisson(n) many i.i.d. density points."""
    if rng is None:
        rng = config.rng()
    count = int(rng.poisson(config.n))
    positions = config.density.sample(rng, count)
    return Configuration.from_points(positions, config.metric)


def simulate_events(
    config: SimulationConfig,
    initial: Configuration,
    rng: Optional[np.random.Generator] = None,
) -> EventStream:
    """Run the event-driven engine from ``initial`` over ``(0, horizon]``.

    With ``m`` points alive the next event fires after an Exp(n + m) wait
    and is a birth with probability ``n / (n + m)``, else the death of a
    uniformly chosen alive point.  Birth events carry the point's full
    lifetime: points still alive at the horizon get the remainder of an
    independent unit exponential appended, which leaves the law of the
    stream unchanged (deaths are memoryless) while making recorded
    lifetimes exactly Exp(1) rather than censored.
    """
    if rng is None:
        rng = config.rng()
    n = float(config.n)
    horizon = float(config.horizon)
    density = config.density

    alive: list[int] = initial.ids().tolist()
    born_point: dict[int, MarkedPoint] = {}
    next_id = initial.next_id

    events: list[Event] = []
    t = 0.0
    while True:
        m = len(alive)
        t += rng.exponential(1.0 / (n + m))
        if t > horizon:
            break
        if rng.random() < n / (n + m):
            pos = density.sample(rng, 1)[0]
            point = MarkedPoint(next_id, pos, t, np.nan)
            born_point[next_id] = point
            alive.append(next_id)
            next_id += 1
            events.append(Event(t, "birth", point))
        else:
            slot = int(rng.integers(m))
            pid = alive[slot]
            last = alive.pop()
            if last != pid:
                alive[slot] = last
            point = born_point.get(pid)
            if point is None:
                point = MarkedPoint(pid, initial.position(pid), 0.0, t)
            else:
                point.lifetime = t - point.birth
            events.append(Event(t, "death", point))
    # complete the lifetimes of points still alive at the horizon
    for pid in alive:
        point = born_point.get(pid)
        if point is not None:
            point.lifetime = (horizon - point.birth) + rng.exponential(1.0)
    return EventStream(events=events, horizon=horizon, initial_count=len(initial))


def _marked_draw(config: SimulationConfig, rng: np.random.Generator) -> tuple[NDArray, NDArray, NDArray]:
    """Positions, birth times and lifetimes of a ``sample_marked`` draw."""
    horizon = float(config.horizon)
    total = int(rng.poisson(config.n * (1.0 + horizon)))
    positions = config.density.sample(rng, total)
    at_zero = rng.random(total) < 1.0 / (1.0 + horizon)
    births = np.where(at_zero, 0.0, rng.uniform(0.0, horizon, total))
    return positions, births, rng.exponential(1.0, total)


def sample_marked(
    config: SimulationConfig, rng: Optional[np.random.Generator] = None
) -> list[MarkedPoint]:
    """Draw every point alive at some moment of ``[0, horizon]`` in one shot.

    The union of all such points is Poisson with intensity ``n * (1 + T) * q``.
    Each point independently has birth time 0 with probability ``1/(1+T)``
    (it belongs to the initial state) and otherwise a birth time uniform on
    ``[0, T]``; lifetimes are Exp(1).
    """
    if rng is None:
        rng = config.rng()
    positions, births, lifetimes = _marked_draw(config, rng)
    return list(map(MarkedPoint, range(len(births)), positions, births.tolist(), lifetimes.tolist()))


def alive_count_path(stream: EventStream, times: Sequence[float]) -> NDArray:
    """Alive-point counts at the given increasing times."""
    counts = np.zeros(len(times), dtype=int)
    current = stream.initial_count
    idx = 0
    for event in stream.events:
        while idx < len(times) and times[idx] < event.time:
            counts[idx] = current
            idx += 1
        current += 1 if event.kind == "birth" else -1
    counts[idx:] = current
    return counts
