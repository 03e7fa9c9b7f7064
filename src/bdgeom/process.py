"""Spatial birth-death process on R^d or the unit torus.

Points are born at total rate ``n`` with i.i.d. locations drawn from a
probability density, and every alive point dies independently at unit rate.
The stationary law of the alive set is a Poisson process with intensity
``n * q``, which is how initial states are drawn.

Two exact samplers are provided:

* ``simulate_events``: the event-driven engine (competing exponential
  clocks), producing the full ordered event stream on ``(0, T]``.  It draws
  its waits and uniforms in blocks, decides each event and its dying slot
  by one uniform, and draws all birth positions in one block at the end;
  the stream is one ``EventArrays`` of per-event columns;
* ``sample_marked``: the static construction that draws all points that are
  ever alive during ``[0, T]`` in one shot, each carrying a birth time and
  lifetime, from which any time slice can be read off.

``Configuration.net_change`` reads a batch of event rows as one update
(deaths of points alive at its start, births of points alive at its end);
``Configuration.apply_events`` and ``SubsetTracker.apply_events`` both
apply it.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Literal, Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .functionals import ConfigError
from .geometry import GridIndex, Metric, csr_starts


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


@dataclass(frozen=True, eq=False)
class EventArrays:
    """A time-ordered run of events as parallel arrays, one row per event.

    ``time (E,)`` float, ``birth (E,)`` bool (a birth, else a death),
    ``pid (E,)`` ``np.intp``, ``position (E, d)``, and the point's own
    ``born_at (E,)`` (0 for a point of the initial state) and
    ``lifetime (E,)``.  A slice is a view of the same arrays; an integer
    index, negative ones too, and iteration build the ``Event`` and its
    ``MarkedPoint`` on demand.
    """

    time: NDArray
    birth: NDArray
    pid: NDArray
    position: NDArray
    born_at: NDArray
    lifetime: NDArray

    @classmethod
    def of(cls, events: "EventArrays | Sequence[Event]") -> "EventArrays":
        """``events`` as arrays: itself if it already is, else one pass
        over the ``Event`` objects.  Their positions must share one shape."""
        if isinstance(events, EventArrays):
            return events
        events = list(events)
        points = [event.point for event in events]
        positions = [np.asarray(point.position, dtype=float) for point in points]
        shapes = sorted({position.shape for position in positions})
        if len(shapes) > 1:
            raise ValueError(f"event positions must share one shape, got {shapes[0]} and {shapes[1]}")
        return cls(
            np.array([event.time for event in events], dtype=float),
            np.array([event.kind == "birth" for event in events], dtype=bool),
            np.array([point.pid for point in points], dtype=np.intp),
            np.array(positions).reshape((len(events),) + (shapes[0] if shapes else (0,))),
            np.array([point.birth for point in points], dtype=float),
            np.array([point.lifetime for point in points], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return EventArrays(*(getattr(self, column.name)[key] for column in fields(self)))
        point = MarkedPoint(int(self.pid[key]), self.position[key], float(self.born_at[key]), float(self.lifetime[key]))
        return Event(float(self.time[key]), "birth" if self.birth[key] else "death", point)

    def __iter__(self):
        for time, birth, pid, position, born_at, lifetime in zip(
            self.time.tolist(), self.birth.tolist(), self.pid.tolist(), self.position,
            self.born_at.tolist(), self.lifetime.tolist(),
        ):
            yield Event(time, "birth" if birth else "death", MarkedPoint(pid, position, born_at, lifetime))


@dataclass
class EventStream:
    """Time-ordered events on ``(0, horizon]`` plus the initial point count.
    ``events`` may be given as a sequence of ``Event``s, which is turned
    into ``EventArrays`` once."""

    events: EventArrays
    horizon: float
    initial_count: int

    def __post_init__(self):
        self.events = EventArrays.of(self.events)

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)


# unit exponentials and uniforms the event engine draws at a time
DRAW_BLOCK = 4096

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
    ``from_points``, ``add`` and ``apply_events`` store nothing unless every
    coordinate is finite and at most ``MAX_COORDINATE`` in size.
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
        if not self._holds(idx).all():
            raise KeyError(f"point ids not all alive: {pids!r}")
        return self._pos[idx]

    def _holds(self, pids: NDArray) -> NDArray:
        """Whether each of the ids ``pids`` is issued and alive."""
        # the range test first, with negative ids read as huge unsigned ones,
        # so that none indexes from the end
        pids = np.asarray(pids, dtype=np.intp)
        held = pids.view(np.uintp) < self._next_id
        held[held] = self._alive[pids[held]]
        return held

    def _checked_position(self, position: NDArray) -> NDArray:
        position = np.asarray(position, dtype=float)
        if position.shape != (self.metric.dim,):
            raise ValueError(f"position must have shape ({self.metric.dim},), got {position.shape}")
        return position

    def _reserve(self, size: int) -> None:
        """Grow both arrays, at least doubling them, to hold ids below ``size``."""
        if size > len(self._alive):
            grow = max(len(self._alive), size - len(self._alive))
            self._pos = np.pad(self._pos, ((0, grow), (0, 0)))
            self._alive = np.pad(self._alive, (0, grow))

    def add(self, position: NDArray, pid: Optional[int] = None) -> int:
        position = self._checked_position(position)
        _check_coordinates(position)
        if pid is None:
            pid = self._next_id
        if pid < self._next_id:
            raise KeyError(f"point id {pid} was already issued")
        self._reserve(pid + 1)
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

    def net_change(self, events: EventArrays | Sequence[Event]) -> tuple[NDArray, NDArray, NDArray, int]:
        """The net change of a time-ordered batch of events on this
        configuration, which it leaves as it is: the ids of the points born
        in the batch and alive at its end (ascending) with their wrapped
        positions, the ids of the points alive at its start that die in it
        (ascending), and the next id to issue after it.  Every birth gets
        ``add``'s checks, one born and dead inside the batch too: its id
        must not be issued yet and its position must have shape ``(d,)``
        with every coordinate finite and at most ``MAX_COORDINATE`` in
        size.  A death must name a point alive at its turn: alive at the
        batch start or born earlier in it, and not dead already."""
        events = EventArrays.of(events)
        birth = events.birth
        born = events.pid[birth]
        # the largest id issued before each birth
        issued = np.concatenate([[self._next_id - 1], born[:-1]])
        if (born <= issued).any():
            raise KeyError(f"point id {born[np.argmax(born <= issued)]} was already issued")
        dim = self.metric.dim
        if len(born) and events.position.shape[1:] != (dim,):
            raise ValueError(f"position must have shape ({dim},), got {events.position.shape[1:]}")
        rows = np.flatnonzero(~birth)
        died = events.pid[rows]
        at = np.searchsorted(born, died)
        in_batch = at < len(born)
        in_batch[in_batch] = born[at[in_batch]] == died[in_batch]
        alive = self._holds(died)
        alive[in_batch] = np.flatnonzero(birth)[at[in_batch]] < rows[in_batch]
        again = np.ones(len(died), dtype=bool)
        again[np.unique(died, return_index=True)[1]] = False
        bad = ~alive | again
        if bad.any():
            raise KeyError(int(died[np.argmax(bad)]))
        points = events.position[birth].reshape(len(born), dim)
        _check_coordinates(points)
        kept = np.ones(len(born), dtype=bool)
        kept[at[in_batch]] = False
        next_id = int(born[-1]) + 1 if len(born) else self._next_id
        return born[kept], self.metric.wrap(points[kept]), np.sort(died[~in_batch]), next_id

    def apply_events(self, events: EventArrays | Sequence[Event]) -> None:
        """Apply a time-ordered batch of events as one update of its
        ``net_change``.  A refused batch changes nothing."""
        kept, points, gone, next_id = self.net_change(events)
        self._reserve(next_id)
        self._pos[kept] = points
        self._alive[kept] = True
        self._alive[gone] = False
        self._next_id = next_id
        if self._grid is not None:
            self._grid.remove(gone)
            self._grid.insert(kept, self._pos[kept])

    def build_index(self, cell_size: float) -> None:
        grid = GridIndex(self.metric, cell_size)
        ids = self.ids()
        grid.insert(ids.tolist(), self._pos[ids])
        self._grid = grid

    @property
    def indexed(self) -> bool:
        return self._grid is not None

    def neighbors_within(self, xs: NDArray, rho: float) -> tuple[NDArray, NDArray]:
        """The alive points within closed distance ``rho`` of each row of
        ``xs`` ``(q, d)``, as a CSR ``(starts, ids)`` of ``np.intp`` arrays
        with each row's ids ascending (as from ``GridIndex.query``).
        Without an index every point is tested against every row."""
        if self._grid is not None:
            return self._grid.query(xs, rho, self._pos)
        xs = np.asarray(xs, dtype=float).reshape(-1, self.metric.dim)
        pids = self.ids()
        rows, cols = np.nonzero(self.metric.distance_many(xs[:, None, :], self._pos[pids]) <= rho)
        return csr_starts(rows, len(xs)), pids[cols]

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
    uniformly chosen alive point.  The waits and the choices come from
    blocks of ``DRAW_BLOCK`` unit exponentials and uniforms.  One uniform
    ``U`` decides both: with ``x = U * (n + m)`` the event is a birth iff
    ``x < n``, and otherwise the point in slot ``min(int(x - n), m - 1)``
    of the alive list dies (the clamp covers ``U * (n + m)`` rounded up to
    ``n + m``).  The birth positions are drawn in one block after
    the last event.  Every event row carries its point's full lifetime:
    points born and still alive at the horizon get the remainder of an
    independent unit exponential appended, which leaves the law of the
    stream unchanged (deaths are memoryless) while making recorded
    lifetimes exactly Exp(1) rather than censored.
    """
    if rng is None:
        rng = config.rng()
    n = float(config.n)
    horizon = float(config.horizon)

    alive: list[int] = initial.ids().tolist()
    first_new = next_id = initial.next_id
    times: list[float] = []
    codes: list[int] = []  # a birth's id, or ~id for a death
    t = 0.0
    while t <= horizon:
        uniforms = rng.random(DRAW_BLOCK).tolist()
        for wait, u in zip(rng.standard_exponential(DRAW_BLOCK).tolist(), uniforms):
            m = len(alive)
            t += wait / (n + m)
            if t > horizon:
                break
            x = u * (n + m)
            if x < n:
                alive.append(next_id)
                codes.append(next_id)
                next_id += 1
            else:
                slot = min(int(x - n), m - 1)
                codes.append(~alive[slot])
                alive[slot] = alive[-1]
                alive.pop()
            times.append(t)
    time = np.array(times)
    code = np.array(codes, dtype=np.intp)
    birth = code >= 0
    pid = np.where(birth, code, ~code)
    # the points born in the stream, by id - first_new
    new = pid >= first_new
    fresh = pid[new] - first_new
    new_pos = config.density.sample(rng, next_id - first_new)
    start = time[birth]
    end = np.full(len(start), np.nan)
    end[fresh[~birth[new]]] = time[new & ~birth]
    still = np.isnan(end)
    lifetime_new = end - start
    lifetime_new[still] = (horizon - start[still]) + rng.standard_exponential(np.count_nonzero(still))
    # rows of points of the initial state: born at 0, dead at the row's time
    position = np.empty((len(pid), config.dim))
    position[new] = new_pos[fresh]
    position[~new] = initial.positions_array(pid[~new])
    born_at = np.zeros(len(pid))
    born_at[new] = start[fresh]
    lifetime = time.copy()
    lifetime[new] = lifetime_new[fresh]
    events = EventArrays(time, birth, pid, position, born_at, lifetime)
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


def _checked_times(times: Sequence[float]) -> NDArray:
    """Sample times as an array; a ``ValueError`` unless they are a finite,
    non-decreasing sequence."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all() or (np.diff(times) < 0).any():
        raise ValueError(f"sample times must be a finite, non-decreasing sequence, got shape {times.shape}")
    return times


def stream_cuts(stream: EventStream, times: Sequence[float]) -> NDArray:
    """For each sample time, the number of leading events of the stream
    with ``time <= t``, from one ``searchsorted``.  A ``ValueError`` unless
    the times are finite and non-decreasing and the event times do not
    decrease."""
    times = _checked_times(times)
    event_times = stream.events.time
    if (event_times[1:] < event_times[:-1]).any():
        raise ValueError("event times must not decrease")
    return np.searchsorted(event_times, times, side="right")


def alive_count_path(stream: EventStream, times: Sequence[float]) -> NDArray:
    """Alive-point counts at the given non-decreasing times."""
    cuts = stream_cuts(stream, times)
    running = np.concatenate([[0], np.cumsum(np.where(stream.events.birth, 1, -1))])
    return stream.initial_count + running[cuts]
