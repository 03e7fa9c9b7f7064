"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed, runs a fixed list of
operations through the public functions of ``bdgeom`` (looked up on their
modules at call time, so a tracer can wrap them), checks every output
against ``reference`` and turns the timings into metrics.  Inputs follow the
acceptance battery: unit torus, ``d = 2``, uniform density, ``gamma = 1``.

The amount of work is fixed by ``--seconds`` alone, never by the clock: a
run does ``max(1, round(seconds / ROUND_SECONDS))`` rounds, so two runs with
the same arguments attempt the same operations.  Operation times are scaled
to the reference host speed by ``SpeedClock``; the unscaled times are kept
beside them.
"""
from __future__ import annotations

import contextlib
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

import reference
from spans import SpanTable

N = 1000
DIM = 2
GAMMA = 1.0

# check 07 of the acceptance battery: lags, model settings, and the empirical
# curve of its logged run (regenerate with the command in README.md)
CHECK07_LAGS = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
CHECK07_EMPIRICAL = np.array([1.000, 0.206, 0.071, 0.015, -0.003, 0.009])
CHECK07_BOUND = 0.07
EXCLUSIVE_SETTINGS = dict(vol_samples=8_000, max_rate=20, tail_tol=1e-3)
# at budget 1000 the certified tail of the triangle build reaches 8e-4 of
# the retained mass over a dozen seeds, too close to tail_tol; at 2000 it
# stays near 4e-4
EXCLUSIVE_BUDGET = 2_000

# t-quantile of 39 degrees of freedom (40 group means) at 1e-4 / 40, i.e. a
# Bonferroni bound over 20 weights with two tails, is 5.5: a build breaks
# the 6-error band by chance less often than once in 10**4
WEIGHT_ERRORS = 6.0
EXACT_TOL = 1e-12


def program_seed(seed: int, stream: int) -> int:
    """Seed handed to ``bdgeom``, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def interleave(counts: dict[str, int]) -> list[str]:
    """Spread each kind's operations evenly over the run, so that a slow
    stretch of the host falls on every kind alike."""
    slots = [((i + 0.5) / c, kind) for kind, c in counts.items() for i in range(c)]
    return [kind for _, kind in sorted(slots)]


_CAL_POINTS = np.random.default_rng(0).random((8000, DIM))


def _kernel() -> float:
    """Fixed calibration work in the program's mix: a Python loop over small
    numpy calls, then hit-or-miss tests of 8000 points against three discs."""
    acc = 0.0
    table = {}
    for i in range(20):
        delta = _CAL_POINTS[:64] - _CAL_POINTS[i]
        delta -= np.round(delta)
        acc += float(np.sqrt(np.sum(delta * delta, axis=1)).min())
        table[i & 15] = acc
    inside = np.zeros(len(_CAL_POINTS), dtype=bool)
    for center in _CAL_POINTS[:3]:
        delta = _CAL_POINTS - center
        inside |= np.sqrt(np.sum(delta * delta, axis=1)) <= 0.3
    return acc + float(np.count_nonzero(inside))


class SpeedClock:
    """Times operations and scales each to the reference host speed.

    The host's speed drifts by up to a quarter over seconds to minutes, for
    every process alike (README.md).  A calibration sample of ``_kernel``
    calls, about 8% of the operation's time, follows every operation; an
    operation's time is scaled by ``REFERENCE_KERNEL_S`` over the mean
    per-call kernel time of the samples on either side of it.  One untimed
    call starts each sample, so that the cache misses left by the operation
    do not count as host slowness.
    """

    # median time of one ``_kernel`` call on the reference host
    REFERENCE_KERNEL_S = 1.0e-3
    SHARE = 0.08

    def __init__(self, reps: int = 100):
        self.first = self.last = self.sample(reps)

    @staticmethod
    def sample(reps: int) -> float:
        _kernel()
        start = time.perf_counter()
        for _ in range(reps):
            _kernel()
        return (time.perf_counter() - start) / reps

    def scale(self, per_call: float) -> float:
        return self.REFERENCE_KERNEL_S / per_call

    def time(self, fn):
        """``(result, seconds, scaled seconds)`` of one call of ``fn``."""
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        before = self.last
        reps = max(1, round(self.SHARE * seconds / self.REFERENCE_KERNEL_S))
        self.last = self.sample(reps)
        return result, seconds, seconds * self.scale(0.5 * (before + self.last))


@dataclass
class Pass:
    """One pass over a workload's operations."""

    clock: SpeedClock = field(default_factory=SpeedClock)
    outputs: list = field(default_factory=list)
    seconds: dict = field(default_factory=dict)
    raw_seconds: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    # inputs the checks need beside the outputs, never compared between passes
    inputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def timed(self, kind: str, fn, count: int = 1):
        """Run ``fn`` and add its time to ``kind``'s totals."""
        result, seconds, scaled = self.clock.time(fn)
        self.seconds[kind] = self.seconds.get(kind, 0.0) + scaled
        self.raw_seconds[kind] = self.raw_seconds.get(kind, 0.0) + seconds
        self.counts[kind] = self.counts.get(kind, 0) + count
        return result


def _attempt(p: Pass, fn):
    """Run one operation; a raising operation counts as failed."""
    p.attempted += 1
    try:
        return fn()
    except Exception:  # noqa: BLE001 - a failed operation is reported, not fatal
        p.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None


def fingerprint(value):
    """Plain-list form of a pass's outputs, for comparing two passes."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [fingerprint(v) for v in value]
    if hasattr(value, "weights"):
        return fingerprint(value.weights)
    return value


def _no_span(name: str):
    return contextlib.nullcontext()


def _uniform_config(bd: SimpleNamespace, horizon: float, seed: int):
    density = bd.process.Density("uniform", DIM)
    return bd.process.SimulationConfig(
        n=N, dim=DIM, horizon=horizon, density=density, seed=seed, gamma=GAMMA
    )


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 for a layer the workload never calls."""
    return num / den if den else 0.0


def _per_op(seconds: float, ops: int) -> dict:
    """The end-to-end metric: scaled seconds per completed operation."""
    return {"s_per_op": _metric(_ratio(seconds, ops), "s/op")}


def layer_metrics(table: SpanTable, drawn: int = 0) -> dict:
    """Every per-layer metric, from the spans of one traced pass.

    Each workload reports the same names; a layer the workload does not
    call reads 0.  Per-pair and per-functional figures are split by the
    operation span at the root (``path.<pair>``, ``model.<functional>``).
    ``drawn`` is the number of tuple pairs the exclusive builds drew.
    """
    out = {
        "process.simulate_events.events_per_s": _metric(
            _ratio(table.unit_total("process.simulate_events"),
                   table.total("process.simulate_events")),
            "events/s",
        )
    }
    init, apply = "statistics.SubsetTracker.init", "statistics.SubsetTracker.apply_event"
    for label, (_, nbhd, _) in Paths.PAIRS.items():
        root = f"path.{label}"
        inits = table.calls(init, root)
        out[f"statistics.SubsetTracker.init_s.{label}"] = _metric(
            _ratio(table.total(init, root), inits), "s"
        )
        out[f"{apply}.events_per_s.{label}"] = _metric(
            _ratio(table.calls(apply, root), table.total(apply, root)), "events/s"
        )
        if nbhd is not None:
            out[f"statistics.SubsetTracker.registry_size.{label}"] = _metric(
                _ratio(table.unit_total(init, root), inits), "count"
            )
    for name in (
        "geometry.GridIndex.query",
        "geometry.Metric.distance_many",
        "geometry.circumball",
        "functionals.BallUnionRegion.contains_many",
        "functionals.pair_volumes",
    ):
        out[f"{name}.calls"] = _metric(table.calls(name), "count")
        out[f"{name}.self_s"] = _metric(table.self_total(name), "s")
    out["functionals.NeighborhoodMap.build.calls"] = _metric(
        table.calls("functionals.NeighborhoodMap.build"), "count"
    )
    out["functionals.pair_volumes.hit_ratio"] = _metric(
        _ratio(table.calls("functionals.pair_volumes"), drawn), "ratio"
    )
    for name in ("process.sample_marked", "process.Configuration.from_points"):
        out[f"{name}.s"] = _metric(_ratio(table.total(name), table.calls(name)), "s")
    evaluate = "statistics.evaluate_statistic"
    out[f"{evaluate}.ms_per_config"] = _metric(
        1e3 * _ratio(table.total(evaluate), table.calls(evaluate)), "ms/config"
    )
    out["verify.estimate_covariance.s"] = _metric(table.total("verify.estimate_covariance"), "s")
    exclusive = "theory.exclusive_mixture_model"
    for kind in ("isolated_triangles", "isolated_points"):
        root = f"model.{kind}"
        out[f"{exclusive}.s.{kind}"] = _metric(
            _ratio(table.total(exclusive, root), table.calls(exclusive, root)), "s"
        )
    out["theory.mixture_model.s"] = _metric(
        _ratio(table.total("theory.mixture_model"), table.calls("theory.mixture_model")), "s"
    )
    return out


def trace_targets(bd: SimpleNamespace) -> list[tuple]:
    """(owner, attribute, span name, units) for every wrapped layer call.

    Each entry names the attribute its callers look up: ``sample_path``
    reads ``simulate_events`` from ``statistics``, and ``theory`` and
    ``functionals`` import ``pair_volumes`` and ``circumball`` by name.
    """
    return [
        (bd.statistics, "simulate_events", "process.simulate_events",
         lambda args, result: len(result)),
        (bd.process, "sample_marked", "process.sample_marked", None),
        (bd.process.Configuration, "from_points", "process.Configuration.from_points", None),
        (bd.statistics.SubsetTracker, "__init__", "statistics.SubsetTracker.init",
         lambda args, result: args[0].registry_size),
        (bd.statistics.SubsetTracker, "apply_event", "statistics.SubsetTracker.apply_event", None),
        (bd.statistics, "evaluate_statistic", "statistics.evaluate_statistic", None),
        (bd.geometry.GridIndex, "query", "geometry.GridIndex.query", None),
        (bd.geometry.Metric, "distance_many", "geometry.Metric.distance_many", None),
        (bd.functionals, "circumball", "geometry.circumball", None),
        (bd.functionals.BallUnionRegion, "contains_many",
         "functionals.BallUnionRegion.contains_many", None),
        (bd.functionals.NeighborhoodMap, "build", "functionals.NeighborhoodMap.build", None),
        (bd.theory, "pair_volumes", "functionals.pair_volumes", None),
        (bd.theory, "exclusive_mixture_model", "theory.exclusive_mixture_model", None),
        (bd.theory, "mixture_model", "theory.mixture_model", None),
        (bd.verify, "estimate_covariance", "verify.estimate_covariance", None),
    ]


# ---------------------------------------------------------------------------
# paths: the ``bdgeom simulate`` route


class Paths:
    """``sample_path`` at ``n = 1000`` and horizon 4 for three
    functional/region pairs.

    The horizon is that of the documented tracker baseline (ROADMAP item 1,
    about 8000 events a path), so tracker init and ``apply_event`` keep the
    shares of the ``bdgeom simulate`` route.  The plain edge count enumerates
    subsets on every event; the two exclusive pairs keep a registry of
    counted subsets and flip their vacancy.  On the reference host one path
    takes about 2 s (edges), 7 s (isolated triangles) and 15-18 s (Gabriel
    edges), so a round of three, two and one paths lasts about 36 s.  The
    work of an isolated-triangle path depends on its configuration (about
    10% from seed to seed), hence two of them.
    """

    ROUND_SECONDS = 30.0
    HORIZON = 4.0
    STEP = 0.25
    # label -> (selector, neighborhood, paths per round)
    PAIRS = {
        "edges": ("clique:2", None, 3),
        "isotriangles": ("clique:3", "balls", 2),
        "morse1": ("morse:1", "circumball", 1),
    }
    ORACLES = {
        "edges": reference.edge_count,
        "isotriangles": reference.isolated_triangle_count,
        "morse1": reference.gabriel_edge_count,
    }

    def __init__(self, bd: SimpleNamespace, seed: int, seconds: float):
        self.bd = bd
        rounds = max(1, round(seconds / self.ROUND_SECONDS))
        self.config = _uniform_config(bd, self.HORIZON, program_seed(seed, 1))
        self.r = self.config.interaction_radius
        self.times = np.arange(0.0, self.HORIZON + 1e-9, self.STEP)
        self.pairs = {
            label: (
                bd.functionals.from_selector(selector),
                bd.functionals.neighborhood_from_selector(nbhd) if nbhd else None,
            )
            for label, (selector, nbhd, _) in self.PAIRS.items()
        }
        self.schedule = interleave(
            {label: per_round * rounds for label, (_, _, per_round) in self.PAIRS.items()}
        )

    def _path(self, p: Pass, rep: int, label: str, span):
        """Path ``rep`` of ``sample_path``, run piece by piece.

        The calls are those of ``statistics.sample_path``, looked up where it
        looks them up and in its order: the stationary draw,
        ``simulate_events``, ``SubsetTracker`` init and ``replay``.  The
        replay runs one sample interval at a time; the last piece also
        applies any events after the last sample time.  Each piece is timed,
        and the generator yields after it so that ``run`` can interleave the
        paths.  Returns the sampled values.
        """
        statistics = self.bd.statistics
        functional, nbhd = self.pairs[label]

        def timed(fn):
            with span(f"path.{label}"):
                return p.timed(label, fn, count=0)

        rng = self.config.rng(rep)
        state = timed(lambda: statistics.sample_stationary(self.config, rng))
        initial = {pid: np.array(state.position(pid)) for pid in state.ids()}
        yield
        stream = timed(lambda: statistics.simulate_events(self.config, state, rng))
        yield
        tracker = timed(lambda: statistics.SubsetTracker(state, functional, self.r, nbhd))
        yield
        event_times = [event.time for event in stream.events]
        cuts = np.searchsorted(event_times, self.times, side="right")
        cuts[-1] = len(event_times)
        values = []
        for i, t in enumerate(self.times):
            piece = replace(stream, events=stream.events[cuts[i - 1] if i else 0:cuts[i]])
            values.append(
                timed(lambda: statistics.replay(state, piece, [tracker], [t])[0, 0])
            )
            yield
        p.inputs[rep] = (initial, stream)
        return np.array(values)

    def run(self, span=_no_span) -> Pass:
        """All paths at once, one piece of each in turn, so that every pair's
        time is spread over the whole run."""
        p = Pass()
        values = {}
        live = {rep: self._path(p, rep, label, span) for rep, label in enumerate(self.schedule)}
        p.attempted = len(live)
        while live:
            for rep in list(live):
                try:
                    next(live[rep])
                except StopIteration as stop:
                    values[rep] = stop.value
                    del live[rep]
                except Exception:  # noqa: BLE001 - a failed path is reported, not fatal
                    p.failed += 1
                    traceback.print_exc(file=sys.stderr)
                    del live[rep]
        p.outputs = [(rep, label, values.get(rep)) for rep, label in enumerate(self.schedule)]
        return p

    def check(self, p: Pass) -> list[str]:
        """Replay each path's event stream without ``bdgeom`` and count the
        statistic on the alive positions at every sample time."""
        bad = []
        for rep, label, values in p.outputs:
            if values is None:
                continue
            initial, stream = p.inputs[rep]
            events = [
                (e.time, e.kind, e.point.pid, np.array(e.point.position)) for e in stream
            ]
            alive = reference.replay_alive(initial, events, self.times)
            kept = [
                stream.initial_count
                + sum(1 if kind == "birth" else -1 for time_, kind, _, _ in events if time_ <= t)
                for t in self.times
            ]
            counts = [self.ORACLES[label](pts, self.r) for pts in alive]
            if [len(pts) for pts in alive] != kept:
                bad.append(f"path {rep} ({label}): alive counts differ from the stream")
            if not np.array_equal(np.asarray(values), np.asarray(counts, dtype=float)):
                bad.append(f"path {rep} ({label}): tracker {list(values)} != oracle {counts}")
        return bad

    def end_to_end(self, p: Pass) -> dict:
        return _per_op(sum(p.seconds.values()), p.attempted - p.failed)

    def per_layer(self, p: Pass, table: SpanTable) -> dict:
        return layer_metrics(table)


# ---------------------------------------------------------------------------
# slices: the check 07 slice route


class Slices:
    """Isolated-triangle counts on slices of ``sample_marked`` draws.

    Each draw covers horizon 8 and is sliced every 0.25; each slice goes
    through ``Configuration.from_points`` and the from-scratch exclusive
    ``evaluate_statistic``, and ``estimate_covariance`` runs over the value
    matrix at check 07's lags.
    """

    ROUND_SECONDS = 30.0
    HORIZON = 8.0
    STEP = 0.25
    DRAWS_PER_ROUND = 9

    def __init__(self, bd: SimpleNamespace, seed: int, seconds: float):
        self.bd = bd
        rounds = max(1, round(seconds / self.ROUND_SECONDS))
        self.draws = self.DRAWS_PER_ROUND * rounds
        self.config = _uniform_config(bd, self.HORIZON, program_seed(seed, 2))
        self.metric = self.config.metric
        self.r = self.config.interaction_radius
        self.times = np.arange(0.0, self.HORIZON + 1e-9, self.STEP)
        self.functional = bd.functionals.make_clique(3)
        self.nbhd = bd.functionals.NeighborhoodMap("balls")

    def _slices(self, rep: int, span) -> tuple[list, list]:
        with span("slices.sample"):
            marked = self.bd.process.sample_marked(self.config, self.config.rng(rep))
        pos = np.array([m.position for m in marked]).reshape(-1, DIM)
        births = np.array([m.birth for m in marked])
        ends = births + np.array([m.lifetime for m in marked])
        return [pos[(births <= t) & (t < ends)] for t in self.times]

    def run(self, span=_no_span) -> Pass:
        p = Pass()
        process, statistics = self.bd.process, self.bd.statistics
        matrix = np.zeros((self.draws, len(self.times)))
        slices = []
        for rep in range(self.draws):
            draw = p.timed("configs", lambda: self._slices(rep, span), count=0)
            for col, pts in enumerate(draw):

                def op():
                    with span("slices.config"):
                        return p.timed(
                            "configs",
                            lambda: statistics.evaluate_statistic(
                                process.Configuration.from_points(pts, self.metric),
                                self.functional, self.r, self.nbhd,
                            ),
                        )

                value = _attempt(p, op)
                matrix[rep, col] = np.nan if value is None else value
            slices.append(draw)
        estimate = None
        if p.failed == 0:
            with span("slices.estimate"):
                estimate = p.timed(
                    "configs",
                    lambda: self.bd.verify.estimate_covariance((self.times, matrix), CHECK07_LAGS),
                    count=0,
                )
        p.outputs = [matrix, slices, None if estimate is None else estimate.values]
        return p

    def check(self, p: Pass) -> list[str]:
        matrix, slices, estimate = p.outputs
        bad = []
        for rep, draw in enumerate(slices):
            for col, pts in enumerate(draw):
                want = reference.isolated_triangle_count(pts, self.r)
                got = matrix[rep, col]
                if not np.isnan(got) and got != want:
                    bad.append(f"draw {rep} slice {col}: evaluate_statistic {got} != {want}")
        if estimate is not None:
            want = reference.pooled_autocovariance(matrix, self.STEP, CHECK07_LAGS)
            gap = float(np.max(np.abs(estimate - want)))
            if not gap <= EXACT_TOL:
                bad.append(f"estimate_covariance differs from the pooled estimate by {gap:.3g}")
        return bad

    def end_to_end(self, p: Pass) -> dict:
        return _per_op(p.seconds["configs"], p.counts["configs"])

    def per_layer(self, p: Pass, table: SpanTable) -> dict:
        return layer_metrics(table)


# ---------------------------------------------------------------------------
# models: mixture-model builds, no simulation


class Models:
    """Limit-model builds at check 07's settings with a smaller budget.

    Exclusive builds for isolated triangles and isolated points run the
    per-hit harmonic loop and ``pair_volumes``; the plain triangle build runs
    the vectorised Monte Carlo rate integrals of the same module.
    """

    ROUND_SECONDS = 30.0
    # kind -> builds per round
    KINDS = {"isolated_triangles": 2, "isolated_points": 3, "triangles_plain": 8}

    def __init__(self, bd: SimpleNamespace, seed: int, seconds: float):
        self.bd = bd
        rounds = max(1, round(seconds / self.ROUND_SECONDS))
        self.density = bd.process.Density("uniform", DIM)
        self.balls = bd.functionals.NeighborhoodMap("balls")
        self.triangle = bd.functionals.make_clique(3)
        self.point = bd.functionals.make_clique(1)
        self.edge = bd.functionals.make_clique(2)
        self.schedule = interleave(
            {kind: per_round * rounds for kind, per_round in self.KINDS.items()}
        )
        self.seeds = [program_seed(seed, 100 + i) for i in range(len(self.schedule) + 1)]

    def _build(self, kind: str, seed: int):
        theory = self.bd.theory
        if kind == "triangles_plain":
            return theory.mixture_model(self.triangle, self.density, GAMMA, seed=seed)
        functional = self.triangle if kind == "isolated_triangles" else self.point
        return theory.exclusive_mixture_model(
            functional, self.balls, self.density, GAMMA,
            budget=EXCLUSIVE_BUDGET, seed=seed, **EXCLUSIVE_SETTINGS,
        )

    def run(self, span=_no_span) -> Pass:
        p = Pass()
        for kind, seed in zip(self.schedule, self.seeds):

            def op():
                with span(f"model.{kind}"):
                    return p.timed(kind, lambda: self._build(kind, seed))

            p.outputs.append((kind, _attempt(p, op)))
        return p

    def check(self, p: Pass) -> list[str]:
        bad = []
        points = reference.isolated_point_weights(GAMMA, EXCLUSIVE_SETTINGS["max_rate"])
        plain = reference.triangle_plain_weights(GAMMA)
        for i, (kind, model) in enumerate(p.outputs):
            if model is None:
                continue
            if kind == "isolated_triangles":
                gap = float(np.max(np.abs(model.curve(CHECK07_LAGS) - CHECK07_EMPIRICAL)))
                if not gap <= CHECK07_BOUND:
                    bad.append(f"build {i}: isolated-triangle curve {gap:.3f} from check 07")
                continue
            want = points if kind == "isolated_points" else plain
            if not np.all(np.abs(model.weights - want) <= WEIGHT_ERRORS * model.weight_errors):
                z = np.abs(model.weights - want) / model.weight_errors
                bad.append(f"build {i} ({kind}): weights {z.max():.2f} errors from quadrature")
        # Monte Carlo edge build against the closed form
        model = _attempt(
            p,
            lambda: self.bd.theory.mixture_model(
                self.edge, self.density, GAMMA, seed=self.seeds[-1], method="monte-carlo"
            ),
        )
        if model is not None:
            gap = float(np.max(np.abs(model.weights - reference.edge_plain_weights(GAMMA))))
            if not gap <= EXACT_TOL:
                bad.append(f"Monte Carlo edge weights {gap:.3g} from pi^2 / (pi^2 + pi/2)")
        return bad

    def end_to_end(self, p: Pass) -> dict:
        return _per_op(sum(p.seconds.values()), sum(p.counts.values()))

    def per_layer(self, p: Pass, table: SpanTable) -> dict:
        drawn = sum(
            (self.triangle.k + 1 if kind == "isolated_triangles" else self.point.k + 1)
            * EXCLUSIVE_BUDGET
            for kind, model in p.outputs
            if model is not None and kind != "triangles_plain"
        )
        return layer_metrics(table, drawn)


WORKLOADS = {"paths": Paths, "slices": Slices, "models": Models}
