"""Command-line interface: configuration, orchestration, report emission.

Subcommands:
    simulate     event-driven statistic paths -> paths.csv
    theory       limit covariance mixture -> model.json
    covariance   paths + empirical vs theoretical covariance -> cov.csv
    gaussianity  Kolmogorov distance of the standardized statistic
    oracle       moment-identity battery
    euler        critical-point alternating-sum battery
    full         the complete acceptance battery

Configuration comes from a JSON file; flags override file fields; the seed
can also come from the BD_GEOM_SEED environment variable (flag > env >
file).  A file field that no subcommand reads, or a ``--set`` key that the
subcommand does not read, is invalid.  All outputs are deterministic given
the seed: reruns are byte-identical.  Exit codes: 0 success / all checks
pass, 1 a check failed, 2 invalid configuration.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import suite
from .functionals import ConfigError, from_selector, neighborhood_from_selector
from .process import SimulationConfig, density_from_spec, sample_stationary
from .statistics import _scale_radii, evaluate_statistic, sample_path
from .theory import TruncationError, exclusive_mixture_model, mixture_model
from .verify import estimate_covariance, kolmogorov_distance


# ---------------------------------------------------------------------------
# configuration plumbing

# Largest accepted work estimate: simulated events (about n(1 + 2T) a path),
# sampled points, grid points or Monte Carlo draws.  At about 300 B an event,
# one path at the limit holds about 3 GB; check 05's size is 6.6e6 events.
MAX_WORK = 10**7


def check_work(what: str, amount: float) -> None:
    if not amount <= MAX_WORK:  # NaN fails too
        raise ConfigError(f"{what} would be about {amount:.3g}, above the limit of {MAX_WORK:.0e}")


def _number(value, field: str, kind=float):
    """A numeric config value as ``kind``, or a ``ConfigError`` naming the
    field.  An ``int`` field takes only whole values within float range: a
    fraction is not truncated, and a work estimate built from it in floats
    cannot overflow."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field {field!r} must be a number, got {value!r}")
    if kind is int and ((isinstance(value, float) and value != number) or abs(number) > sys.float_info.max):
        raise ConfigError(f"config field {field!r} must be a whole number within float range")
    return number


# config fields each command reads; all of them read the seed and the output directory
_SIM_KEYS = {"n", "dim", "horizon", "density", "gamma", "r", "functional", "neighborhood"}
_MODEL_KEYS = {"functional", "neighborhood", "dim", "density", "gamma", "budget", "method",
               "vol_samples", "max_rate", "tail_tol"}
_READS = {
    command: keys | {"seed", "out"}
    for command, keys in {
        "simulate": _SIM_KEYS | {"sample_times", "replications"},
        "theory": _MODEL_KEYS,
        "covariance": _SIM_KEYS | _MODEL_KEYS | {"sample_times", "lags", "replications", "tolerance"},
        "gaussianity": _SIM_KEYS | {"replications", "threshold"},
        "oracle": {"seeds"},
        "euler": set(),
        "full": {"checks"},
    }.items()
}


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    # one file may serve several commands, so a field any of them reads is kept
    unread = sorted(set(cfg).difference(*_READS.values()))
    if unread:
        raise ConfigError(f"config file {path} has fields no command reads: {unread}")
    return cfg


def _resolve_seed(flag_seed: Optional[int], cfg: dict) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("BD_GEOM_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"BD_GEOM_SEED must be an integer, got {env!r}")
    return _number(cfg.get("seed", 0), "seed", int)


def _time_grid(spec, name: str) -> np.ndarray:
    if isinstance(spec, dict):
        try:
            start, stop, step = (_number(spec[key], f"{name}.{key}") for key in ("start", "stop", "step"))
        except KeyError as exc:
            raise ConfigError(f"{name} grid needs start/stop/step, missing {exc}")
        if step <= 0 or stop < start:
            raise ConfigError(f"{name} grid must have step > 0 and stop >= start")
        check_work(f"the {name} grid length", (stop - start) / step + 1.0)
        return np.arange(start, stop + step / 2.0, step)
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{name} must be a non-empty list of times")
    grid = np.array([_number(t, name) for t in spec])
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"{name} must be strictly increasing")
    return grid


def _sim_config(cfg: dict, seed: int) -> SimulationConfig:
    if "n" not in cfg:
        raise ConfigError("config field 'n' is required")
    dim = _number(cfg.get("dim", 2), "dim", int)
    return SimulationConfig(
        n=_number(cfg["n"], "n"),
        dim=dim,
        horizon=_number(cfg.get("horizon", 0.0), "horizon"),
        density=_density(cfg, dim),
        seed=seed,
        gamma=(_number(cfg["gamma"], "gamma") if "gamma" in cfg else None),
    )


def _density(cfg: dict, dim: int):
    spec = cfg.get("density", "uniform")
    if isinstance(spec, dict) and "sigma" in spec:
        spec = {**spec, "sigma": _number(spec["sigma"], "density.sigma")}
    return density_from_spec(spec, dim)


def _radius(cfg: dict, config: SimulationConfig) -> float:
    if "r" in cfg:
        return _number(cfg["r"], "r")
    return config.interaction_radius  # gamma-first: r = (gamma / n) ** (1 / d)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _out_dir(cfg: dict, flag_out: Optional[str]) -> Path:
    out = Path(flag_out if flag_out is not None else cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# path simulation (the event-driven route)


def _simulate_one(args: tuple) -> list[float]:
    cfg, seed, times, rep = args
    config = _sim_config(cfg, seed)
    functional = from_selector(cfg.get("functional", "clique:2"))
    nbhd = neighborhood_from_selector(cfg.get("neighborhood", "none"))
    series = sample_path(config, functional, times, _radius(cfg, config), nbhd, rep)
    return [float(v) for v in series.values]


def _check_paths(cfg: dict, seed: int, times: np.ndarray, reps: int) -> None:
    config = _sim_config(cfg, seed)
    check_work("simulated events n(1 + 2T) x replications", config.n * (1.0 + 2.0 * config.horizon) * reps)
    check_work("path samples", float(len(times)) * reps)
    functional = from_selector(cfg.get("functional", "clique:2"))
    nbhd = neighborhood_from_selector(cfg.get("neighborhood", "none"))
    _scale_radii(functional, _radius(cfg, config), nbhd, config.metric)


def _simulate_paths(cfg: dict, seed: int, times: np.ndarray, reps: int, jobs: int) -> np.ndarray:
    tasks = [(cfg, seed, tuple(times), rep) for rep in range(reps)]
    workers = suite.worker_count(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_simulate_one, tasks))
    else:
        rows = [_simulate_one(task) for task in tasks]
    return np.asarray(rows)


def _paths_rows(times: np.ndarray, matrix: np.ndarray):
    for rep in range(matrix.shape[0]):
        for t, v in zip(times, matrix[rep]):
            yield rep, float(t), float(v)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: dict, seed: int, out: Path, jobs: int) -> int:
    horizon = _number(cfg.get("horizon", 0.0), "horizon")
    times = _time_grid(cfg.get("sample_times", {"start": 0.0, "stop": horizon, "step": 1.0}), "sample_times")
    reps = _number(cfg.get("replications", 1), "replications", int)
    if reps < 1:
        raise ConfigError("replications must be >= 1")
    _check_paths(cfg, seed, times, reps)
    matrix = _simulate_paths(cfg, seed, times, reps, jobs)
    _write_csv(out / "paths.csv", "rep,t,value", _paths_rows(times, matrix))
    _write_json(
        out / "summary.json",
        {
            "command": "simulate",
            "seed": seed,
            "replications": reps,
            "sample_times": [float(t) for t in times],
            "mean": float(matrix.mean()),
            "files": ["paths.csv"],
        },
    )
    return 0


def _prepare_model(cfg: dict, seed: int):
    """Read the model config and check its sizes; the returned callable
    builds the model."""
    functional = from_selector(cfg.get("functional", "clique:2"))
    nbhd = neighborhood_from_selector(cfg.get("neighborhood", "none"))
    density = _density(cfg, _number(cfg.get("dim", 2), "dim", int))
    gamma = _number(cfg.get("gamma", 1.0), "gamma")
    budget = _number(cfg.get("budget", 200_000 if nbhd is None else 20_000), "budget", int)
    check_work("the model budget", budget)
    if nbhd is None:
        method = cfg.get("method", "auto")
        return lambda: mixture_model(functional, density, gamma, budget=budget, seed=seed, method=method)
    vol_samples = _number(cfg.get("vol_samples", 10_000), "vol_samples", int)
    max_rate = _number(cfg.get("max_rate", 20), "max_rate", int)
    tail_tol = _number(cfg.get("tail_tol", 1e-8), "tail_tol")
    check_work("the volume samples", vol_samples)
    check_work("the harmonic table", budget * (max_rate + 1.0))
    return lambda: exclusive_mixture_model(
        functional, nbhd, density, gamma, budget=budget, vol_samples=vol_samples,
        max_rate=max_rate, tail_tol=tail_tol, seed=seed,
    )


def cmd_theory(cfg: dict, seed: int, out: Path, jobs: int) -> int:
    model = _prepare_model(cfg, seed)()
    model.save(str(out / "model.json"))
    _write_json(
        out / "summary.json",
        {
            "command": "theory",
            "seed": seed,
            "kind": model.kind,
            "rates": model.rates,
            "weights": [float(w) for w in model.weights],
            "files": ["model.json"],
        },
    )
    return 0


def cmd_covariance(cfg: dict, seed: int, out: Path, jobs: int) -> int:
    if "horizon" not in cfg:
        raise ConfigError("covariance mode needs a horizon")
    times = _time_grid(
        cfg.get("sample_times", {"start": 0.0, "stop": _number(cfg["horizon"], "horizon"), "step": 0.25}),
        "sample_times",
    )
    lags = _time_grid(cfg.get("lags", [0.0, 0.5, 1.0, 2.0]), "lags")
    if lags[-1] > times[-1] - times[0]:
        raise ConfigError("lags must fit inside the sample-time span")
    reps = _number(cfg.get("replications", 100), "replications", int)
    if reps < 3:
        raise ConfigError("covariance mode needs replications >= 3")
    tolerance = _number(cfg.get("tolerance", 0.05), "tolerance")
    _check_paths(cfg, seed, times, reps)
    build_model = _prepare_model(cfg, seed)
    matrix = _simulate_paths(cfg, seed, times, reps, jobs)
    _write_csv(out / "paths.csv", "rep,t,value", _paths_rows(times, matrix))
    model = build_model()
    model.save(str(out / "model.json"))
    est = estimate_covariance((times, matrix), lags)
    theory = model.curve(lags)
    _write_csv(
        out / "cov.csv",
        "lag,emp,ci,theory",
        (
            (float(lag), float(v), float(ci), float(th))
            for lag, v, ci, th in zip(lags, est.values, est.half_widths, theory)
        ),
    )
    gap = float(np.max(np.abs(est.values - theory)))
    passed = gap <= tolerance
    _write_json(
        out / "summary.json",
        {
            "command": "covariance",
            "seed": seed,
            "replications": reps,
            "max_gap": gap,
            "tolerance": tolerance,
            "pass": passed,
            "files": ["paths.csv", "model.json", "cov.csv"],
        },
    )
    return 0 if passed else 1


def cmd_gaussianity(cfg: dict, seed: int, out: Path, jobs: int) -> int:
    reps = _number(cfg.get("replications", 500), "replications", int)
    if reps < 10:
        raise ConfigError("gaussianity mode needs replications >= 10")
    threshold = _number(cfg.get("threshold", 0.05), "threshold")
    config = _sim_config(cfg, seed)
    check_work("sampled points n x replications", config.n * reps)
    functional = from_selector(cfg.get("functional", "clique:2"))
    nbhd = neighborhood_from_selector(cfg.get("neighborhood", "none"))
    r = _radius(cfg, config)
    values = np.zeros(reps)
    for rep in range(reps):
        state = sample_stationary(config, config.rng(rep))
        values[rep] = evaluate_statistic(state, functional, r, nbhd)
    spread = values.std(ddof=1)
    if spread == 0:
        raise ConfigError("statistic is degenerate under this configuration")
    distance = kolmogorov_distance((values - values.mean()) / spread)
    passed = distance < threshold
    _write_csv(
        out / "paths.csv",
        "rep,t,value",
        ((rep, 0.0, float(values[rep])) for rep in range(reps)),
    )
    _write_json(
        out / "summary.json",
        {
            "command": "gaussianity",
            "seed": seed,
            "replications": reps,
            "kolmogorov_distance": distance,
            "threshold": threshold,
            "pass": passed,
            "files": ["paths.csv"],
        },
    )
    return 0 if passed else 1


def cmd_oracle(cfg: dict, seed: int, out: Path, jobs: int) -> int:
    n_seeds = _number(cfg.get("seeds", 5), "seeds", int)
    if n_seeds < 1:
        raise ConfigError("oracle mode needs seeds >= 1")
    # each case draws `budget` samples for either side of its identity
    draws = 2 * sum(case["budget"] for case in suite._battery_cases())
    check_work("Mecke draws seeds x 2 x budgets", n_seeds * float(draws))
    outcomes, rate = suite.mecke_battery(seed, n_seeds)
    reports = [
        {
            "test": name,
            "statistic": result.gap,
            "threshold": result.tolerance,
            "pass": result.agree,
            "seed": s,
            "budget": budget,
            "lhs": result.lhs,
            "rhs": result.rhs,
        }
        for name, s, budget, result in outcomes
    ]
    passed = rate >= suite.MECKE_PASS_RATE
    _write_json(
        out / "summary.json",
        {
            "command": "oracle",
            "seed": seed,
            "pass_rate": rate,
            "threshold": suite.MECKE_PASS_RATE,
            "pass": passed,
            "cases": reports,
        },
    )
    for report in reports:
        status = "pass" if report["pass"] else "FAIL"
        print(f"[{status}] {report['test']} seed={report['seed']} "
              f"gap={report['statistic']:.4f} tol={report['threshold']:.4f}")
    print(f"oracle battery pass rate: {rate:.3f} (need >= {suite.MECKE_PASS_RATE})")
    return 0 if passed else 1


def cmd_euler(cfg: dict, seed: int, out: Path, jobs: int) -> int:
    result = suite.check_euler(seed=seed)
    _write_json(
        out / "summary.json",
        {"command": "euler", "seed": seed, "checks": [result.to_dict()], "pass": result.passed},
    )
    print(result.line())
    return 0 if result.passed else 1


def cmd_full(cfg: dict, seed: int, out: Path, jobs: int) -> int:
    names = cfg.get("checks")
    try:
        results = suite.run_all(names, seed=seed, jobs=jobs, progress=lambda r: print(r.line(), flush=True))
    except KeyError as exc:
        raise ConfigError(str(exc))
    passed = all(r.passed for r in results)
    _write_json(
        out / "summary.json",
        {
            "command": "full",
            "seed": seed,
            "checks": [r.to_dict() for r in results],
            "pass": passed,
        },
    )
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if passed else 1


COMMANDS = {
    "simulate": cmd_simulate,
    "theory": cmd_theory,
    "covariance": cmd_covariance,
    "gaussianity": cmd_gaussianity,
    "oracle": cmd_oracle,
    "euler": cmd_euler,
    "full": cmd_full,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdgeom",
        description="Birth-death point process simulator and verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="overrides BD_GEOM_SEED and the config file")
        p.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
        p.add_argument("--jobs", type=int, default=1, help="worker processes for replications/checks")
        p.add_argument("--set", action="append", default=[], metavar="KEY=JSON",
                       help="override a config field, e.g. --set n=200 --set functional='\"clique:3\"'")
    return parser


def _apply_overrides(cfg: dict, pairs: Sequence[str], command: str) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=JSON, got {pair!r}")
        key, _, raw = pair.partition("=")
        if key not in _READS[command]:
            raise ConfigError(f"--set {key}: {command} reads no config field {key!r}")
        try:
            cfg[key] = json.loads(raw)
        except ValueError:  # bare strings allowed; so is an over-long integer, kept as text
            cfg[key] = raw
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(_load_config(args.config), args.set, args.command)
        seed = _resolve_seed(args.seed, cfg)
        out = _out_dir(cfg, args.out)
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        return COMMANDS[args.command](cfg, seed, out, args.jobs)
    except (ConfigError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
