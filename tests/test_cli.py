"""End-to-end tests of the command-line interface.

Each test drives ``bdgeom.cli.main`` in process with a temp output
directory; one subprocess smoke test covers the module entry point.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from bdgeom import cli, statistics, suite
from bdgeom.cli import main
from bdgeom.functionals import ConfigError
from bdgeom.suite import CheckResult, map_tasks, worker_count


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


SIM_FIELDS = dict(
    n=25,
    dim=2,
    gamma=1.0,
    horizon=1.0,
    functional="clique:2",
    replications=2,
    sample_times={"start": 0.0, "stop": 1.0, "step": 0.5},
    seed=3,
)


# -- simulate -----------------------------------------------------------------


def test_simulate_writes_paths(tmp_path):
    cfg = write_config(tmp_path, **SIM_FIELDS)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "rep,t,value"
    assert len(lines) == 1 + 2 * 3  # 2 reps x 3 sample times
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "simulate"
    assert summary["seed"] == 3
    assert summary["sample_times"] == [0.0, 0.5, 1.0]


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, **SIM_FIELDS)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "paths.csv").read_bytes() == (out_b / "paths.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_simulate_different_seed_changes_paths(tmp_path):
    cfg = write_config(tmp_path, **SIM_FIELDS)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "4", "--out", str(out_b)]) == 0
    assert (out_a / "paths.csv").read_bytes() != (out_b / "paths.csv").read_bytes()


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, **SIM_FIELDS)  # file seed 3

    def run_seed(args):
        out = tmp_path / f"run{run_seed.counter}"
        run_seed.counter += 1
        assert main(["simulate", "--config", cfg, "--out", str(out)] + args) == 0
        return json.loads((out / "summary.json").read_text())["seed"]

    run_seed.counter = 0
    monkeypatch.delenv("BD_GEOM_SEED", raising=False)
    assert run_seed([]) == 3
    monkeypatch.setenv("BD_GEOM_SEED", "5")
    assert run_seed([]) == 5
    assert run_seed(["--seed", "7"]) == 7
    monkeypatch.setenv("BD_GEOM_SEED", "not-a-number")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "z")]) == 2


# -- theory ---------------------------------------------------------------------


def test_theory_closed_form_weights(tmp_path):
    cfg = write_config(tmp_path, functional="clique:2", dim=2, gamma=1.0, seed=0)
    out = tmp_path / "out"
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    w1 = math.pi / (math.pi + 0.5)
    assert model["kind"] == "plain"
    assert model["rates"] == [1, 2]
    assert model["weights"][0] == pytest.approx(w1, rel=1e-12)
    assert model["weights"][1] == pytest.approx(1.0 - w1, rel=1e-12)


def test_theory_uncertifiable_tail_exits_2(tmp_path, capsys):
    code = main([
        "theory", "--out", str(tmp_path / "out"),
        "--set", 'functional="clique:2"', "--set", 'neighborhood="balls"',
        "--set", "max_rate=3", "--set", "budget=400",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: tail bound does not contract")


def test_theory_set_overrides(tmp_path):
    cfg = write_config(tmp_path, functional="clique:2", dim=2, gamma=1.0)
    out = tmp_path / "out"
    code = main([
        "theory", "--config", cfg, "--out", str(out),
        "--set", "gamma=2.0", "--set", "functional=clique:2",
    ])
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert model["gamma"] == 2.0
    # raw weights pi^2/2 and pi/8 at gamma = 2
    w1 = math.pi / (math.pi + 0.25)
    assert model["weights"][0] == pytest.approx(w1, rel=1e-12)


def test_theory_exclusive_model(tmp_path):
    cfg = write_config(
        tmp_path,
        functional="clique:1",
        neighborhood="balls",
        dim=2,
        gamma=1.0,
        budget=2_000,
        vol_samples=500,
        max_rate=10,
        tail_tol=0.01,
        seed=0,
    )
    out = tmp_path / "out"
    assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    assert model["kind"] == "exclusive"
    assert model["rates"] == list(range(1, 11))
    assert sum(model["weights"]) == pytest.approx(1.0, rel=1e-9)


# -- covariance -------------------------------------------------------------------


def test_covariance_writes_reports_and_exit_codes(tmp_path):
    fields = dict(
        n=60,
        dim=2,
        gamma=1.0,
        horizon=2.0,
        functional="clique:2",
        replications=40,
        sample_times={"start": 0.0, "stop": 2.0, "step": 0.25},
        lags=[0.0, 0.5, 1.0],
        tolerance=0.35,
        seed=1,
    )
    cfg = write_config(tmp_path, **fields)
    out = tmp_path / "out"
    assert main(["covariance", "--config", cfg, "--out", str(out)]) == 0
    cov_lines = (out / "cov.csv").read_text().splitlines()
    assert cov_lines[0] == "lag,emp,ci,theory"
    assert len(cov_lines) == 4
    first = cov_lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True

    # impossible tolerance flips the exit code but still writes reports
    strict = write_config(tmp_path, **{**fields, "tolerance": 0.0})
    out2 = tmp_path / "strict"
    assert main(["covariance", "--config", strict, "--out", str(out2)]) == 1
    assert json.loads((out2 / "summary.json").read_text())["pass"] is False


def test_covariance_validates_lags(tmp_path):
    cfg = write_config(
        tmp_path, n=20, gamma=1.0, horizon=1.0, replications=5, lags=[0.0, 5.0]
    )
    assert main(["covariance", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# -- gaussianity -------------------------------------------------------------------


def test_gaussianity_cmd(tmp_path):
    cfg = write_config(
        tmp_path,
        n=60,
        dim=2,
        gamma=1.0,
        functional="clique:2",
        replications=80,
        threshold=0.25,
        seed=2,
    )
    out = tmp_path / "out"
    assert main(["gaussianity", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["kolmogorov_distance"] < 0.25
    assert summary["pass"] is True


# -- oracle / euler ------------------------------------------------------------------


def test_oracle_cmd(tmp_path, capsys):
    cfg = write_config(tmp_path, seeds=1, seed=0)
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass_rate"] >= 0.95
    assert len(summary["cases"]) == 12
    assert "oracle battery pass rate" in capsys.readouterr().out
    assert summary["threshold"] == suite.MECKE_PASS_RATE
    cases = suite._battery_cases()
    assert [c["test"] for c in summary["cases"]] == [case["name"] for case in cases]
    assert [c["budget"] for c in summary["cases"]] == [case["budget"] for case in cases]


@pytest.mark.parametrize("seeds", [0, -3])
def test_oracle_rejects_seeds_below_one(tmp_path, capsys, seeds):
    out = tmp_path / "out"
    assert main(["oracle", "--set", f"seeds={seeds}", "--out", str(out)]) == 2
    assert "seeds >= 1" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_oracle_checks_its_draws_before_running(tmp_path, capsys):
    # 12 cases with 3300 draws a side: 1515 seeds fit under the limit, 1516 do not
    out = tmp_path / "out"
    assert main(["oracle", "--set", "seeds=1516", "--out", str(out)]) == 2
    assert "Mecke draws" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_euler_cmd(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["euler", "--out", str(out), "--seed", "0"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert "euler" in capsys.readouterr().out



@pytest.mark.parametrize("pair", ["reps=3", "dim=1"])
def test_set_key_the_command_does_not_read_exits_2(tmp_path, capsys, pair):
    out = tmp_path / "out"
    assert main(["euler", "--set", pair, "--out", str(out)]) == 2
    assert f"euler reads no config field {pair.split('=')[0]!r}" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_config_file_key_no_command_reads_exits_2(tmp_path, capsys):
    fields = dict(SIM_FIELDS)
    fields["replicatons"] = fields.pop("replications")
    cfg = write_config(tmp_path, **fields)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "'replicatons'" in capsys.readouterr().err


def test_readme_sim_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A minimal `sim.json`:")[1].split("```json")[1].split("```")[0]
    path = tmp_path / "sim.json"
    path.write_text(block)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["replications"] == json.loads(block)["replications"]
    # the same file serves theory, which reads only some of its fields
    assert main(["theory", "--config", str(path), "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "command, pairs, field",
    [
        ("oracle", [f"seeds={10**400}"], "seeds"),
        ("simulate", ["n=10", f"replications={10**400}"], "replications"),
        ("oracle", ["seeds=1.5"], "seeds"),
        ("theory", ["budget=2000.7"], "budget"),
    ],
    ids=["oracle-huge", "simulate-huge", "oracle-fraction", "theory-fraction"],
)
def test_integer_field_must_be_whole_and_within_float_range(tmp_path, capsys, command, pairs, field):
    cfg = write_config(tmp_path, **SIM_FIELDS)
    out = tmp_path / "out"
    args = [command, "--config", cfg, "--out", str(out)]
    for pair in pairs:
        args += ["--set", pair]
    assert main(args) == 2
    assert f"config field {field!r} must be a whole number within float range" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("budget", [0, 1, -3])
def test_theory_plain_budget_below_two_exits_2(tmp_path, capsys, budget):
    # 0 wrote NaN weights, 1 NaN errors, and -3 ended in a traceback
    cfg = write_config(tmp_path, **SIM_FIELDS)
    out = tmp_path / "out"
    args = ["theory", "--config", cfg, "--out", str(out), "--set", 'functional="clique:3"', "--set", f"budget={budget}"]
    assert main(args) == 2
    assert "budget must be at least 2" in capsys.readouterr().err
    assert not (out / "model.json").exists()


# -- full battery (restricted to fast checks) ------------------------------------------


def test_full_cmd_subset(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=["mean-formula", "regime-limits"], seed=0)
    out = tmp_path / "out"
    assert main(["full", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert len(summary["checks"]) == 2
    assert not any("metrics" in check for check in summary["checks"])
    assert "2/2 checks passed" in capsys.readouterr().out


def test_full_summary_carries_check_metrics(tmp_path, monkeypatch):
    def fake(seed=0):
        return CheckResult(7, "fake", True, 0.0, 1.0, "detail", 0.0, {"tail_ratio": 3e-4})

    monkeypatch.setitem(suite.CHECKS, "fake", fake)
    cfg = write_config(tmp_path, checks=["fake"], seed=0)
    out = tmp_path / "out"
    assert main(["full", "--config", cfg, "--out", str(out)]) == 0
    (check,) = json.loads((out / "summary.json").read_text())["checks"]
    assert check["metrics"] == {"tail_ratio": 3e-4}


def test_full_cmd_empty_check_list(tmp_path, capsys):
    cfg = write_config(tmp_path, checks=[], seed=0)
    out = tmp_path / "out"
    assert main(["full", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"] == []
    assert summary["pass"] is True
    assert "0/0 checks passed" in capsys.readouterr().out


def test_full_cmd_unknown_check(tmp_path):
    cfg = write_config(tmp_path, checks=["nonexistent-check"])
    assert main(["full", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# -- config errors ----------------------------------------------------------------


def test_missing_required_field(tmp_path):
    cfg = write_config(tmp_path, horizon=1.0)  # no n
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2


def test_bad_set_syntax(tmp_path):
    cfg = write_config(tmp_path, **SIM_FIELDS)
    assert main(["simulate", "--config", cfg, "--set", "garbage"]) == 2


def test_oversized_subgraph_pattern(tmp_path):
    path = ",".join(f"{i}-{i + 1}" for i in range(11))
    cfg = write_config(tmp_path, **{**SIM_FIELDS, "functional": f"subgraph:12:{path}"})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


# -- work limit: absurd sizes only reach the pure checks, never a command -------


def test_work_check_rejects_estimates_above_the_limit():
    cli.check_work("events", cli.MAX_WORK)
    for amount in (cli.MAX_WORK * 1.01, math.inf, math.nan):
        with pytest.raises(ConfigError):
            cli.check_work("events", amount)
    huge = dict(SIM_FIELDS)
    for key, value in (("n", 1e12), ("horizon", 1e12)):
        with pytest.raises(ConfigError, match="simulated events"):
            cli._check_paths({**huge, key: value}, 0, [0.0], 1)
    with pytest.raises(ConfigError, match="simulated events"):
        cli._check_paths(huge, 0, [0.0], 10**9)
    with pytest.raises(ConfigError, match="path samples"):
        cli._check_paths({**huge, "n": 1e-3}, 0, [0.0] * 10, 10**7)
    with pytest.raises(ConfigError, match="budget"):
        cli._prepare_model({"budget": 1e12}, 0)
    with pytest.raises(ConfigError, match="volume samples"):
        cli._prepare_model({"neighborhood": "balls", "vol_samples": 1e12}, 0)
    with pytest.raises(ConfigError, match="harmonic table"):
        cli._prepare_model({"neighborhood": "balls", "budget": 10**6, "max_rate": 100}, 0)
    with pytest.raises(ConfigError, match="grid"):
        cli._time_grid({"start": 0.0, "stop": 1.0, "step": 1e-12}, "sample_times")


def test_work_check_accepts_battery_sized_runs():
    # check 05's size: n = 1000, T = 16, 200 replications on a 0.25 grid
    cfg = dict(SIM_FIELDS, n=1000, horizon=16.0)
    cli._check_paths(cfg, 0, cli._time_grid({"start": 0.0, "stop": 16.0, "step": 0.25}, "t"), 200)
    cli._prepare_model({}, 0)
    cli._prepare_model({"neighborhood": "balls"}, 0)


@pytest.mark.parametrize("command", ["simulate", "covariance", "gaussianity", "theory"])
def test_commands_check_work_before_running(tmp_path, monkeypatch, command):
    # a limit below these tiny configs: each command must exit 2 unstarted
    monkeypatch.setattr(cli, "MAX_WORK", 5)
    fields = dict(SIM_FIELDS, replications=10, budget=100, lags=[0.0, 0.5])
    cfg = write_config(tmp_path, **fields)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "summary.json").exists()


# every numeric field, by command; the base configs pass each earlier check
NUMERIC_FIELDS = {
    "simulate": ("n", "dim", "horizon", "gamma", "r", "replications", "seed",
                 "density.sigma", "sample_times.step", "sample_times"),
    "theory": ("dim", "gamma", "budget", "vol_samples", "max_rate", "tail_tol"),
    "covariance": ("horizon", "lags", "replications", "tolerance"),
    "gaussianity": ("replications", "threshold"),
    "oracle": ("seeds",),
}
BASES = {
    "theory": {"neighborhood": "balls"},
    "covariance": {"replications": 3, "lags": [0.0, 0.5]},
    "gaussianity": {"replications": 10},
}


@pytest.mark.parametrize("bad", ["x", [1]], ids=["string", "list"])
@pytest.mark.parametrize(
    "command, field", [(c, f) for c, fields in NUMERIC_FIELDS.items() for f in fields]
)
def test_non_numeric_field_exits_2(tmp_path, capsys, command, field, bad):
    fields = dict(SIM_FIELDS, **BASES.get(command, {}))
    if field in ("lags", "sample_times"):
        fields[field] = [0.0, bad]
    elif field == "density.sigma":
        fields["density"] = {"kind": "gaussian", "sigma": bad}
    elif field == "sample_times.step":
        fields["sample_times"] = dict(SIM_FIELDS["sample_times"], step=bad)
    else:
        fields[field] = bad
    cfg = write_config(tmp_path, **fields)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"config field '{field}' must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("density", 5),
        ("functional", 5),
        ("density.cells", {"kind": "table", "cells": ["q"]}),
    ],
    ids=["density", "functional", "table-cells"],
)
def test_wrong_kind_of_value_exits_2(tmp_path, capsys, field, value):
    fields = dict(SIM_FIELDS, n=20, **{field.split(".")[0]: value})
    cfg = write_config(tmp_path, **fields)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["NaN", "0", "-0.1"])
def test_nonpositive_radius_exits_2(tmp_path, capsys, r):
    out = tmp_path / "out"
    assert main(["simulate", "--set", "n=20", "--set", f"r={r}", "--out", str(out)]) == 2
    assert "interaction radius must be positive" in capsys.readouterr().err
    assert not (out / "paths.csv").exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        (["r=NaN"], "interaction radius must be positive"),
        (["r=0.6"], "too large for the unit torus"),
        # fine for the plain count, but the balls' reach 2r is not
        (["r=0.3", "neighborhood=balls"], "too large for the unit torus"),
    ],
    ids=["nan", "enumeration", "reach"],
)
def test_bad_scale_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, fields, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("a path was drawn before the scale was checked")

    monkeypatch.setattr(statistics, "sample_stationary", no_draw)
    monkeypatch.setattr(statistics, "simulate_events", no_draw)
    out = tmp_path / "out"
    overrides = [arg for field in ["n=100000", "horizon=2", *fields] for arg in ("--set", field)]
    assert main(["simulate", *overrides, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "paths.csv").exists()


def test_bad_jobs(tmp_path):
    cfg = write_config(tmp_path, **SIM_FIELDS)
    assert main(["simulate", "--config", cfg, "--jobs", "0"]) == 2


def test_worker_count_is_bounded(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert worker_count(10_000, 10_000) == 2
    assert worker_count(10_000, 1) == 1
    assert worker_count(1, 10_000) == 1
    assert worker_count(4, 0) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert worker_count(10_000, 10_000) == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_map_tasks_keeps_task_order_and_reports_each_result(jobs):
    seen = []
    assert map_tasks(abs, [-3, 1, -2, 5], jobs, seen.append) == [3, 1, 2, 5]
    if jobs == 1:  # in order, each as it is computed
        assert seen == [3, 1, 2, 5]
    assert sorted(seen) == [1, 2, 3, 5]


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, **SIM_FIELDS)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "bdgeom.cli", "simulate", "--config", cfg, "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "paths.csv").exists()
