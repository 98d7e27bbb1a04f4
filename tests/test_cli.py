"""Front-end behavior: JSON results, CSV output, error payloads, exit codes."""

import functools
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wsngain
from wsngain import (ConstraintSpec, cli, gen_centralized_scenario, gen_decentralized_scenario,
                     random_connected_topology, to_json_dict)
from wsngain.cli import build_parser, main

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_optimize_default_json_shape(capsys):
    rc, out, err = run_cli(capsys, "optimize", "--n", "6", "--m", "2", "--seed", "3")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"gains", "constraint", "variance", "info_trace",
                        "outer_iters", "inner_iters_total", "converged", "restart_index",
                        "segment_breaks", "stationarity_residual", "wall_time_s"}
    assert doc["constraint"] == "energy"
    assert len(doc["gains"]) == 6
    gains = np.array([re + 1j * im for re, im in doc["gains"]])
    assert np.linalg.norm(gains) ** 2 == pytest.approx(6.0, rel=1e-9)
    infos = doc["info_trace"]
    assert all(b >= a * (1 - 1e-9) for a, b in zip(infos, infos[1:]))
    assert doc["variance"] > 0
    assert infos[-1] == pytest.approx(1.0 / doc["variance"], rel=1e-12)


def test_optimize_reports_convergence_and_run_details(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "optimize", "--n", "6", "--m", "2", "--seed", "3")
    doc = json.loads(out)
    assert rc == 0 and doc["converged"] is True
    assert doc["restart_index"] == 0 and doc["segment_breaks"] == []
    assert 0.0 <= doc["stationarity_residual"] <= 1e-10
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_outer": 2, "restarts": 3}))
    rc, out, _ = run_cli(capsys, "optimize", "--n", "6", "--m", "2", "--seed", "3",
                         "--config", str(cfg))
    doc = json.loads(out)
    assert rc == 0 and doc["converged"] is False and doc["outer_iters"] == 2
    assert doc["restart_index"] in (0, 1, 2)
    path = tmp_path / "net.json"
    run_cli(capsys, "gen-scenario", "--kind", "decentralized", "--n", "7",
            "--seed", "5", "--out", str(path))
    rc, out, _ = run_cli(capsys, "optimize", "--scenario", str(path), "--seed", "1")
    doc = json.loads(out)
    assert rc == 0 and isinstance(doc["converged"], bool)
    assert all(isinstance(k, int) and 0 < k < doc["outer_iters"] for k in doc["segment_breaks"])


def test_optimize_phase_constraint(capsys):
    rc, out, _ = run_cli(capsys, "optimize", "--n", "5", "--m", "2",
                         "--constraint", "phase", "--seed", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["constraint"] == "phase"
    mags = [abs(complex(re, im)) for re, im in doc["gains"]]
    assert mags == pytest.approx([1.0] * 5)


def test_gen_scenario_roundtrip_through_optimize(tmp_path, capsys):
    path = tmp_path / "scen.json"
    rc, out, _ = run_cli(capsys, "gen-scenario", "--n", "5", "--m", "3",
                         "--seed", "9", "--out", str(path))
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["kind"] == "centralized" and doc["N"] == 5 and doc["M"] == 3
    results = []
    for _ in range(2):
        rc, out, _ = run_cli(capsys, "optimize", "--scenario", str(path),
                             "--constraint", "quant:4", "--seed", "2")
        assert rc == 0
        doc = json.loads(out)
        doc.pop("wall_time_s")
        results.append(doc)
    assert results[0] == results[1]


def test_gen_scenario_stdout(capsys):
    rc, out, _ = run_cli(capsys, "gen-scenario", "--kind", "decentralized",
                         "--n", "6", "--seed", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "decentralized"
    assert len(doc["edges"]) >= 5


def test_optimize_decentralized_dump_plan(tmp_path, capsys):
    path = tmp_path / "scen.json"
    run_cli(capsys, "gen-scenario", "--kind", "decentralized", "--n", "7",
            "--seed", "5", "--out", str(path))
    rc, out, _ = run_cli(capsys, "optimize", "--scenario", str(path),
                         "--constraint", "energy", "--seed", "1", "--dump-plan")
    assert rc == 0
    doc = json.loads(out)
    plan = doc["plan"]
    assert set(plan) == {"carrier", "r", "m_dim"}
    assert plan["m_dim"] == 7
    assert len(plan["carrier"]) == 7


def test_simulate_consensus_csv_and_summary(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    rc, out, err = run_cli(capsys, "simulate-consensus", "--n", "6", "--seed", "2",
                           "--theta", "10", "--out", str(csv_path), "--dump-plan")
    assert rc == 0
    summary = json.loads(out)
    assert {"theta_hat", "analytic_variance", "iterations_to_tol", "residual",
            "converged"} <= set(summary)
    assert summary["converged"] is True
    assert 0.0 <= summary["residual"] <= 1e-6 * abs(complex(*summary["theta_hat"]))
    plan = json.loads(err)
    assert set(plan) == {"carrier", "r", "m_dim"}
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "iter,node,theta_hat_re,theta_hat_im,abs_err"
    assert len(lines) == 1 + 6 * (summary["iterations_to_tol"] + 1)


def test_simulate_consensus_rejects_centralized_scenario(tmp_path, capsys):
    path = tmp_path / "scen.json"
    run_cli(capsys, "gen-scenario", "--n", "4", "--seed", "1", "--out", str(path))
    rc, _, err = run_cli(capsys, "simulate-consensus", "--scenario", str(path))
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "InvalidConfig"
    assert "decentralized" in payload["message"]


@pytest.mark.parametrize("kind,command", [("centralized", "optimize"),
                                          ("decentralized", "optimize"),
                                          ("decentralized", "simulate-consensus")])
def test_short_noise_vector_fails_cleanly(tmp_path, capsys, kind, command):
    path = tmp_path / "scen.json"
    run_cli(capsys, "gen-scenario", "--kind", kind, "--n", "6", "--seed", "1", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["sensor_noise_var"] = doc["sensor_noise_var"][:1]
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, command, "--scenario", str(path))
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidConfig"
    assert "sensor_noise_var" in payload["message"]


def test_sweep_csv_is_byte_stable_without_runtime(tmp_path, capsys):
    texts = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc, out, _ = run_cli(capsys, "sweep", "--n", "4", "--realizations", "2",
                             "--seed", "6", "--no-runtime", "--out", str(path))
        assert rc == 0
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]
    header = texts[0].decode().splitlines()[0]
    assert header == "N,method,mean_variance,mean_runtime_s,realizations,failures"


def test_oracle_gap_comment_line(capsys):
    rc, out, _ = run_cli(capsys, "oracle-gap", "--n", "2", "--realizations", "2",
                         "--seed", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# oracle: ")
    assert "success_rate" in lines[0]
    assert lines[1] == "seed,N,variance_opt,variance_best,ratio,hit"
    assert len(lines) == 4


def test_select_subcommand_runs_small(capsys):
    rc, out, _ = run_cli(capsys, "select", "--n", "6", "--sigma-grid", "1.0",
                         "--realizations", "2", "--constraint", "select:2", "--seed", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "sigma_n2,method,mean_variance"
    methods = [line.split(",")[1] for line in lines[1:]]
    assert methods == ["proposed", "greedy", "min-sensor-noise", "all-N"]


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": 3, "channel_noise_var": 2.0}))
    rc, out, _ = run_cli(capsys, "optimize", "--n", "4", "--m", "2",
                         "--config", str(cfg), "--seed", "1")
    assert rc == 0
    assert json.loads(out)["variance"] > 0


def test_unknown_config_key_fails_cleanly(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restarts": 3, "warp_factor": 9}))
    rc, _, err = run_cli(capsys, "optimize", "--n", "4", "--config", str(cfg))
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "InvalidConfig"
    assert "warp_factor" in payload["message"]
    # each subcommand takes only the keys it reads: the subcommand names the
    # experiment kind and --seed the seed, so a config file can switch neither
    for argv, key, value in (
            (["sweep", "--n", "4"], "kind", "consensus"),
            (["sweep", "--n", "4"], "seed", 5),
            (["optimize", "--n", "4"], "seed", 5),
            (["optimize", "--n", "4"], "realizations", 1),
            (["gen-scenario", "--n", "4"], "restarts", 3),
            (["gen-scenario", "--n", "4"], "realizations", 1),
            (["simulate-consensus", "--n", "4"], "rho", 50),
            (["simulate-consensus", "--n", "4"], "max_iter", 2),
            (["simulate-consensus", "--n", "4"], "inner_iters", 5),
            (["oracle-gap", "--n", "2"], "theta", 2.0),
            (["select"], "edge_probability", 0.5),
            (["sweep", "--n", "4"], "tol", 1e-3),
            # the shift's safety factor is a constant, the paper's corner
            # margin is no setting, and each experiment key is read by one
            # kind only
            (["optimize", "--n", "4"], "eta0_margin", 1.2),
            (["optimize", "--n", "4"], "lambda_margin", 1.2),
            (["sweep", "--n", "4"], "sigma_grid", [5.0]),
            (["oracle-gap", "--n", "2"], "sigma_grid", [5.0]),
            (["oracle-gap", "--n", "2"], "include_runtime", False),
            (["select"], "include_runtime", False)):
        cfg.write_text(json.dumps({key: value}))
        rc, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert rc == 1 and out == "", (argv, key)
        payload = json.loads(err)
        assert payload["error"] == "InvalidConfig"
        assert key in payload["message"]


@pytest.mark.parametrize("noise", [{"d_range": [1, 2, 3]}, {"d_range": ["a", 2]},
                                   {"channel_noise_var": "1"}, {"path_loss_exp": "x"}])
@pytest.mark.parametrize("command", ["gen-scenario", "optimize"])
def test_noise_config_of_wrong_shape_or_type_fails_cleanly(tmp_path, capsys, command, noise):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(noise))
    rc, out, err = run_cli(capsys, command, "--n", "4", "--config", str(cfg))
    assert rc == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidConfig"
    assert next(iter(noise)) in payload["message"]


def test_bad_constraint_string_fails_cleanly(capsys):
    for text in ("power:2", "quant:x", "select:2.5", "quant:"):
        rc, _, err = run_cli(capsys, "optimize", "--n", "4", "--constraint", text)
        assert rc == 1
        assert json.loads(err)["error"] == "InvalidConfig", text


@pytest.mark.parametrize("command", [
    "sweep --n 4,x",
    "select --sigma-grid 1,x",
    "gen-scenario --n 4 --theta abc",
    "simulate-consensus --n 4 --theta abc",
    # non-finite numbers parse but are not valid inputs
    "gen-scenario --n 4 --theta nan",
    "gen-scenario --n 4 --theta inf",
    "select --sigma-grid nan",
    # selection needs one sensor count N and 1 <= K < N
    "select --n 6,8 --sigma-grid 1.0 --constraint select:7",
    "select --n 6 --sigma-grid 1.0 --constraint select:6",
    # scenario files with one non-finite entry, written by _non_finite_scenario
    "optimize --scenario centralized:fc_noise_var=nan",
    "optimize --scenario centralized:fc_noise_var=inf",
    "optimize --scenario centralized:sensor_noise_var=nan",
    "optimize --scenario centralized:H=nan",
    "optimize --scenario centralized:theta=nan",
    "optimize --scenario decentralized:comm_noise_var=nan",
    "optimize --scenario decentralized:links=nan",
    "simulate-consensus --scenario decentralized:sensor_noise_var=inf",
    # scenario files missing a key, written by _edited_scenario
    "optimize --scenario decentralized:-links",
    "optimize --scenario decentralized:-edges",
    "optimize --scenario decentralized:-sensor_noise_var",
    "optimize --scenario decentralized:-comm_noise_var",
    "optimize --scenario decentralized:-theta",
    "optimize --scenario decentralized:-N",
    "optimize --scenario centralized:-H",
    "optimize --scenario centralized:-M",
    # a theta or link gain that is not an [re, im] pair
    "optimize --scenario centralized:theta:=[1.0]",
    'optimize --scenario decentralized:links.0.gain:="1"',
    # an edge or link entry of the wrong shape
    "optimize --scenario decentralized:edges.0:=[1,2,3]",
    'optimize --scenario decentralized:links.0:={"rx":1,"tx":2}',
    # N that is not an integer, or N or M that disagrees with the data
    "optimize --scenario centralized:N:=3.5",
    "optimize --scenario decentralized:N:=3.5",
    "optimize --scenario centralized:N:=5",
    "optimize --scenario centralized:M:=3",
    "optimize --scenario decentralized:N:=5",
    "optimize --scenario decentralized:N:=3",
    # a second entry for the link (1, 4)
    'optimize --scenario decentralized:links+={"rx":1,"tx":4,"gain":[99,0]}',
    # a value of the wrong type: a noise variance, a range, a node label
    'optimize --scenario centralized:fc_noise_var:="1"',
    'optimize --scenario decentralized:sensor_noise_var:=["a",1,1,1]',
    'optimize --scenario decentralized:edges.0:=[1,"a"]',
    "optimize --scenario centralized:d_range:=5",
    "optimize --scenario decentralized:links.0.rx:=[1]",
    "optimize --scenario decentralized:edges.0:=[1.5,2]",
    'optimize --scenario decentralized:alpha:="1"',
    'optimize --scenario centralized:seed:="1"',
    "optimize --scenario decentralized:comm_noise_var:=true",
    # generation settings outside the NoiseConfig rule: an empty or
    # non-positive range, an infinite range end, a non-finite alpha
    "optimize --scenario centralized:d_range:=[5,1]",
    "optimize --scenario decentralized:v_range:=[-1,0]",
    "optimize --scenario centralized:d_range:=[1,1e999]",
    "optimize --scenario centralized:alpha=nan",
    "optimize --scenario decentralized:alpha=inf",
    "optimize --scenario decentralized:alpha=-inf",
])
def test_malformed_input_reports_invalid_config(capsys, tmp_path, command):
    argv = command.split()
    if "--scenario" in argv:
        at = argv.index("--scenario") + 1
        argv[at] = _edited_scenario(tmp_path, argv[at])
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidConfig"


@pytest.mark.parametrize("constraint", ["energy", "phase"])
def test_zero_information_scenario_reports_degenerate_gains(capsys, tmp_path, constraint):
    # H = [[1, -1]] is a valid scenario, but its all-ones start carries no
    # information, so the design fails on both the cyclic and the UQP path
    doc = to_json_dict(gen_centralized_scenario(2, 1, seed=1))
    doc["H"] = [[[1.0, 0.0], [-1.0, 0.0]]]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "optimize", "--scenario", str(path),
                           "--constraint", constraint)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "DegenerateGains"


def _edited_scenario(tmp_path, spec: str) -> str:
    """Write a generated 4-sensor scenario JSON with one edit; ``spec`` reads
    ``kind:edit``.  ``key=value`` puts float(value) at ``key`` (its first
    number, for an array), ``-key`` drops ``key``, and ``path:=json`` sets
    (``path+=json`` appends to) the entry at a dotted path of keys and list
    indices."""
    kind, _, assignment = spec.partition(":")
    if kind == "centralized":
        doc = to_json_dict(gen_centralized_scenario(4, 2, seed=1))
    else:
        doc = to_json_dict(gen_decentralized_scenario(random_connected_topology(4, 0.8, 1), seed=1))
    if assignment.startswith("-"):
        del doc[assignment[1:]]
    elif ":=" in assignment or "+=" in assignment:
        path, op, value = re.split(r"(:=|\+=)", assignment, maxsplit=1)
        *steps, last = [int(step) if step.isdigit() else step for step in path.split(".")]
        entry = functools.reduce(operator.getitem, steps, doc)
        if op == ":=":
            entry[last] = json.loads(value)
        else:
            entry[last].append(json.loads(value))
    else:
        key, _, value = assignment.partition("=")
        if isinstance(doc[key], list):
            entry = doc[key]
            while not isinstance(entry[0], float):
                entry = entry[0]["gain"] if isinstance(entry[0], dict) else entry[0]
            entry[0] = float(value)
        else:
            doc[key] = float(value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_experiment_subcommand_defaults(monkeypatch, capsys):
    seen = []

    def capture(config):
        seen.append(config)
        return [], {}

    monkeypatch.setattr(cli, "run_experiment", capture)
    for argv in (["sweep"], ["select"], ["oracle-gap"], ["sweep", "--no-runtime"]):
        assert main(argv) == 0
    capsys.readouterr()
    sweep, select, gap, sweep_nr = seen
    assert (sweep.kind, sweep.n_values, sweep.realizations) == ("sweep-N", (10, 30), 30)
    assert sweep.constraint == ConstraintSpec.phase_only()
    assert (select.kind, select.n_values, select.sigma_grid, select.realizations) == (
        "selection", (10,), (0.1, 1.0, 4.0), 10)
    assert select.constraint.label() == "select:4:energy"
    assert (gap.kind, gap.n_values, gap.realizations) == ("oracle-gap", (2, 3, 4), 100)
    assert gap.constraint.label() == "quant:4" and gap.optimizer.restarts == 10
    assert sweep.optimizer.restarts == select.optimizer.restarts == 1
    assert all(c.seed == 0 and c.optimizer.seed == 0 for c in seen)
    assert sweep.include_runtime and select.include_runtime and gap.include_runtime
    assert not sweep_nr.include_runtime
    # only the sweep CSV has a runtime column
    for command in ("select", "oracle-gap"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--no-runtime"])


def test_console_entry_point():
    # run the [project.scripts] target in a fresh interpreter, the way the
    # installed wrapper does, against this checkout's package
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["wsngain"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(Path(wsngain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code,
         "optimize", "--n", "3", "--m", "2", "--constraint", "phase"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["constraint"] == "phase"


def test_module_main_guard_matches_entry():
    # the parser is importable and wired to the same main used by the script
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["no-such-command"])
    assert sys.modules["wsngain.cli"].main is main
