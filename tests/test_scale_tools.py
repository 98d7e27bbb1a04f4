"""tools/design_scale.py runs one decentralized design, and
tools/consensus_scale.py one consensus run, and each gates its memory.

Each tool runs in a fresh interpreter, as CI runs it, so its maximum RSS is
its own.
"""

import dataclasses
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from wsngain import gainopt

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_tool(tool, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "tools" / tool), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_design_scale_reports_the_design_and_gates_its_rss():
    done = _run_tool("design_scale.py", "300", "1", "--max-rss-mb", "100000")
    assert done.returncode == 0, done.stderr
    fields = dict(item.split("=") for item in done.stdout.split())
    assert set(fields) == {"N", "edges", "cycles", "breaks", "converged", "setup_seconds",
                           "design_seconds", "refresh_seconds", "variance_gap", "max_rss_mb"}
    assert fields["N"] == "300" and 1 <= int(fields["cycles"]) <= 200
    assert float(fields["variance_gap"]) <= 1e-9
    assert 0 <= float(fields["refresh_seconds"]) <= float(fields["design_seconds"]) + 0.01
    assert int(fields["breaks"]) < int(fields["cycles"])
    over = _run_tool("design_scale.py", "300", "1", "--max-rss-mb", "1")
    assert over.returncode == 1 and over.stdout.startswith("N=300 ")


def test_design_scale_fails_a_variance_off_the_returned_plan(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("design_scale", ROOT / "tools" / "design_scale.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(gainopt, "decentralized_model", gainopt.decentralized_model)  # the tool wraps it

    def misreported(*args):
        gains, trace, plan = gainopt.optimize_decentralized(*args)
        return gains, dataclasses.replace(trace, final_variance=trace.final_variance * 1.01), plan

    monkeypatch.setattr(tool, "optimize_decentralized", misreported)
    monkeypatch.setattr(sys, "argv", ["design_scale.py", "30", "1"])
    assert tool.main() == 1
    assert "variance_gap=1.0e-02" in capsys.readouterr().out


def test_consensus_scale_reports_the_run_and_gates_its_rss():
    done = _run_tool("consensus_scale.py", "200", "1", "--max-rss-mb", "100000")
    assert done.returncode == 0, done.stderr
    fields = dict(item.split("=") for item in done.stdout.split())
    assert set(fields) == {"N", "edges", "rounds", "converged", "consensus_s", "round_us",
                           "seconds", "max_rss_mb"}
    assert fields["N"] == "200" and fields["converged"] == "True"
    assert 1 <= int(fields["rounds"]) <= 1000
    assert float(fields["consensus_s"]) > 0
    # consensus_s is printed to the millisecond
    assert float(fields["round_us"]) * int(fields["rounds"]) / 1e6 == pytest.approx(
        float(fields["consensus_s"]), abs=6e-4)
    over = _run_tool("consensus_scale.py", "200", "1", "--max-rss-mb", "1")
    assert over.returncode == 1 and over.stdout.startswith("N=200 ")
