"""tools/design_scale.py runs one decentralized design and gates its memory.

The tool runs in a fresh interpreter, as CI runs it, so its maximum RSS is
its own.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _design_scale(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "tools" / "design_scale.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_design_scale_reports_the_design_and_gates_its_rss():
    done = _design_scale("300", "1", "--max-rss-mb", "100000")
    assert done.returncode == 0, done.stderr
    fields = dict(item.split("=") for item in done.stdout.split())
    assert set(fields) == {"N", "edges", "cycles", "breaks", "converged", "setup_seconds",
                           "design_seconds", "max_rss_mb"}
    assert fields["N"] == "300" and 1 <= int(fields["cycles"]) <= 200
    assert int(fields["breaks"]) < int(fields["cycles"])
    over = _design_scale("300", "1", "--max-rss-mb", "1")
    assert over.returncode == 1 and over.stdout.startswith("N=300 ")
