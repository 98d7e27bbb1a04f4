"""tools/job_digests.py prints one repeatable line per benchmark job.

The tool is loaded from its file; it imports perfbench/workloads.py
read-only.  Two checkouts compare by their lines, so a line must repeat on
a second run and must tell different outputs apart.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "job_digests.py"
WORKLOADS = ("central-design", "decentral-design", "consensus", "phase-sweep")


def test_job_digest_lines_repeat_and_tell_seeds_apart(capsys):
    spec = importlib.util.spec_from_file_location("job_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def lines(seed):
        assert tool.main([str(ROOT), str(seed), "--jobs", "1"]) == 0
        return capsys.readouterr().out.splitlines()

    first = lines(3)
    assert [line.split()[:3] for line in first] == [[name, "3", "0"] for name in WORKLOADS]
    assert all(len(line.split()[3]) == 64 for line in first)
    assert lines(3) == first
    # another seed draws other inputs, so every job's output, and its digest, differs
    other = lines(4)
    assert all(a.split()[3] != b.split()[3] for a, b in zip(first, other))
