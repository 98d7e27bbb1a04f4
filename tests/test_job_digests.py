"""tools/job_digests.py prints one repeatable line per benchmark job.

The tool is loaded from its file; it imports perfbench/workloads.py
read-only.  Two checkouts compare by their lines, so a line must repeat on
a second run and must tell different outputs apart.
"""

import dataclasses
import importlib.util
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "job_digests.py"
WORKLOADS = ("central-design", "decentral-design", "consensus", "phase-sweep")


def _tool():
    spec = importlib.util.spec_from_file_location("job_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_job_digest_lines_repeat_and_tell_seeds_apart(capsys):
    tool = _tool()

    def lines(seed):
        assert tool.main([str(ROOT), str(seed), "--jobs", "1"]) == 0
        return capsys.readouterr().out.splitlines()

    first = lines(3)
    assert [line.split()[:3] for line in first] == [[name, "3", "0"] for name in WORKLOADS]
    assert all(len(line.split()) == 6 and len(line.split()[3]) == 64
               and len(line.split()[4]) == tool.SHAPE_HEX for line in first)
    # the headline: one design variance, two decentralized ones, the consensus
    # rounds, and the optimized mean variance at each of the three sweep sizes
    central, decentral, consensus, sweep = (line.split()[5].split(",") for line in first)
    assert len(central) == 1 and len(decentral) == 2 and len(sweep) == 3
    assert all(0.0 < float(v) < math.inf for v in central + decentral + sweep)
    assert int(consensus[0]) >= 1 and len(consensus) == 1
    assert lines(3) == first
    # another seed draws other inputs, so every job's output, and its digest, differs
    other = lines(4)
    assert all(a.split()[3] != b.split()[3] for a, b in zip(first, other))


def test_shape_digest_reads_only_the_discrete_outcome():
    tool = _tool()
    workload = tool.load_workloads(ROOT).WORKLOADS["central-design"]
    gains, trace = workload.job(workload.build(3), 0)
    parts, shape = tool._parts("central-design", (gains, trace))
    # the last bit of the variance moves the full digest, not the shape
    nudged = dataclasses.replace(trace, final_variance=math.nextafter(trace.final_variance, 1.0))
    moved, same = tool._parts("central-design", (gains, nudged))
    assert tool._digest(moved) != tool._digest(parts) and tool._digest(same) == tool._digest(shape)
    # another outer count moves both
    longer = dataclasses.replace(trace, info_per_outer=trace.info_per_outer * 2)
    moved, other = tool._parts("central-design", (gains, longer))
    assert tool._digest(moved) != tool._digest(parts) and tool._digest(other) != tool._digest(shape)


def test_compare_allows_other_kernels_and_catches_moved_outcomes(tmp_path, capsys):
    # a run on other BLAS kernels may move last bits, and --compare passes
    # it; a moved shape, a headline off by more than 1e-12 relative or a
    # missing job fails it
    tool = _tool()
    native = tool.job_lines(tool.load_workloads(ROOT), 3, jobs=1)
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), "3", "--jobs", "1"],
                          env=dict(os.environ, OPENBLAS_CORETYPE="Nehalem"),
                          capture_output=True, text=True, timeout=120, check=True)
    kernels = done.stdout.splitlines()

    def compare(lines):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("\n".join(native) + "\n")
        b.write_text("\n".join(lines) + "\n")
        code = tool.main(["--compare", str(a), str(b)])
        return code, capsys.readouterr().out.splitlines()

    code, out = compare(kernels)
    assert code == 0 and len(out) == 1 and out[0].startswith("4 jobs: ")

    def edited(field, change):
        fields = native[0].split()
        fields[field] = change(fields[field])
        return [" ".join(fields)] + native[1:]

    value = float(native[0].split()[5])
    code, out = compare(edited(3, lambda digest: "0" * 64))
    assert code == 0 and out == [
        "4 jobs: 1 byte digests differ (central-design 1), widest headline gap 0 relative"]
    assert compare(edited(5, lambda v: repr(value * (1 + 1e-13))))[0] == 0
    code, out = compare(edited(5, lambda v: repr(value * (1 + 1e-11))))
    assert code == 1 and out[1].startswith("central-design 3 0: headline")
    code, out = compare(edited(5, lambda v: "DegenerateGains"))
    assert code == 1 and "headline" in out[1]
    code, out = compare(edited(4, lambda shape: "0" * tool.SHAPE_HEX))
    assert code == 1 and out[1].startswith("central-design 3 0: shape")
    code, out = compare(native[:-1])
    assert code == 1 and out[1] == "4 lines against 3"
