"""Print one digest line per job of the four benchmark workloads.

    python3 tools/job_digests.py ROOT SEED [SEED ...] [--jobs N]
    python3 tools/job_digests.py --compare A B

ROOT is a checkout of this repository: the library is imported from
``ROOT/src`` and the jobs come from ``ROOT/perfbench/workloads.py``, which
is only read.  Each line is ``workload seed job sha256 shape values``, the
sha256 taken over everything a job returns except wall times:

- designs: gain bytes, variance, outer count, segment breaks, ``converged``,
  the info and inner traces and, for a decentralized design, the plan;
- consensus: the plan, the measurement, the estimate, the analytic variance
  and the rounds;
- phase-sweep: the rows, without their mean runtimes.

``shape`` is a short hash of the job's discrete outcome alone: a design's
outer count, segment breaks, ``converged`` and plan; a consensus run's
plan and rounds; the phase-sweep rows without their floats.  Two lines
that differ in the sha256 but not in the shape moved only in floating-point
values, such as their last bits.  ``values`` is the job's headline,
comma-separated: a design's variance (both variances, in constraint order,
for a decentralized job), the consensus rounds, or a phase sweep's
optimized mean variances in N order.  So a ``diff`` of two checkouts'
lines shows which way a moved job went.  A job that raises a library
error is hashed by its error class and message, its shape by the class,
and its headline is the error class.
Two checkouts that print the same lines for the same seeds produce the
same bytes on every job.  ``--jobs N`` runs only the first N jobs of each
workload.  BLAS is pinned to one thread, as in ``perfbench/run.py``.

``--compare A B`` reads two files of such lines, from runs of the same
seeds that differ in how floating point is computed (say, another set of
BLAS kernels through ``OPENBLAS_CORETYPE``).  It prints how many byte
digests differ, in total and per workload, and the widest headline gap, and exits 1 unless both
files list the same jobs, every shape hash matches and every headline
value agrees within HEADLINE_RTOL relative: the runs reached the same
outcomes, whatever their last bits.
"""

import argparse
import hashlib
from collections import Counter
import importlib.util
import math
import os
import sys
from pathlib import Path

SHAPE_HEX = 16  # hex digits kept of the shape hash: short enough to read in a diff
HEADLINE_RTOL = 1e-12  # --compare: the widest relative gap allowed between headline values


def load_workloads(root: Path):
    """``ROOT/perfbench/workloads.py`` as a module, on the library in ``ROOT/src``."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import wsngain
    if Path(wsngain.__file__).resolve().parent.parent != src:
        sys.exit(f"wsngain was imported from {wsngain.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("job_digests_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _design_parts(gains, trace, plan=None):
    shape = [trace.outer_iters, trace.segment_breaks, trace.converged,
             None if plan is None else plan.carrier]
    return [gains.values.tobytes(), repr(trace.final_variance), trace.info_per_outer,
            trace.inner_objective] + shape, shape


def _parts(name: str, output) -> tuple[list, list]:
    """(everything the job returns but wall times, its discrete outcome)."""
    if name == "central-design":
        return _design_parts(*output)
    if name == "decentral-design":
        designs = [_design_parts(*design) for design in output]
        return [p for parts, _ in designs for p in parts], [p for _, shape in designs for p in shape]
    if name == "consensus":
        _, plan, y, report = output
        return ([plan.carrier, y.tobytes(), repr(report.theta_hat),
                 repr(report.analytic_variance), report.iterations_to_tol],
                [plan.carrier, report.iterations_to_tol])
    # the rows keep their wall times even when the CSV leaves them out
    return ([[{k: v for k, v in row.items() if k != "mean_runtime_s"} for row in output]],
            [[{k: v for k, v in row.items() if not isinstance(v, float)} for row in output]])


def _digest(parts: list) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _headline(name: str, output) -> list:
    if name == "central-design":
        return [output[1].final_variance]
    if name == "decentral-design":
        return [trace.final_variance for _, trace, _ in output]
    if name == "consensus":
        return [output[3].iterations_to_tol]
    return [row["mean_variance"] for row in output if row["method"] == "optimized"]


def job_lines(workloads, seed: int, jobs=None) -> list:
    """One ``workload seed job sha256 shape values`` line per job, workloads
    in their declared order."""
    from wsngain.errors import WsnGainError

    lines = []
    for name, workload in workloads.WORKLOADS.items():
        state = workload.build(seed)
        for j in range(workload.pass_jobs if jobs is None else min(jobs, workload.pass_jobs)):
            try:
                output = workload.job(state, j)
                parts, shape = _parts(name, output)
                values = ",".join(repr(float(v)) if isinstance(v, float) else str(v)
                                  for v in _headline(name, output))
            except WsnGainError as exc:
                parts, shape = [type(exc).__name__, str(exc)], [type(exc).__name__]
                values = type(exc).__name__
            lines.append(f"{name} {seed} {j} {_digest(parts)} {_digest(shape)[:SHAPE_HEX]} {values}")
    return lines


def _headline_gap(a: str, b: str) -> float:
    """Relative gap between two headline values: 0 when the texts or the
    numbers match, inf when either is not a number (an error class)."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def compare(first: list, second: list) -> tuple[list, str]:
    """(the disagreements of two runs' lines, a one-line summary)."""
    problems = []
    if len(first) != len(second):
        problems.append(f"{len(first)} lines against {len(second)}")
    moved, worst = Counter(), 0.0  # byte digests that differ, by workload
    for a, b in zip(first, second):
        (*job, digest_a, shape_a, values_a), (*job_b, digest_b, shape_b, values_b) = (
            a.split(), b.split())
        name = " ".join(job)
        if job != job_b:
            problems.append(f"{name}: against {' '.join(job_b)}")
            continue
        moved[job[0]] += digest_a != digest_b
        if shape_a != shape_b:
            problems.append(f"{name}: shape {shape_a} against {shape_b}")
        values_a, values_b = values_a.split(","), values_b.split(",")
        gap = (max(map(_headline_gap, values_a, values_b))
               if len(values_a) == len(values_b) else math.inf)
        worst = max(worst, gap)
        if not gap <= HEADLINE_RTOL:
            problems.append(f"{name}: headline {','.join(values_a)} against {','.join(values_b)}")
    by_workload = ", ".join(f"{name} {count}" for name, count in moved.items() if count)
    summary = (f"{min(len(first), len(second))} jobs: {moved.total()} byte digests differ"
               + (f" ({by_workload})" if by_workload else "")
               + f", widest headline gap {worst:.3g} relative")
    return problems, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, nargs="?", help="repository checkout to import")
    parser.add_argument("seeds", type=int, nargs="*", help="workload seeds")
    parser.add_argument("--jobs", type=int, default=None,
                        help="run only the first JOBS jobs of each workload")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two files of digest lines instead of running jobs")
    args = parser.parse_args(argv)
    if args.compare:
        if args.root or args.seeds:
            parser.error("--compare takes no ROOT or SEED")
        problems, summary = compare(*(path.read_text().splitlines() for path in args.compare))
        print(summary)
        for problem in problems:
            print(problem)
        return 1 if problems else 0
    if args.root is None or not args.seeds:
        parser.error("ROOT and at least one SEED are required")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy first loads, in load_workloads
    workloads = load_workloads(args.root)
    for seed in args.seeds:
        for line in job_lines(workloads, seed, args.jobs):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
