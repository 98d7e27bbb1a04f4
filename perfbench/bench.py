"""Closed-loop runner and metrics for the benchmark (see ``run.py``).

One client issues each job only after the previous one returned and checks
its output outside the timed interval.  An untraced run repeats the
workload's job list in whole passes, at least ``MIN_PASSES`` and until
``seconds`` of job time, and reports the end-to-end metrics from each job's
median repeat: the host's speed swings by up to half within seconds and
shifts for tens of seconds at a time, and the median of repeats spread over
the run follows neither a short fast spell nor a short slow one.  Set-up
and job times are then scaled to a reference host speed (``REFERENCE_S``), which
takes out most of the drifts that outlast a run.  A traced run reports the
per-layer metrics of one pass, so its counts repeat exactly for a seed.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import workloads
from tracer import LAYERS, TRACED_NAMES, Tracer
from wsngain.errors import WsnGainError, ZeroVectorWarning

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
BLAS_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh interpreters timed for setup_s, one before each pass so that they
# sample the whole run; the metric is their median.
SETUP_REPEATS = 7
# Fewest passes over the job list in an untraced run.
MIN_PASSES = 3
# The host's speed drifts by up to a third for minutes at a time, longer than
# a run (see README "Noise").  An untraced run times a fixed kernel that uses
# no wsngain code between jobs, at most every REFERENCE_EVERY_S, and reports
# set-up and job times at the host speed at which that kernel takes
# REFERENCE_S: each time is scaled by REFERENCE_S over the run's median kernel
# time.  A change
# to wsngain does not move the kernel, so it shows in full.
REFERENCE_S = 3.0e-3
REFERENCE_EVERY_S = 0.25
_REF_RNG = np.random.default_rng(0)
_REF_A = (_REF_RNG.standard_normal((51, 51)) + 1j * _REF_RNG.standard_normal((51, 51))) / 10
_REF_B = _REF_RNG.standard_normal((101, 101)) + 10 * np.eye(101)

END_TO_END = (
    ("setup_s", "s"),
    ("job_s.p50", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    *((f"{name}.{kind}", unit) for name in TRACED_NAMES
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    *((f"layer.{layer}.job_share", "fraction") for layer in LAYERS),
    ("bench.job_share", "fraction"),
    ("gainopt.outer_iters.mean", "count"),
    ("gainopt.inner_iters.mean", "count"),
    ("gainopt.converged_frac", "fraction"),
    ("gainopt.certified_fallbacks", "count"),
    ("gainopt.inner_early_stop_frac", "fraction"),
    ("gainopt.zero_vector_warnings", "count"),
    ("gainopt.variance_gain", "ratio"),
    ("diffusion.plan_change_ratio", "ratio"),
    ("estimator.consensus_rounds.mean", "count"),
    ("estimator.admm_round_s", "s"),
    ("trace.job_s.p50", "s"),
    ("trace.overhead_s", "s"),
)

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""


def machine() -> dict:
    """Host, interpreter, numpy and BLAS facts printed with every run."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_pin": {var: os.environ.get(var) for var in BLAS_PIN_VARS},
    }


def reference_seconds() -> float:
    """Time of the fixed kernel: small complex products, an interpreter
    loop and one 101x101 solve, the kinds of work the jobs do."""
    t0 = time.perf_counter()
    x = np.ones(51, dtype=complex)
    for _ in range(200):
        x = _REF_A @ x
        x = x / np.linalg.norm(x)
        acc = 0.0
        for k in range(40):
            acc += k * 0.5
    np.linalg.solve(_REF_B, _REF_B[:, 0])
    return time.perf_counter() - t0


def setup_seconds(name: str, seed: int, src_dir: Path) -> float:
    """Import plus input generation, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(src_dir), str(BENCH_DIR), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """Job outcomes of one run: times, check results, failure reasons."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.times: dict[int, list[float]] = defaultdict(list)  # job -> untraced repeat times
        self.gains: dict[int, float] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def _finish(self, j, output, error):
        self.attempted += 1
        if error is not None:
            self.failures.append(f"job {j}: {type(error).__name__}: {error}")
            return
        result = self.workload.check(self.state, j, output)
        if not result.ok:
            self.failures.append(f"job {j}: {result.reason}")
        elif result.gain is not None:
            self.gains[j] = result.gain

    def one(self, j: int) -> float:
        """Run, time and check job j untraced; returns its wall time."""
        output = error = None
        t0 = time.perf_counter()
        try:
            output = self.workload.job(self.state, j)
        except WsnGainError as exc:
            error = exc
        dt = time.perf_counter() - t0
        self.times[j].append(dt)
        self._finish(j, output, error)
        return dt

    def one_traced(self, j: int, tracer: Tracer) -> tuple[float, int]:
        """Run job j under a root span; returns (wall time, zero-vector warnings)."""
        output = error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ZeroVectorWarning)
            tracer.open(j, "bench.job")
            try:
                output = self.workload.job(self.state, j)
            except WsnGainError as exc:
                error = exc
            finally:
                dt = tracer.close()
        self._finish(j, output, error)
        return dt, sum(issubclass(w.category, ZeroVectorWarning) for w in caught)


def _untraced(run: Run, seconds: float, between_passes) -> tuple[int, float, list[float]]:
    """Whole passes over the job list; returns (passes, summed job time,
    reference kernel times)."""
    busy, passes, reference, last = 0.0, 0, [], 0.0
    while passes < MIN_PASSES or busy < seconds:
        between_passes()
        for j in range(run.workload.pass_jobs):
            busy += run.one(j)
            if time.perf_counter() - last >= REFERENCE_EVERY_S:
                reference.append(reference_seconds())
                last = time.perf_counter()
        passes += 1
    return passes, busy, reference


def _layer_metrics(tracer: Tracer, untraced_times, traced_times, zero_warnings, gains) -> dict:
    self_times = tracer.self_times()
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    layer_self: dict = defaultdict(float)
    job_total = bench_self = 0.0
    for (name, start, end, _, job), s in zip(tracer.spans, self_times):
        if name == "bench.job":
            job_total += end - start
            bench_self += s
        elif name != "bench.setup":
            calls[name] += 1
            self_s[name] += s
            if job != "setup":
                layer_self[name.split(".")[0]] += s

    optimizer_runs = [(args, result[1]) for _, args, result in tracer.kept["gainopt.optimize"]]
    inner_runs = [(args["max_iters"], len(result[1]) - 1)
                  for _, args, result in tracer.kept["gainopt.inner_power_iterations"]]
    rounds = [result.iterations_to_tol for _, _, result in tracer.kept["estimator.run_consensus"]]
    optimize_spans = {idx for idx, _, _ in tracer.kept["gainopt.optimize"]}
    rebuilds = sum(1 for span in tracer.spans
                   if span[0] == "diffusion.decentralized_model" and span[3] in optimize_spans)
    breaks = sum(len(trace.segment_breaks) for _, trace in optimizer_runs)
    total_rounds = sum(rounds)

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    values = {}
    for name in TRACED_NAMES:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        values[f"layer.{layer}.job_share"] = layer_self[layer] / job_total
    values.update({
        "bench.job_share": bench_self / job_total,
        "gainopt.outer_iters.mean": mean(t.outer_iters for _, t in optimizer_runs),
        "gainopt.inner_iters.mean": mean(steps for _, steps in inner_runs),
        "gainopt.converged_frac": mean(t.outer_iters < args["config"].max_outer
                                       for args, t in optimizer_runs),
        "gainopt.certified_fallbacks": (calls["gainopt.inner_power_iterations"]
                                        - calls["gainopt.shift_quadratic"]),
        "gainopt.inner_early_stop_frac": mean(steps < cap for cap, steps in inner_runs),
        "gainopt.zero_vector_warnings": zero_warnings,
        "gainopt.variance_gain": workloads.geometric_mean(gains.values()),
        "diffusion.plan_change_ratio": breaks / rebuilds if rebuilds else 0.0,
        "estimator.consensus_rounds.mean": mean(rounds),
        "estimator.admm_round_s": (self_s["estimator.run_consensus"] / total_rounds
                                   if total_rounds else 0.0),
        "trace.job_s.p50": statistics.median(traced_times),
        "trace.overhead_s": statistics.median(traced_times) - statistics.median(untraced_times),
    })
    return values


def run(name: str, seed: int, seconds: float, trace: bool, src_dir: Path,
        pass_jobs: int | None = None, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result object and a human-readable report.

    ``pass_jobs`` shortens the workload's job list (tests only).
    """
    w = workloads.WORKLOADS[name]
    if pass_jobs is not None:
        w = type(w)()
        w.pass_jobs = pass_jobs
    report = {"workload": name, "seed": seed, "machine": machine()}

    if not trace:
        samples = []

        def sample_setup():
            if len(samples) < setup_repeats:
                samples.append(setup_seconds(name, seed, src_dir))

        run_ = Run(w, w.build(seed))
        passes, busy, reference = _untraced(run_, seconds, sample_setup)
        while len(samples) < setup_repeats:
            sample_setup()
        typical = [statistics.median(run_.times[j]) for j in range(w.pass_jobs)]
        scale = REFERENCE_S / statistics.median(reference)
        metrics = {
            "setup_s": statistics.median(samples) * scale,
            "job_s.p50": statistics.median(typical) * scale,
            "jobs_per_s": len(typical) / sum(typical) / scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        report.update({
            "setup_samples_s": samples,
            "distinct_jobs": len(typical),
            "passes": passes,
            "reference_s.p50": statistics.median(reference),
            "reference_samples": len(reference),
            "setup_s_unscaled": statistics.median(samples),
            "job_s.p50_unscaled": statistics.median(typical),
            "jobs_per_s_unscaled": len(typical) / sum(typical),
            # at least ten jobs above p90, at the reference speed
            "job_s.p90": (float(np.quantile(typical, 0.9)) * scale if len(typical) >= 100
                          else "omitted: fewer than 100 jobs"),
            "jobs_per_s_all_repeats": run_.attempted / busy,
            "variance_gain": (workloads.geometric_mean(run_.gains.values())
                              if run_.gains else "n/a"),
        })
    else:
        tracer = Tracer()
        with tracer.installed():
            tracer.open("setup", "bench.setup")
            try:
                state = w.build(seed)
            finally:
                tracer.close()
        run_ = Run(w, state)
        # Each prefix job runs once untraced and once traced, in alternating
        # order, so host drift cancels out of the overhead.
        untraced_times, traced_times, zero_warnings = [], [], 0
        for j in range(w.pass_jobs):
            for traced in ((False, True) if j % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed():
                        dt, warned = run_.one_traced(j, tracer)
                    traced_times.append(dt)
                    zero_warnings += warned
                else:
                    untraced_times.append(run_.one(j))
        metrics = _layer_metrics(tracer, untraced_times, traced_times, zero_warnings, run_.gains)
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}.csv"
        tracer.write_csv(spans_path)
        report.update({"jobs": 2 * w.pass_jobs, "spans": len(tracer.spans),
                       "spans_file": str(spans_path)})

    failed = len(run_.failures)
    report["failed_frac"] = failed / run_.attempted
    report["failures"] = run_.failures[:20]
    result = {
        "correct": failed == 0,
        "attempted": run_.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    for value in result["metrics"].values():
        if not math.isfinite(value["value"]):
            raise ValueError(f"non-finite metric in {result['metrics']}")
    return {"result": result, "report": report}
