"""In-memory span recorder wrapped around the library's public functions.

:meth:`Tracer.installed` replaces each traced function at every module
attribute of the ``wsngain`` package that holds it, so the wrapper sees the
call whichever module the caller looks it up in.  A span records (name,
start, end, parent, job); spans are kept in memory and written out once,
after the run.
Calls made while no job is open pass straight through.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import sys
import time
from collections import defaultdict

TRACED = {
    "gainopt": ("optimize", "optimize_decentralized", "build_lifted", "solve_auxiliary",
                "build_inner_quadratic", "shift_quadratic", "inner_power_iterations",
                "project", "uqp_matrix", "uqp_step", "optimize_phase_only_uqp"),
    "diffusion": ("decentralized_model", "information_table", "assign_carriers",
                  "assemble_global_model"),
    "estimator": ("run_consensus", "simulate_measurement", "received_by_sink",
                  "global_variance"),
    "scenario": ("gen_centralized_scenario", "gen_decentralized_scenario"),
    "netgraph": ("random_connected_topology",),
    "harness": ("run_experiment", "run_sweep", "baseline_all_ones"),
}
LAYERS = tuple(TRACED)
TRACED_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns)

# Outputs kept from the calls whose results carry the count metrics.
_KEPT = ("gainopt.optimize", "gainopt.inner_power_iterations", "estimator.run_consensus")


class Tracer:
    """Span list plus the call arguments and results the count metrics need."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job]
        self.kept: dict[str, list] = defaultdict(list)  # name -> [(span index, bound args, result)]
        self.job = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        keep = name in _KEPT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if keep:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.kept[name].append((idx, bound.arguments, result))
            return result

        return traced

    def open(self, job, name: str):
        """Start a root span for one job (or for set-up)."""
        self.job = job
        self._stack = [len(self.spans)]
        self.spans.append([name, time.perf_counter(), 0.0, -1, job])

    def close(self) -> float:
        """End the root span; returns its duration."""
        root = self.spans[self._stack[0]]
        root[2] = time.perf_counter()
        self._stack = []
        self.job = None
        return root[2] - root[1]

    @contextlib.contextmanager
    def installed(self):
        """Within the block, every module attribute that holds a traced
        function holds its wrapper instead."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "wsngain" or key.startswith("wsngain."))]
        restore = []
        for name in TRACED_NAMES:
            module, func = name.split(".")
            original = getattr(sys.modules[f"wsngain.{module}"], func)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_s", "end_s", "parent", "job", "self_s"))
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, ((name, start, end, parent, job), self_s) in enumerate(
                    zip(self.spans, self.self_times())):
                out.writerow((i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, job,
                              f"{self_s:.9f}"))
