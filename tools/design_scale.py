"""Run one decentralized gain design on a large random graph and report its
time and peak memory.

    PYTHONPATH=src python3 tools/design_scale.py N SEED [--max-rss-mb MB]

Draws ``random_connected_topology(N, 2 ln N / N, SEED)`` and a scenario on
it (seed SEED), then runs ``optimize_decentralized`` with the ``energy``
constraint at ``OptimizerConfig()``, plan refresh on.  Prints one line: N,
edges, outer cycles, plan changes, whether the design converged, the
seconds taken by the graph and scenario draw and by the design, the part
of the design's seconds spent refreshing the carrier plan, the mean
number of secular evaluations per exact-step root solve, the relative
gap between the reported variance and the returned gains' variance under
the returned plan, and the process's maximum resident set size
(``ru_maxrss``) in MB.  The refresh time is measured by wrapping, for the
run, the ``decentralized_model`` through which ``gainopt`` does all its
refresh work, and the evaluations by wrapping ``gainopt._secular_root``.
Exits 1 when that gap exceeds VARIANCE_RTOL, or when, with
``--max-rss-mb``, the maximum RSS reached the limit.
"""

import argparse
import math
import resource
import sys
import time

from wsngain import (ConstraintSpec, assemble_global_model, gainopt, gen_decentralized_scenario,
                     global_variance, optimize_decentralized, random_connected_topology)

REFRESH = "decentralized_model"
SECULAR = "_secular_root"
VARIANCE_RTOL = 1e-9  # reported variance against the returned plan's, relative


def _timed(fn, spent: list):
    """fn, adding the seconds each call takes to spent[0]."""
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0
    return timed


def _counted(root, tally: list):
    """root, adding one to tally[0] per call and one to tally[1] per point it evaluates."""
    def counted(step, *args):
        tally[0] += 1

        def counting(x):
            tally[1] += 1
            return step(x)
        return root(counting, *args)
    return counted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int)
    parser.add_argument("seed", type=int)
    parser.add_argument("--max-rss-mb", type=float, default=math.inf)
    args = parser.parse_args()
    n = args.n
    t0 = time.perf_counter()
    topo = random_connected_topology(n, 2 * math.log(n) / n, seed=args.seed)
    scen = gen_decentralized_scenario(topo, seed=args.seed)
    refresh = [0.0]
    setattr(gainopt, REFRESH, _timed(getattr(gainopt, REFRESH), refresh))
    secular = [0, 0]  # root solves, evaluations
    setattr(gainopt, SECULAR, _counted(getattr(gainopt, SECULAR), secular))
    t1 = time.perf_counter()
    gains, trace, plan = optimize_decentralized(scen, ConstraintSpec.fixed_energy())
    t2 = time.perf_counter()
    v = global_variance(assemble_global_model(plan, scen), gains)
    gap = abs(trace.final_variance - v) / v
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"N={n} edges={topo.num_edges} cycles={trace.outer_iters} "
          f"breaks={len(trace.segment_breaks)} converged={trace.converged} "
          f"setup_seconds={t1 - t0:.2f} design_seconds={t2 - t1:.2f} "
          f"refresh_seconds={refresh[0]:.2f} secular_evals={secular[1] / max(secular[0], 1):.2f} "
          f"variance_gap={gap:.1e} max_rss_mb={rss_mb:.0f}")
    return 0 if gap <= VARIANCE_RTOL and rss_mb < args.max_rss_mb else 1


if __name__ == "__main__":
    sys.exit(main())
