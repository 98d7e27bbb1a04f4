"""Run one decentralized gain design on a large random graph and report its
time and peak memory.

    PYTHONPATH=src python3 tools/design_scale.py N SEED [--max-rss-mb MB]

Draws ``random_connected_topology(N, 2 ln N / N, SEED)`` and a scenario on
it (seed SEED), then runs ``optimize_decentralized`` with the ``energy``
constraint at ``OptimizerConfig()``, plan refresh on.  Prints one line: N,
edges, outer cycles, plan changes, whether the design converged, the
seconds taken by the graph and scenario draw and by the design, the part
of the design's seconds spent refreshing the carrier plan, and the
process's maximum resident set size (``ru_maxrss``) in MB.  The refresh
time is measured by wrapping, for the run, the ``decentralized_model``,
``information_table`` and ``assign_carriers`` that ``gainopt`` calls.
Exits 1 when, with ``--max-rss-mb``, the maximum RSS reached the limit.
It checks no variance: a design that ends on its cycle budget reports the
variance of its last cycle's plan, not of the returned one.
"""

import argparse
import math
import resource
import sys
import time

from wsngain import (ConstraintSpec, gainopt, gen_decentralized_scenario,
                     optimize_decentralized, random_connected_topology)

REFRESH = ("decentralized_model", "information_table", "assign_carriers")


def _timed(fn, spent: list):
    """fn, adding the seconds each call takes to spent[0]."""
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += time.perf_counter() - t0
    return timed


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
    for name in REFRESH:
        setattr(gainopt, name, _timed(getattr(gainopt, name), refresh))
    t1 = time.perf_counter()
    _, trace, _ = optimize_decentralized(scen, ConstraintSpec.fixed_energy())
    t2 = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"N={n} edges={topo.num_edges} cycles={trace.outer_iters} "
          f"breaks={len(trace.segment_breaks)} converged={trace.converged} "
          f"setup_seconds={t1 - t0:.2f} design_seconds={t2 - t1:.2f} "
          f"refresh_seconds={refresh[0]:.2f} max_rss_mb={rss_mb:.0f}")
    return 0 if rss_mb < args.max_rss_mb else 1


if __name__ == "__main__":
    sys.exit(main())
