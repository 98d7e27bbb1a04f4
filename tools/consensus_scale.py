"""Run the decentralized consensus pipeline on one large random graph and
report its time and peak memory.

    PYTHONPATH=src python3 tools/consensus_scale.py N SEED [--max-rss-mb MB]

Draws ``random_connected_topology(N, 2 ln N / N, SEED)``, a scenario on it
(seed SEED), the compressed model for unit gains, one measurement and ADMM
consensus without a trace.  Prints one line: N, edges, consensus rounds,
whether consensus converged, the seconds spent in ``run_consensus`` alone
(``consensus_s``) and per round (``round_us``, in microseconds), the
seconds of the whole run and the process's maximum resident set size
(``ru_maxrss``) in MB.  Exits 1 unless consensus converged and, with
``--max-rss-mb``, the maximum RSS stayed under the limit.
"""

import argparse
import math
import resource
import sys
import time

import numpy as np

from wsngain import (NoConvergence, decentralized_model, gen_decentralized_scenario,
                     random_connected_topology, received_by_sink, run_consensus,
                     simulate_measurement)


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
    gains = np.ones(n, dtype=complex)
    _, plan = decentralized_model(scen, gains)
    received = received_by_sink(plan, simulate_measurement(scen, gains, plan,
                                                           np.random.default_rng(args.seed)))
    t1 = time.perf_counter()
    try:
        report = run_consensus(scen, gains, plan, received, record_trace=False)
    except NoConvergence as exc:
        report = exc.report
    t2 = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    round_us = (t2 - t1) / max(report.iterations_to_tol, 1) * 1e6
    print(f"N={n} edges={topo.num_edges} rounds={report.iterations_to_tol} "
          f"converged={report.converged} consensus_s={t2 - t1:.3f} round_us={round_us:.1f} "
          f"seconds={t2 - t0:.2f} max_rss_mb={rss_mb:.0f}")
    return 0 if report.converged and rss_mb < args.max_rss_mb else 1


if __name__ == "__main__":
    sys.exit(main())
