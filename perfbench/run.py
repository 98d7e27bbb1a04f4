"""Outside-in benchmark of wsngain: gain design, consensus and sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload central-design --seed 1 --seconds 15 --trace 0

Workloads: central-design, decentral-design, consensus, phase-sweep (see
``workloads.py`` and ``BENCHMARK.json``).  The library is imported from
``src/`` beside this directory; without it the script exits with code 2.
BLAS is pinned to one thread before numpy loads.

Lines before the last are a readable report (machine, sample counts, p90
where at least ten jobs lie above it, variance gain, failures).  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run also writes its spans to
``perfbench/out/spans-<workload>.csv``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("central-design", "decentral-design", "consensus", "phase-sweep")


def _load():
    """Import the runner, refusing any wsngain that is not this checkout's."""
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    try:
        import wsngain
    except ImportError as exc:
        sys.exit(f"cannot import wsngain from {SRC_DIR}: {exc}")
    if Path(wsngain.__file__).resolve().parent.parent != SRC_DIR:
        sys.exit(f"wsngain was imported from {wsngain.__file__}, not from {SRC_DIR}")
    import bench
    return bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    bench = _load()
    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), SRC_DIR)
    for key, value in out["report"].items():
        print(f"# {key}: {json.dumps(value)}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
