"""The four benchmark workloads: inputs from a seed, one job, one output check.

Every workload turns the command-line seed into a list of ``pass_jobs``
distinct jobs before timing starts, runs job ``j`` as ``job(state, j)``, and
checks each output from outside the library.  Jobs call the library through
module attributes (``gainopt.optimize``, ``estimator.run_consensus``, ...),
so a traced run that replaces those attributes sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from wsngain import diffusion, estimator, gainopt, harness, netgraph, scenario
from wsngain.errors import WsnGainError

# Relative agreement required between a reported variance and the variance
# recomputed from the returned gains (and plan).
VARIANCE_RTOL = 1e-9
# Float slack on "no worse than the start" and "within tol of the MLE":
# the compared values come from different but equivalent formulas.
ROUNDING_RTOL = 1e-12

# At the default stop rule (outer_tol 1e-8, max_outer 200) one design takes
# 24 to 200 outer cycles depending on the draw, so a run of a few dozen
# designs cannot give a steady per-job time.  Centralized designs get a
# budget that nearly every energy and select design uses up.  Decentralized
# designs stop on a looser tolerance instead (6 to 29 cycles): a design that
# ends on its budget can report the variance under its last cycle's plan, not
# under the returned one, which the variance check flags.
CENTRAL_MAX_OUTER = 30
DECENTRAL_OUTER_TOL = 1e-3


def _job_seeds(seed: int, tag: int, count: int) -> list[int]:
    """``count`` independent integer seeds from (workload seed, tag)."""
    state = np.random.SeedSequence((seed, tag)).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def _job_seed(seed: int, tag: int, j: int) -> int:
    return int(np.random.SeedSequence((seed, tag, j)).generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one output check; ``gain`` is v(all-ones) / v(returned)."""

    ok: bool
    reason: str = ""
    gain: float | None = None


def _fail(reason: str) -> CheckResult:
    return CheckResult(False, reason)


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Workload:
    """One workload: seed to job list, a job, and the check of its output."""

    name = ""
    pass_jobs = 1

    def build(self, seed: int):
        """Generate the run's inputs (timed as set-up)."""
        raise NotImplementedError

    def job(self, state, j: int):
        """Run job ``j`` (timed); returns the output handed to :meth:`check`."""
        raise NotImplementedError

    def check(self, state, j: int, output) -> CheckResult:
        raise NotImplementedError


class CentralDesign(Workload):
    """``optimize`` on centralized scenarios, M=4, N in {100, 200}."""

    name = "central-design"
    shapes = ((100, "energy"), (100, "select:20"), (100, "quant:8"),
              (200, "energy"), (200, "select:40"), (200, "quant:8"))
    pass_jobs = 4 * len(shapes)

    def build(self, seed):
        jobs = []
        for j, scen_seed in enumerate(_job_seeds(seed, 1, self.pass_jobs)):
            n, text = self.shapes[j % len(self.shapes)]
            constraint = gainopt.ConstraintSpec.parse(text)
            config = gainopt.OptimizerConfig(max_outer=CENTRAL_MAX_OUTER,
                                             restarts=3 if constraint.kind == "quant" else 1)
            scen = scenario.gen_centralized_scenario(n, 4, seed=scen_seed)
            jobs.append((diffusion.centralized_model(scen), constraint, config))
        return jobs

    def job(self, state, j):
        model, constraint, config = state[j]
        return gainopt.optimize(model, constraint, config)

    def check(self, state, j, output):
        model, constraint, _ = state[j]
        gains, trace = output
        try:
            constraint.check(gains.values)
        except WsnGainError as exc:
            return _fail(f"constraint: {exc}")
        v = estimator.global_variance(model, gains)
        if _rel_gap(trace.final_variance, v) > VARIANCE_RTOL:
            return _fail(f"reported variance {trace.final_variance!r} != recomputed {v!r}")
        v_start = estimator.global_variance(model, constraint.initial_point(model.num_sensors))
        if v > v_start * (1 + ROUNDING_RTOL):
            return _fail(f"variance {v!r} above the start's {v_start!r}")
        v_ones = estimator.global_variance(model, np.ones(model.num_sensors, dtype=complex))
        return CheckResult(True, gain=v_ones / v)


class DecentralDesign(Workload):
    """``optimize_decentralized`` with plan refresh, N=50, p=0.15: one job
    designs one graph's gains under each constraint in turn."""

    name = "decentral-design"
    constraints = ("energy", "select:25")
    # One design's cycle count is small and discrete (mostly 6 to 29, now and
    # then the full budget), so the median of single designs moves by a whole
    # cycle, about a tenth, from seed to seed; a job of both designs on a graph
    # halves that step, and many graphs keep the median from seed to seed.
    graphs = 30
    pass_jobs = graphs

    def build(self, seed):
        pool = []
        for g_seed, s_seed in zip(_job_seeds(seed, 2, self.graphs), _job_seeds(seed, 3, self.graphs)):
            topo = netgraph.random_connected_topology(50, 0.15, g_seed)
            pool.append(scenario.gen_decentralized_scenario(topo, seed=s_seed))
        config = gainopt.OptimizerConfig(outer_tol=DECENTRAL_OUTER_TOL)
        constraints = [gainopt.ConstraintSpec.parse(c) for c in self.constraints]
        return pool, constraints, config

    def job(self, state, j):
        pool, constraints, config = state
        return [gainopt.optimize_decentralized(pool[j], constraint, config, refresh_plan=True)
                for constraint in constraints]

    def check(self, state, j, output):
        pool, constraints, _ = state
        scen = pool[j]
        ones = np.ones(scen.num_sensors, dtype=complex)
        v_ones = estimator.global_variance(diffusion.decentralized_model(scen, ones)[0], ones)
        ratios = []
        for constraint, (gains, trace, plan) in zip(constraints, output):
            try:
                constraint.check(gains.values)
            except WsnGainError as exc:
                return _fail(f"{constraint.kind} constraint: {exc}")
            v = estimator.global_variance(diffusion.assemble_global_model(plan, scen), gains)
            if _rel_gap(trace.final_variance, v) > VARIANCE_RTOL:
                return _fail(f"{constraint.kind}: reported variance {trace.final_variance!r} != "
                             f"variance under the returned plan {v!r}")
            ratios.append(v_ones / v)
        return CheckResult(True, gain=geometric_mean(ratios))


class Consensus(Workload):
    """Carrier compression, one measurement and ADMM consensus, N=100, p=0.1."""

    name = "consensus"
    graphs = 32
    pass_jobs = 4 * graphs
    theta = 10.0
    max_iter = 500
    tol = 1e-6
    rho = 1.0

    def build(self, seed):
        pool = []
        for g_seed, s_seed in zip(_job_seeds(seed, 4, self.graphs), _job_seeds(seed, 5, self.graphs)):
            topo = netgraph.random_connected_topology(100, 0.1, g_seed)
            pool.append(scenario.gen_decentralized_scenario(topo, theta=self.theta, seed=s_seed))
        return seed, pool

    def job(self, state, j):
        seed, pool = state
        scen = pool[j % self.graphs]
        gains = estimator.GainVector(np.ones(scen.num_sensors, dtype=complex))
        _, plan = diffusion.decentralized_model(scen, gains)
        rng = np.random.default_rng(_job_seed(seed, 6, j))
        y = estimator.simulate_measurement(scen, gains, plan, rng)
        received = estimator.received_by_sink(plan, y)
        report = estimator.run_consensus(scen, gains, plan, received, max_iter=self.max_iter,
                                         tol=self.tol, rho=self.rho, record_trace=True)
        return gains, plan, y, report

    def check(self, state, j, output):
        _, pool = state
        scen = pool[j % self.graphs]
        gains, plan, y, report = output
        mle = estimator.global_mle(diffusion.assemble_global_model(plan, scen), gains, y)
        if _rel_gap(report.theta_hat, mle) > VARIANCE_RTOL:
            return _fail(f"reported estimate {report.theta_hat!r} != global MLE {mle!r}")
        err = float(np.max(np.abs(report.per_node_trace[-1] - mle)))
        if err > self.tol * abs(mle) * (1 + ROUNDING_RTOL):
            return _fail(f"last estimates {err!r} from the global MLE")
        return CheckResult(True)


class PhaseSweep(Workload):
    """One phase-only ``sweep-N`` experiment per job through ``run_experiment``."""

    name = "phase-sweep"
    n_values = (10, 30, 60)
    realizations = 3
    pass_jobs = 100

    def build(self, seed):
        return seed

    def _config(self, seed, j):
        return harness.ExperimentConfig(kind="sweep-N", n_values=self.n_values,
                                        realizations=self.realizations,
                                        seed=_job_seed(seed, 7, j), include_runtime=False)

    def job(self, state, j):
        rows, _ = harness.run_experiment(self._config(state, j))
        return rows

    def check(self, state, j, output):
        rows = {(row["N"], row["method"]): row for row in output}
        ratios = []
        for n in self.n_values:
            opt, ones = rows.get((n, "optimized")), rows.get((n, "all-ones"))
            if opt is None or ones is None:
                return _fail(f"N={n}: missing row")
            if opt["failures"] or opt["realizations"] != self.realizations:
                return _fail(f"N={n}: {opt['failures']} failed realizations")
            if not opt["mean_variance"] <= ones["mean_variance"]:
                return _fail(f"N={n}: optimized mean {opt['mean_variance']!r} above "
                             f"all-ones mean {ones['mean_variance']!r}")
            ratios.append(ones["mean_variance"] / opt["mean_variance"])
        return CheckResult(True, gain=geometric_mean(ratios))


def geometric_mean(values) -> float:
    """Geometric mean; 1.0 for no values (no design, no gain)."""
    values = list(values)
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


WORKLOADS = {w.name: w for w in (CentralDesign(), DecentralDesign(), Consensus(), PhaseSweep())}
