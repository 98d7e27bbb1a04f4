"""Experiment runner: sweeps, baselines, consensus traces and CSV emission.

Three experiment kinds run on centralized scenarios: variance sweeps over
the sensor count, sensor-selection comparisons over a receiver-noise grid
and exhaustive-enumeration oracle gaps for quantized phases.  All
randomness derives per realization from (master seed, tags), so identical
configurations yield identical outputs.  Every runner hands its
per-realization body to one loop, :func:`_realizations`, which counts the
realizations that fail by error class for the metadata's ``failures``.

``EXPERIMENTS`` maps each experiment kind to its runner's name and its CSV
columns; kind validation, :func:`run_experiment` and :func:`columns_for` read it.
:func:`consensus_trace` is the one consensus run with a per-iteration trace,
behind ``wsngain simulate-consensus``.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .diffusion import centralized_model, decentralized_model
from .errors import InvalidConfig, TooLarge, WsnGainError
from .estimator import (
    GainVector,
    global_variance,
    received_by_sink,
    run_consensus,
    simulate_measurement,
)
from .gainopt import (
    ConstraintSpec,
    OptimizerConfig,
    _phase_grid,
    optimize,
    refine,
    uqp_matrix,
)
from .netgraph import is_int
from .scenario import NoiseConfig, _is_number, gen_centralized_scenario

EXHAUSTIVE_BUDGET = 10**7

SWEEP_COLUMNS = ("N", "method", "mean_variance", "mean_runtime_s", "realizations", "failures")
SELECTION_COLUMNS = ("sigma_n2", "method", "mean_variance")
ORACLE_GAP_COLUMNS = ("seed", "N", "variance_opt", "variance_best", "ratio", "hit")
CONSENSUS_COLUMNS = ("iter", "node", "theta_hat_re", "theta_hat_im", "abs_err")

# kind -> (runner name, CSV columns); runners are looked up by name at call time
# so that a wrapper set on the module attribute (a tracer, a test double) sees the call
EXPERIMENTS = {
    "sweep-N": ("run_sweep", SWEEP_COLUMNS),
    "selection": ("run_selection_experiment", SELECTION_COLUMNS),
    "oracle-gap": ("run_oracle_gap", ORACLE_GAP_COLUMNS),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment specification, checked whole before any work is done.

    ``n_values`` is the sensor-count grid (one count N for a selection
    experiment, which needs K < N; the candidate sizes, each enumerable, for
    the oracle-gap study); ``sigma_grid`` is the receiver-noise grid for
    selection experiments.  Every scenario and optimizer seed derives from
    ``seed``, an integer >= 0; the counts and each sensor count are integers
    >= 1 (not bool), and anything else raises InvalidConfig.
    ``include_runtime`` exists because wall times are inherently
    non-reproducible: disabling it leaves the runtime column empty so
    identical (config, seed) pairs produce identical CSV bytes.
    """

    kind: str
    n_values: tuple[int, ...] = ()
    sigma_grid: tuple[float, ...] = ()
    realizations: int = 300
    constraint: ConstraintSpec = ConstraintSpec.phase_only()
    optimizer: OptimizerConfig = OptimizerConfig()
    noise: NoiseConfig = NoiseConfig()
    num_antennas: int = 4
    seed: int = 0
    include_runtime: bool = True

    def __post_init__(self):
        if self.kind not in EXPERIMENTS:
            raise InvalidConfig(f"unknown experiment kind {self.kind!r}")
        for name, least in (("realizations", 1), ("num_antennas", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_int(value):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise InvalidConfig(f"{name} must be at least {least}, got {value}")
        if not (isinstance(self.n_values, (tuple, list)) and all(map(is_int, self.n_values))):
            raise InvalidConfig(f"n_values must be a list of integers, got {self.n_values!r}")
        if not (isinstance(self.sigma_grid, (tuple, list))
                and all(map(_is_number, self.sigma_grid))):
            raise InvalidConfig(f"sigma_grid must be a list of numbers, got {self.sigma_grid!r}")
        if not self.n_values or min(self.n_values) < 1:
            raise InvalidConfig(f"{self.kind} needs sensor counts >= 1, got {self.n_values!r}")
        if self.kind == "selection" and not self.sigma_grid:
            raise InvalidConfig(f"{self.kind} needs a nonempty sigma_grid")
        if self.kind == "selection" and self.constraint.kind != "select":
            raise InvalidConfig("selection experiments need a select constraint")
        if self.kind == "selection" and (len(self.n_values) > 1
                                         or not 1 <= self.constraint.k_active < self.n_values[0]):
            raise InvalidConfig(f"selection needs one sensor count N and 1 <= K < N, got "
                                f"n_values={self.n_values}, K={self.constraint.k_active}")
        for sigma_n2 in self.sigma_grid:
            _selection_noise(self.noise, sigma_n2)
        if self.kind == "oracle-gap":
            if self.constraint.kind != "quant":
                raise InvalidConfig("oracle-gap experiments need a quant constraint")
            for n in self.n_values:
                _check_enumerable(self.constraint.q_levels, n)


def derived_seed(master: int, *tags: int) -> int:
    """Stable per-realization seed from (master seed, tags)."""
    return int(np.random.SeedSequence((master,) + tags).generate_state(1)[0])


def baseline_all_ones(model) -> tuple[GainVector, float]:
    """Reference point a = 1 (no gain design); deterministic."""
    gains = GainVector(np.ones(model.num_sensors, dtype=complex))
    return gains, global_variance(model, gains)


def _check_enumerable(q_levels: int, n: int) -> int:
    """The candidate count Q^N; raises TooLarge beyond EXHAUSTIVE_BUDGET."""
    total = q_levels**n
    if total > EXHAUSTIVE_BUDGET:
        raise TooLarge(f"{q_levels}^{n} = {total} exceeds the enumeration budget")
    return total


def baseline_exhaustive_quantized(model, q_levels: int) -> tuple[GainVector, float]:
    """Global optimum over all Q^N phase assignments.

    All candidates are unit modulus, so the combined covariance is the
    constant phase-only one and every objective is a^H B a; candidates are
    scored in chunks, in lexicographic order of their phase indices (the
    last sensor's index varies fastest).  Raises InvalidConfig unless
    q_levels is an integer >= 2 (netgraph.is_int), and TooLarge beyond the
    enumeration budget.
    """
    if not (is_int(q_levels) and q_levels >= 2):
        raise InvalidConfig(f"q_levels must be an integer >= 2, got {q_levels!r}")
    n = model.num_sensors
    total = _check_enumerable(q_levels, n)
    b_mat = uqp_matrix(model)
    place = q_levels ** np.arange(n - 1, -1, -1)
    best_obj = -np.inf
    best_a = None
    chunk = 100_000
    for start in range(0, total, chunk):
        index = np.arange(start, min(start + chunk, total))
        cand = _phase_grid(q_levels)[index[:, None] // place % q_levels]
        objs = np.real(np.einsum("bi,ij,bj->b", cand.conj(), b_mat, cand))
        k = int(np.argmax(objs))
        if objs[k] > best_obj:
            best_obj = float(objs[k])
            best_a = cand[k]
    gains = GainVector(best_a, ConstraintSpec.quantized(q_levels))
    return gains, 1.0 / best_obj


def _uniform_support_gains(n: int, support) -> GainVector:
    a = np.zeros(n, dtype=complex)
    a[np.asarray(support, dtype=int)] = np.sqrt(n / len(support))
    return GainVector(a)


def baseline_selection(model, k_active: int, policy: str) -> tuple[GainVector, float]:
    """Subset-selection baselines (reimplemented by interpretation).

    "greedy" grows the subset one sensor at a time, always adding the one
    that minimizes the resulting variance under uniform fixed-energy gains
    on the current subset.  "min-sensor-noise" keeps the K sensors with
    the smallest observation noise.  Both then use uniform gains
    sqrt(N / K) on the chosen support.  K is an integer (netgraph.is_int)
    with 1 <= K < N; anything else raises InvalidConfig.
    """
    n = model.num_sensors
    if not (is_int(k_active) and 1 <= k_active < n):
        raise InvalidConfig(f"need an integer 1 <= K < N, got K={k_active!r}, N={n}")
    if policy == "min-sensor-noise":
        support = np.argsort(model.sensor_noise_var, kind="stable")[:k_active]
    elif policy == "greedy":
        support = []
        remaining = list(range(n))
        while len(support) < k_active:
            best_j, best_v = None, np.inf
            for j in remaining:
                gains = _uniform_support_gains(n, support + [j])
                v = global_variance(model, gains)
                if v < best_v:
                    best_j, best_v = j, v
            support.append(best_j)
            remaining.remove(best_j)
    else:
        raise InvalidConfig(f"unknown selection policy {policy!r}")
    gains = _uniform_support_gains(n, support)
    return gains, global_variance(model, gains)


def _realizations(config: ExperimentConfig, draws, body, failures: Counter) -> dict:
    """``body(model, optimizer config)`` on each realization of ``draws``, one
    (N, noise, scenario seed, optimizer seed) each: its N-sensor centralized
    model and its reseeded optimizer config (a scenario that cannot be
    built raises).  Returns {draw index: result} over the realizations that
    succeeded; a body's WsnGainError is tallied in ``failures`` by error
    class, and any other exception propagates.
    """
    results = {}
    for i, (n, noise, scenario_seed, optimizer_seed) in enumerate(draws):
        scen = gen_centralized_scenario(n, config.num_antennas, noise, seed=scenario_seed)
        model, opt_cfg = centralized_model(scen), replace(config.optimizer, seed=optimizer_seed)
        try:
            results[i] = body(model, opt_cfg)
        except WsnGainError as exc:
            failures[type(exc).__name__] += 1
    return results


def _mean(values) -> float:
    """Mean over the realizations that succeeded; NaN when none did."""
    return float(np.mean(values)) if values else float("nan")


def run_sweep(config: ExperimentConfig):
    """Variance vs sensor count: optimizer against the all-ones baseline.

    Returns (rows, metadata).  Failed realizations are excluded from the
    means; each row's failures column counts them per N, and the metadata's
    ``failures`` maps each error class to its count over the sweep.
    """
    methods = ("optimized", "all-ones")

    def body(model, opt_cfg):
        _, trace = optimize(model, config.constraint, opt_cfg)
        t0 = time.perf_counter()
        _, v_ones = baseline_all_ones(model)
        return (trace.final_variance, trace.wall_time_s), (v_ones, time.perf_counter() - t0)

    rows, failures = [], Counter()
    for n in config.n_values:
        draws = [(n, config.noise, derived_seed(config.seed, n, i),
                  derived_seed(config.seed, n, i, 1)) for i in range(config.realizations)]
        runs = list(_realizations(config, draws, body, failures).values())
        rows += [{"N": n, "method": method, "mean_variance": _mean([run[j][0] for run in runs]),
                  "mean_runtime_s": _mean([run[j][1] for run in runs]),
                  "realizations": len(runs), "failures": config.realizations - len(runs)}
                 for j, method in enumerate(methods)]
    return rows, {"kind": config.kind, "methods": methods, "failures": dict(failures)}


def _selection_noise(noise: NoiseConfig, sigma_n2) -> NoiseConfig:
    """The noise settings at one point of the selection grid; NoiseConfig checks them."""
    return replace(noise, channel_noise_var=float(sigma_n2))


def run_selection_experiment(config: ExperimentConfig):
    """Sensor selection over a receiver-noise grid.

    Compares the constrained optimizer ("proposed") against the greedy and
    min-sensor-noise baselines and the matched-energy all-N reference.
    The all-N run is refined from the proposed K-sparse solution when the
    energy budgets match, so it lower-bounds every K < N method per
    realization by feasible-set inclusion.  Failed realizations are
    excluded from the means and counted by error class in the metadata.
    """
    k = config.constraint.k_active
    n = config.n_values[0]
    methods = ("proposed", "greedy", "min-sensor-noise", "all-N")

    def body(model, opt_cfg):
        prop_gains, prop_trace = optimize(model, config.constraint, opt_cfg)
        greedy_gains, v_greedy = baseline_selection(model, k, "greedy")
        minnoise_gains, v_minnoise = baseline_selection(model, k, "min-sensor-noise")
        _, all_trace = optimize(model, ConstraintSpec.fixed_energy(), opt_cfg)
        v_all = all_trace.final_variance
        if config.constraint.select_mode == "energy":
            # feasible-set inclusion: every K-sparse energy-N vector is a
            # valid warm start, so refining from each method's solution
            # keeps all-N a per-realization lower bound
            for warm_start in (prop_gains, greedy_gains, minnoise_gains):
                _, warm = refine(model, warm_start.values, ConstraintSpec.fixed_energy(), opt_cfg)
                v_all = min(v_all, warm.final_variance)
        return prop_trace.final_variance, v_greedy, v_minnoise, v_all

    rows, failures = [], Counter()
    for sigma_n2 in config.sigma_grid:
        noise = _selection_noise(config.noise, sigma_n2)
        draws = [(n, noise, derived_seed(config.seed, i, int(1e6 * sigma_n2) % (2**31)),
                  derived_seed(config.seed, i, 2)) for i in range(config.realizations)]
        runs = list(_realizations(config, draws, body, failures).values())
        rows += [{"sigma_n2": float(sigma_n2), "method": method,
                  "mean_variance": _mean([run[j] for run in runs])}
                 for j, method in enumerate(methods)]
    return rows, {"kind": config.kind, "methods": methods,
                  "note": "greedy and min-sensor-noise baselines reimplemented by interpretation",
                  "failures": dict(failures)}


def run_oracle_gap(config: ExperimentConfig):
    """Optimizer vs exhaustive enumeration on small quantized instances.

    One row per seed; the hit column marks runs whose variance is within
    10 percent of the enumerated optimum.  A failed realization gets no
    row, counts as a miss in ``success_rate`` (hits over realizations) and
    is counted by error class in the metadata.  The enumeration
    substitutes for comparisons against external solvers, as recorded in
    the metadata.
    """

    def body(model, opt_cfg):
        _, trace = optimize(model, config.constraint, opt_cfg)
        _, v_best = baseline_exhaustive_quantized(model, config.constraint.q_levels)
        ratio = trace.final_variance / v_best
        return {"N": model.num_sensors, "variance_opt": trace.final_variance,
                "variance_best": v_best, "ratio": ratio, "hit": int(ratio <= 1.10 + 1e-12)}

    draws = [(int(np.random.default_rng(derived_seed(config.seed, i, 7)).choice(config.n_values)),
              config.noise, derived_seed(config.seed, i), derived_seed(config.seed, i, 3))
             for i in range(config.realizations)]
    failures = Counter()
    rows = [{"seed": i, **row} for i, row in _realizations(config, draws, body, failures).items()]
    return rows, {"kind": config.kind,
                  "oracle": "exhaustive enumeration (substitute for external solver baselines)",
                  "success_rate": sum(row["hit"] for row in rows) / config.realizations,
                  "failures": dict(failures)}


def consensus_trace(scenario, rng, max_iter: int, tol: float, rho: float):
    """One consensus run under all-ones gains with a per-iteration trace.

    Builds the compression plan, draws one round of measurements from rng
    and drives all nodes to the global estimate.  Returns (rows, report,
    plan) with one row per (iteration, node) in ``CONSENSUS_COLUMNS``.
    """
    gains = GainVector(np.ones(scenario.num_sensors, dtype=complex))
    _, plan = decentralized_model(scenario, gains)
    w = simulate_measurement(scenario, gains, plan, rng)
    report = run_consensus(scenario, gains, plan, received_by_sink(plan, w),
                           max_iter=max_iter, tol=tol, rho=rho)
    rows = [{"iter": it, "node": node, "theta_hat_re": float(np.real(e)),
             "theta_hat_im": float(np.imag(e)), "abs_err": float(abs(e - report.theta_hat))}
            for it, est in enumerate(report.per_node_trace) for node, e in enumerate(est, start=1)]
    return rows, report, plan


def run_experiment(config: ExperimentConfig):
    """Run the runner ``EXPERIMENTS`` names for the kind; returns (rows, metadata)."""
    runner, _ = EXPERIMENTS[config.kind]
    return globals()[runner](config)


def columns_for(kind: str) -> tuple[str, ...]:
    """CSV columns of an experiment kind."""
    return EXPERIMENTS[kind][1]


def render_csv(rows, columns, include_runtime: bool = True, comment: str | None = None) -> str:
    """Render rows as CSV text with a fixed column order.

    Runtime columns are blanked when include_runtime is false, which makes
    the bytes a pure function of (config, seed).  An optional leading
    comment line records oracle substitutions and other metadata.
    """
    lines = []
    if comment:
        lines.append("# " + comment)
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if col.endswith("runtime_s") and not include_runtime:
                value = ""
            cells.append(repr(value) if isinstance(value, float) else str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
