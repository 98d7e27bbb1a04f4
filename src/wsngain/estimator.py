"""Local and global ML estimation plus ADMM consensus.

The global estimate of theta is a weighted least-squares ratio; its
variance is the inverse of the information value a^H H^H R_w^{-1} H a.
On the decentralized compressed model R_w is diagonal, so both are sums
over the retained rows.
In the decentralized setting every node reaches the global estimate by
running average consensus on two scalars (information value and state
information value) and taking their ratio.  The consensus is synchronous
scaled-dual ADMM on one complex state [I; P]: one gather and one neighbor
sum per round.  Its report says whether it converged, with what residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .diffusion import (CompressionPlan, GlobalModel, _dense_h, _gain_values, _link_terms,
                        _product, link_terms)
from .errors import DegenerateGains, InvalidConfig, NoConvergence
from .netgraph import is_int
from .scenario import CentralizedScenario, DecentralizedScenario

if TYPE_CHECKING:  # pragma: no cover
    from .gainopt import ConstraintSpec

INFO_FLOOR = 1e-300  # below this the quadratic form carries no information
CONSENSUS_GUARD = 1e-12  # hold the ratio while |I_i(k)| is at most this times the mean I_i(0)
CONSENSUS_BLOCK = 16  # ADMM rounds advanced between stop tests (measured at N = 100)


@dataclass(frozen=True)
class GainVector:
    """Complex sensor gains together with the constraint they satisfy."""

    values: np.ndarray = field(repr=False)
    constraint: "ConstraintSpec | None" = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.constraint is not None:
            self.constraint.check(self.values)

    def __len__(self) -> int:
        return len(self.values)


def combined_covariance(model: GlobalModel, gains) -> np.ndarray:
    """R_w = H D V D^H H^H + sigma_n^2 I for the current gains, as a dense
    M x M matrix; a compressed model, whose R_w is diagonal, raises InvalidConfig."""
    a = _gain_values(gains, model.num_sensors)
    h = _dense_h(model)  # the compressed model's diagonal comes from _covariance_terms
    scaled = h * (np.abs(a) ** 2 * model.sensor_noise_var)[None, :]
    return scaled @ h.conj().T + model.noise_var * np.eye(model.num_rows)


def _covariance_terms(model: GlobalModel, a: np.ndarray):
    # (H a, R_w) of the gains: a compressed model's R_w is diagonal and comes
    # back as that diagonal (1-D), any other model's as the dense M x M matrix
    if model.row_gain is not None:
        k = model.row_sensor
        ha, r, _ = _link_terms(model.row_gain, a[k], model.sensor_noise_var[k], model.noise_var)
        return ha, r
    return model.H @ a, combined_covariance(model, a)


def _information_and_weights(model: GlobalModel, a: np.ndarray):
    # (info, w, H a, R_w): weights w = R_w^{-1} H a, information (Ha)^H w,
    # real and >= 0, and the terms w solves, for a check without a second
    # evaluation.  A compressed model's R_w is diagonal: w is a quotient per row.
    ha, r_w = _covariance_terms(model, a)
    w = ha / r_w if r_w.ndim == 1 else np.linalg.solve(r_w, ha)
    info = float(np.real(ha.conj() @ w))
    return info, w, ha, r_w


def _informative(model: GlobalModel, gains):
    # (information value, weights) of the gains; DegenerateGains below INFO_FLOOR
    info, w, _, _ = _information_and_weights(model, _gain_values(gains, model.num_sensors))
    if info < INFO_FLOOR:
        raise DegenerateGains("effective gains carry no information")
    return info, w


def global_mle(model: GlobalModel, gains, y: np.ndarray) -> complex:
    """Global ML estimate (a^H H^H R_w^{-1} H a)^{-1} a^H H^H R_w^{-1} y."""
    info, w = _informative(model, gains)
    return complex(w.conj() @ np.asarray(y, dtype=complex)) / info


def global_variance(model: GlobalModel, gains) -> float:
    """Estimation variance (a^H H^H (H D V D^H H^H + sigma_n^2 I)^{-1} H a)^{-1}."""
    return 1.0 / _informative(model, gains)[0]


def _complex_gaussian(rng: np.random.Generator, var, size) -> np.ndarray:
    # CN(0, var): real and imaginary parts each N(0, var / 2).
    std = np.sqrt(np.asarray(var, dtype=float) / 2.0)
    return std * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def simulate_measurement(scenario, gains, plan: CompressionPlan | None = None, rng=None) -> np.ndarray:
    """Draw one observation vector under the scenario's model.

    Centralized: y = H a theta + H D v + n with n over the M antennas.
    Decentralized: the compressed vector of retained link receptions, in
    the plan's row order (plan required; a malformed plan raises
    InconsistentPlan).  Each sensor observes theta once for all the links
    it feeds; the receiver noise of every directed link is drawn in sorted
    edge order, (i, j) before (j, i), real part first.
    """
    if rng is None:
        rng = np.random.default_rng()
    a = _gain_values(gains, scenario.num_sensors)
    if isinstance(scenario, CentralizedScenario):
        v = _complex_gaussian(rng, scenario.sensor_noise_var, scenario.num_sensors)
        n = _complex_gaussian(rng, scenario.fc_noise_var, scenario.num_antennas)
        return scenario.channel @ (a * (scenario.theta + v)) + n
    if plan is None:
        raise InvalidConfig("decentralized simulation needs a compression plan")
    topo = scenario.topology
    _, parents, links = plan.links(topo)
    z = scenario.theta + _complex_gaussian(rng, scenario.sensor_noise_var, topo.num_nodes)
    noise = np.empty((2 * topo.num_edges, 2))  # the draws, moved to directed_links order
    noise[topo.edge_link_index()] = rng.standard_normal(noise.shape)
    n = np.sqrt(scenario.comm_noise_var / 2.0) * noise[links]
    return _product(link_terms(scenario, a, links)[0], z[parents - 1]) + (n[:, 0] + 1j * n[:, 1])


def _rows_per_sink(plan: CompressionPlan) -> np.ndarray:
    """Retained-row count of each sink, indexed by node - 1."""
    return np.bincount(plan.carrier, minlength=len(plan.carrier) + 1)[1:]


def received_by_sink(plan: CompressionPlan, stacked: np.ndarray) -> dict[int, np.ndarray]:
    """Split a stacked observation vector back into per-sink retained rows.

    Each entry is a view of the stacked vector; a sink that retains no row
    has no entry.
    """
    y = np.asarray(stacked, dtype=complex)
    counts = _rows_per_sink(plan)
    ends = np.cumsum(counts)
    return {sink: y[end - count:end]
            for sink, (count, end) in enumerate(zip(counts.tolist(), ends.tolist()), start=1)
            if count}


def local_mle(sink: int, gains, scenario: DecentralizedScenario, received) -> tuple[complex, float]:
    """Initial local estimate of a sink from its strict neighbors.

    ``received`` holds one sample per neighbor, in the ascending order of
    S^sink.  Returns (estimate, variance); the variance is exactly the
    inverse of the sink's information value.
    """
    neighbors = scenario.topology.neighbors(sink)
    y = np.asarray(received, dtype=complex)
    if len(y) != len(neighbors):
        raise InvalidConfig(f"expected {len(neighbors)} samples for sink {sink}")
    links = scenario.topology.link_index([sink] * len(neighbors), neighbors)
    ha, denom, terms = link_terms(scenario, gains, links)
    info = float(np.sum(terms))
    num = complex(np.sum(_product(ha.conj(), y) / denom))
    if info < INFO_FLOOR:
        raise DegenerateGains(f"sink {sink} neighborhood carries no information")
    return complex(num / info), 1.0 / info


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of a consensus run."""

    theta_hat: complex
    analytic_variance: float
    iterations_to_tol: int
    residual: float  # max deviation the stop test read at the final round
    converged: bool  # False only on the partial report NoConvergence carries
    per_node_trace: tuple[np.ndarray, ...] | None = None


def initial_streams(scenario: DecentralizedScenario, gains, plan: CompressionPlan, received_per_node):
    """Per-node information and state information values over retained rows.

    I_i(0) sums the :func:`link_terms` information term over sink i's
    retained parents; P_i(0) is the matching data-weighted sum.  Their
    network totals give the global MLE as theta_hat = sum P / sum I.
    ``received_per_node`` maps each sink to its samples (any sequence), as
    :func:`received_by_sink` builds it; a sink that retains no row may be
    left out.  The first sink, in sink order, whose count is wrong raises
    InvalidConfig.
    """
    n = scenario.topology.num_nodes
    sinks, _, links = plan.links(scenario.topology)
    counts = _rows_per_sink(plan)
    samples = [received_per_node.get(sink, ()) for sink in range(1, len(counts) + 1)]
    wrong = np.flatnonzero(np.fromiter(map(len, samples), int, len(samples)) != counts)
    if wrong.size:
        raise InvalidConfig(f"sink {wrong[0] + 1} expects {counts[wrong[0]]} retained samples")
    ha, denom, terms = link_terms(scenario, gains, links)
    i0 = np.bincount(sinks - 1, weights=terms, minlength=n)
    p0 = np.zeros(n, dtype=complex)
    y = np.asarray(np.concatenate([rows for rows, count in zip(samples, counts) if count]),
                   dtype=complex)
    np.add.at(p0, sinks - 1, _product(ha.conj(), y) / denom)
    return i0, p0


def run_consensus(
    scenario: DecentralizedScenario,
    gains,
    plan: CompressionPlan,
    received_per_node,
    max_iter: int = 1000,
    tol: float = 1e-6,
    rho: float = 1.0,
    record_trace: bool = True,
    stop_mode: str = "analytic",
) -> EstimateReport:
    """Drive every node's estimate to the global MLE by average consensus.

    ADMM runs on the initial information and state information values as
    one complex state [I; P] of 2N entries.  Each node's running estimate
    is the ratio theta_i(k) = P_i(k) / I_i(k), held (from zero) while
    |I_i(k)| <= CONSENSUS_GUARD sum_j I_j(0) / N, a guard relative to the
    mean information every I_i tends to, so that it holds at any scale of
    the gains.  Stops once
    max_i |theta_i(k) - theta_ML| <= tol * |theta_ML|; stop_mode
    "trailing" instead waits for max_i |theta_i(k) - theta_i(k-1)| to fall
    under the same scaled tolerance (for deployments where theta_ML is
    not computable at the nodes).  The report's ``residual`` is that
    maximum at the final round (inf if no round was compared: "trailing"
    with max_iter = 0).

    The rounds advance a block of up to CONSENSUS_BLOCK at a time, and the
    stop rule is read for the whole block at once.  The report ends at the
    first round that meets it, or at max_iter; rounds computed past that
    one are dropped, so the report is the one a test after every round
    gives.

    Each round updates, in place, every entry i of degree d_i, initial value
    x_i and scaled ADMM dual z_i = (x_i - lambda_i) / rho (lambda_i = 0 at first):

        v_i <- (d_i v_i + s_i + z_i) rho / (1 + 2 rho d_i)
        s_i <- sum_{j in S^i} v_j
        z_i <- z_i - (d_i v_i - s_i)

    synchronously at every node; the dual update's s is the next round's sum.

    Raises
    ------
    InvalidConfig
        For a tol or rho that is not finite and positive, a max_iter that
        is not a non-negative integer (a bool is none) or an unknown
        stop_mode.
    InconsistentPlan
        For a plan that leaves a node without a carrier or a row off the graph.
    NoConvergence
        After max_iter rounds; the exception carries the partial report
        (``converged`` False).
    """
    if not 0 < tol < math.inf:
        raise InvalidConfig(f"tolerance must be finite and positive, got {tol!r}")
    if not 0 < rho < math.inf:
        raise InvalidConfig(f"ADMM step rho must be finite and positive, got {rho!r}")
    if not is_int(max_iter) or max_iter < 0:
        raise InvalidConfig(f"max_iter must be a non-negative integer, got {max_iter!r}")
    if stop_mode not in ("analytic", "trailing"):
        raise InvalidConfig("stop_mode must be 'analytic' or 'trailing'")
    i0, p0 = initial_streams(scenario, gains, plan, received_per_node)
    total_info = float(np.sum(i0))
    if total_info < INFO_FLOOR:
        raise DegenerateGains("network carries no information")
    theta_ml = complex(np.sum(p0) / total_info)
    guard = CONSENSUS_GUARD * total_info / len(i0)

    # Links are sink-major: parents holds each link's 0-based parent and
    # starts each sink's first link, the P half N entries on.  Every factor
    # is complex, so no round casts and I keeps imaginary part 0.
    parents = (scenario.topology.directed_links()[1] + np.array([[-1], [len(i0) - 1]])).ravel()
    degrees = np.tile(scenario.topology.degrees(), 2)
    starts = np.cumsum(degrees) - degrees
    deg = degrees.astype(complex)
    step = rho / (1.0 + 2.0 * rho * deg)
    values = np.concatenate((i0, p0))
    scaled_duals, deg_values = values / rho, deg * values
    neighbor_sum = np.add.reduceat(values[parents], starts)
    n, tmp = len(i0), np.empty_like(values)

    # Rounds first .. first + size - 1 sit in the block's rows, round 0 being
    # the initial state; rounds past the one the stop test ends on are dropped.
    block = np.empty((min(CONSENSUS_BLOCK, max_iter + 1), 2 * n), dtype=complex)
    block[0] = values
    rows = list(block)
    previous = np.zeros_like(p0)  # the estimate held before round 0
    trace: list[np.ndarray] = []
    limit = tol * max(abs(theta_ml), INFO_FLOOR)
    first = 0
    while True:
        size = min(len(block), max_iter + 1 - first)
        for row in rows[0 if first else 1:size]:
            np.add(deg_values, neighbor_sum, out=tmp)
            tmp += scaled_duals
            np.multiply(tmp, step, out=row)
            np.add.reduceat(row[parents], starts, out=neighbor_sum)
            np.multiply(deg, row, out=deg_values)
            np.subtract(deg_values, neighbor_sum, out=tmp)
            scaled_duals -= tmp
        info, state_info = block[:size, :n], block[:size, n:]
        if info.real.min() > guard:
            estimates = state_info / info
        else:
            estimates = np.empty_like(state_info)
            held = previous
            for est, i, p in zip(estimates, info, state_info):
                est[:] = held
                np.divide(p, i, out=est, where=np.abs(i) > guard)
                held = est
        if stop_mode == "analytic":
            residuals = np.abs(estimates - theta_ml).max(axis=1)
        else:
            residuals = np.abs(estimates - np.vstack((previous, estimates[:-1]))).max(axis=1)
            if first == 0:
                residuals[0] = math.inf  # round 0 has no previous round to compare
        stops = np.flatnonzero(residuals <= limit)
        last = int(stops[0]) if stops.size else size - 1
        if record_trace:
            trace.extend(estimates[:last + 1])
        if stops.size or first + size > max_iter:
            break
        previous = estimates[-1]
        first += size
    k, residual = first + last, float(residuals[last])
    report = EstimateReport(theta_ml, 1.0 / total_info, k, residual, residual <= limit,
                            tuple(trace) if record_trace else None)
    if not report.converged:
        raise NoConvergence(f"consensus not within tol after {max_iter} iterations", report)
    return report
