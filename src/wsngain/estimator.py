"""Local and global ML estimation plus ADMM consensus.

The global estimate of theta is a weighted least-squares ratio; its
variance is the inverse of the information value a^H H^H R_w^{-1} H a.
On the decentralized compressed model R_w is diagonal, so both are sums
over the retained rows.
In the decentralized setting every node reaches the global estimate by
running average consensus on two scalars (information value and state
information value) and taking their ratio.  The consensus is synchronous
ADMM on the directed links, one gather and one neighbor sum per stream and
round; its report says whether the run converged and with what residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .diffusion import (CompressionPlan, GlobalModel, _gain_values, _link_terms, _product,
                        link_terms)
from .errors import DegenerateGains, InvalidConfig, NoConvergence
from .netgraph import is_int
from .scenario import CentralizedScenario, DecentralizedScenario

if TYPE_CHECKING:  # pragma: no cover
    from .gainopt import ConstraintSpec

INFO_FLOOR = 1e-300  # below this the quadratic form carries no information
CONSENSUS_GUARD = 1e-12  # hold the previous ratio while |I_i(k)| is this small


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
    """R_w = H D V D^H H^H + sigma_n^2 I for the current gains."""
    a = _gain_values(gains)
    h = model.H  # built anew at each read on a compressed model
    scaled = h * (np.abs(a) ** 2 * model.sensor_noise_var)[None, :]
    return scaled @ h.conj().T + model.noise_var * np.eye(model.num_rows)


def _covariance_terms(model: GlobalModel, a: np.ndarray):
    # (H a, R_w) of the gains: a compressed model's R_w is diagonal and comes
    # back as that diagonal (1-D), any other model's as the dense M x M matrix
    if model.row_gain is not None:
        ha, r, _ = _link_terms(model.row_gain, model.row_sensor, a, model.sensor_noise_var,
                               model.noise_var)
        return ha, r
    return model.H @ a, combined_covariance(model, a)


def _information_and_weights(model: GlobalModel, a: np.ndarray):
    # weights w = R_w^{-1} H a; information value = (Ha)^H w, real and >= 0.
    # A compressed model's R_w is diagonal, so w is a quotient per row.
    ha, r_w = _covariance_terms(model, a)
    w = ha / r_w if r_w.ndim == 1 else np.linalg.solve(r_w, ha)
    info = float(np.real(ha.conj() @ w))
    return info, w


def _informative(model: GlobalModel, gains):
    # (information value, weights) of the gains; DegenerateGains below INFO_FLOOR
    info, w = _information_and_weights(model, _gain_values(gains))
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
    a = _gain_values(gains)
    if isinstance(scenario, CentralizedScenario):
        v = _complex_gaussian(rng, scenario.sensor_noise_var, scenario.num_sensors)
        n = _complex_gaussian(rng, scenario.fc_noise_var, scenario.num_antennas)
        return scenario.channel @ (a * (scenario.theta + v)) + n
    if plan is None:
        raise InvalidConfig("decentralized simulation needs a compression plan")
    topo = scenario.topology
    _, parents, links = plan.links(topo)
    z = scenario.theta + _complex_gaussian(rng, scenario.sensor_noise_var, topo.num_nodes)
    noise = np.sqrt(scenario.comm_noise_var / 2.0) * rng.standard_normal((2 * topo.num_edges, 2))
    draw_of_link = np.argsort(topo.edge_link_index())
    n = noise[draw_of_link[links]]
    return _product(link_terms(scenario, a, links)[0], z[parents - 1]) + (n[:, 0] + 1j * n[:, 1])


def _rows_per_sink(plan: CompressionPlan) -> np.ndarray:
    """Retained-row count of each sink, indexed by node - 1."""
    return np.bincount(plan.carrier, minlength=len(plan.carrier) + 1)[1:]


def received_by_sink(plan: CompressionPlan, stacked: np.ndarray) -> dict[int, np.ndarray]:
    """Split a stacked observation vector back into per-sink retained rows."""
    ends = np.cumsum(_rows_per_sink(plan))
    return dict(enumerate(np.split(np.asarray(stacked, dtype=complex), ends)[:-1], start=1))


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
    """
    n = scenario.topology.num_nodes
    sinks, _, links = plan.links(scenario.topology)
    samples = []
    for sink, count in enumerate(_rows_per_sink(plan), start=1):
        y = np.asarray(received_per_node.get(sink, ()), dtype=complex)
        if len(y) != count:
            raise InvalidConfig(f"sink {sink} expects {count} retained samples")
        samples.append(y)
    ha, denom, terms = link_terms(scenario, gains, links)
    i0 = np.bincount(sinks - 1, weights=terms, minlength=n)
    p0 = np.zeros(n, dtype=complex)
    np.add.at(p0, sinks - 1, _product(ha.conj(), np.concatenate(samples)) / denom)
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

    Two ADMM streams run in parallel on the initial information and state
    information values; each node's running estimate is the ratio
    theta_i(k) = P_i(k) / I_i(k), guarded while |I_i(k)| is tiny (the
    previous value is held, starting from zero).  Stops once
    max_i |theta_i(k) - theta_ML| <= tol * |theta_ML|; stop_mode
    "trailing" instead waits for max_i |theta_i(k) - theta_i(k-1)| to fall
    under the same scaled tolerance (for deployments where theta_ML is
    not computable at the nodes).  The report's ``residual`` is that
    maximum at the final round (inf if no round was compared: "trailing"
    with max_iter = 0).

    Each round updates, for every node i with degree d_i,

        y_i <- (rho d_i y_i + rho sum_{j in S^i} y_j - lambda_i + x_i) / (1 + 2 rho d_i)
        lambda_i <- lambda_i + rho (d_i y_i_new - sum_{j in S^i} y_j_new)

    with all nodes reading the previous round's values.  The neighbor sum
    of the dual update is the next round's neighbor sum, so each stream
    forms one sum per round.

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
    topo = scenario.topology
    i0, p0 = initial_streams(scenario, gains, plan, received_per_node)
    total_info = float(np.sum(i0))
    if total_info < INFO_FLOOR:
        raise DegenerateGains("network carries no information")
    theta_ml = complex(np.sum(p0) / total_info)
    variance = 1.0 / total_info

    # Links are sink-major: parents holds each link's 0-based parent and
    # starts each sink's first link; every node has a neighbor, so
    # reduceat yields one neighbor sum per node.
    parents = topo.directed_links()[1] - 1
    degrees = topo.degrees()
    starts = np.cumsum(degrees) - degrees
    deg = degrees.astype(float)
    rho_deg = rho * deg
    denom = 1.0 + 2.0 * rho * deg

    def admm_round(values, neighbor_sum, duals, x):
        values = (rho_deg * values + rho * neighbor_sum - duals + x) / denom
        neighbor_sum = np.add.reduceat(values[parents], starts)
        return values, neighbor_sum, duals + rho * (deg * values - neighbor_sum)

    i_vals, i_duals = i0.astype(float).copy(), np.zeros(topo.num_nodes)
    p_vals, p_duals = p0.astype(complex).copy(), np.zeros(topo.num_nodes, dtype=complex)
    i_sum = np.add.reduceat(i_vals[parents], starts)
    p_sum = np.add.reduceat(p_vals[parents], starts)

    estimates = np.zeros(topo.num_nodes, dtype=complex)
    trace: list[np.ndarray] = []
    limit = tol * max(abs(theta_ml), INFO_FLOOR)
    residual = math.inf
    for k in range(max_iter + 1):
        previous = estimates
        estimates = np.divide(p_vals, i_vals, out=previous.copy(),
                              where=np.abs(i_vals) > CONSENSUS_GUARD)
        if record_trace:
            trace.append(estimates)
        if stop_mode == "analytic":
            residual = float(np.abs(estimates - theta_ml).max())
        elif k > 0:
            residual = float(np.abs(estimates - previous).max())
        if residual <= limit or k == max_iter:
            break
        i_vals, i_sum, i_duals = admm_round(i_vals, i_sum, i_duals, i0)
        p_vals, p_sum, p_duals = admm_round(p_vals, p_sum, p_duals, p0)
    report = EstimateReport(theta_ml, variance, k, residual, residual <= limit,
                            tuple(trace) if record_trace else None)
    if not report.converged:
        raise NoConvergence(f"consensus not within tol after {max_iter} iterations", report)
    return report
