"""Compression and diffusion of sensor transmissions.

Every node broadcasts its amplified observation to all neighbors; to avoid
duplicate information in the network, each transmission is retained by
exactly one neighbor (the carrier, picked by highest information value).
Stacking the retained rows produces a compressed global linear model whose
quadratic form decouples into per-sink local forms.  Each sensor keeps one
row, holding its one link gain, so the compressed H is a scaled
permutation and its noise covariance R_w is diagonal: the model is
recorded row by row, and the estimator and the optimizer work on it
elementwise.  A link's information term, q / (q sigma_v^2 + sigma_n^2)
with q = |h|^2 |a|^2, and so the plan and R_w, read the gains only by |a|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentPlan, InvalidConfig, InvalidEdge
from .netgraph import Topology
from .scenario import CentralizedScenario, DecentralizedScenario, _power


def _gain_values(gains, num_sensors: int) -> np.ndarray:
    """The gains as a complex array, from a bare array or anything carrying
    a .values array; InvalidConfig unless it holds one gain per sensor."""
    a = np.asarray(getattr(gains, "values", gains), dtype=complex)
    if a.shape != (num_sensors,):
        raise InvalidConfig(f"{num_sensors} sensors need {num_sensors} gains, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class CompressionPlan:
    """Carrier assignment: the one decision that fixes the compressed model.

    Attributes
    ----------
    carrier : tuple of int
        ``carrier[i - 1]`` is the neighbor chosen to retain node i's
        transmission; sink i keeps the rows of the parents whose carrier
        it is.
    r : int
        Number of discarded transmissions, 2|E| - N.
    """

    carrier: tuple[int, ...]
    r: int

    @property
    def m_dim(self) -> int:
        """Total retained rows: one per parent, so N."""
        return len(self.carrier)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(sinks, parents) of the global rows: sink-major, parent ascending."""
        carrier = np.asarray(self.carrier, dtype=int)
        order = np.argsort(carrier, kind="stable")
        return carrier[order], order + 1

    def links(self, topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`rows` and their positions in :meth:`Topology.directed_links`;
        InconsistentPlan unless every node has one carrier and every row is a link."""
        if len(self.carrier) != topology.num_nodes:
            raise InconsistentPlan("plan does not give every node one carrier")
        sinks, parents = self.rows()
        try:
            return sinks, parents, topology.link_index(sinks, parents)
        except InvalidEdge as exc:
            raise InconsistentPlan(f"plan keeps a row off the graph: {exc}") from None

    def to_json_dict(self) -> dict:
        return {"carrier": list(self.carrier), "r": self.r, "m_dim": self.m_dim}


@dataclass(frozen=True)
class GlobalModel:
    """Unified linear observation model y = H a theta + H Diag(a) v + n.

    Covers both settings: the centralized fusion-center model uses the raw
    M x N channel matrix, while the decentralized compressed model stacks
    one retained row per sensor, in the order of :meth:`CompressionPlan.rows`.
    The combined noise covariance is H D V D^H H^H + noise_var * I with
    D = Diag(a) and V = Diag(sensor_noise_var).

    The compressed model is a scaled permutation: row r holds the link gain
    ``row_gain[r]`` in the column of sensor ``row_sensor[r]`` (0-based) and
    zeros elsewhere, so R_w is diagonal, with the :func:`link_terms`
    entries |h_r|^2 |a_k|^2 v_k + noise_var (k = row_sensor[r]), whose row
    powers |h_r|^2 are kept as ``row_power`` (``power_by_link`` at the rows'
    links), so no cycle takes them again.
    :func:`assemble_global_model` records only those rows and the ``plan``
    they came from, so a compressed model holds O(N) and its ``H`` is None;
    the information, weights, lift and inner quadratic take an O(N)
    elementwise path, and the dense readers (``uqp_matrix``,
    ``combined_covariance``) reject it with InvalidConfig.  A model given
    rows is read through them alone.  A model given only its ``H``
    (centralized, or built by hand) takes the dense path.
    """

    H: np.ndarray | None
    sensor_noise_var: np.ndarray = field(repr=False)
    noise_var: float
    plan: CompressionPlan | None = field(default=None, repr=False)
    row_sensor: np.ndarray | None = field(default=None, repr=False)
    row_gain: np.ndarray | None = field(default=None, repr=False)
    row_power: np.ndarray | None = field(default=None, repr=False)

    def __repr__(self) -> str:
        return f"GlobalModel(noise_var={self.noise_var!r})"

    @property
    def num_sensors(self) -> int:
        return len(self.sensor_noise_var)

    @property
    def num_rows(self) -> int:
        return self.H.shape[0] if self.row_gain is None else len(self.row_gain)


def _dense_h(model: GlobalModel) -> np.ndarray:
    """The model's dense ``H``, for the readers that need the matrix; a
    compressed model keeps only its rows and raises InvalidConfig."""
    if model.row_gain is not None:
        raise InvalidConfig("a compressed model keeps only its rows, not a dense H")
    return model.H


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y elementwise, each real product rounded before its sum: numpy's
    complex product may fuse multiply-adds, so its last bit depends on the CPU."""
    return (x.real * y.real - x.imag * y.imag) + 1j * (x.real * y.imag + x.imag * y.real)


def _link_info(c: np.ndarray, p: np.ndarray, v: np.ndarray, noise_var: float):
    """(d, q / d), q = c p and d = q v + noise_var, of links of power c = |h|^2
    whose parents have gain power p = |a|^2 and noise variance v."""
    q = c * p
    denom = q * v + noise_var
    return denom, q / denom


def link_terms(scenario: DecentralizedScenario, gains, links):
    """Per-link arrays (h a, d, q / d), q = |h|^2 |a|^2, d = q sigma_v^2 + sigma_n^2,
    a the parent's gain, over the directed links at positions ``links`` (an
    index array or a slice) of :meth:`Topology.directed_links`.

    The last is the link's information term; a sink's information value
    sums it over the sink's links.  It is the one per-link rule: the plan,
    the compressed model's R_w and the consensus streams take d and the
    term from :func:`_link_info` of the :func:`_power` values, so they
    agree to the last bit and read a only through |a|.
    """
    a = _gain_values(gains, scenario.num_sensors)[scenario.topology.indexed_links()[1][links]]
    h = scenario.gain_by_link[links]
    return (_product(h, a), *_link_info(scenario.power_by_link[links], _power(a),
                                        scenario.noise_by_link[links], scenario.comm_noise_var))


def information_table(gains, scenario: DecentralizedScenario) -> np.ndarray:
    """Information values for all sinks, indexed by node - 1: the sum of each
    sink's :func:`link_terms` information terms, the inverse of its local ML
    variance.  It gathers |a|^2 of the N sensors per link, never forming h a."""
    sinks, parents, _ = scenario.topology.indexed_links()
    p = _power(_gain_values(gains, scenario.num_sensors))[parents]
    _, info = _link_info(scenario.power_by_link, p, scenario.noise_by_link, scenario.comm_noise_var)
    return np.bincount(sinks, weights=info, minlength=scenario.topology.num_nodes)


def assign_carriers(topology: Topology, info: np.ndarray) -> CompressionPlan:
    """Pick each node's carrier: the neighbor with the highest information value.

    Ties break toward the lowest node index.  Every transmission has one
    carrier, so it is retained exactly once and the compressed dimension
    equals N.  A non-finite value raises InvalidConfig.
    """
    info = np.asarray(info, dtype=float)
    if len(info) != topology.num_nodes:
        raise InconsistentPlan("information table length does not match topology")
    if not np.isfinite(info).all():
        raise InvalidConfig("information values must be finite")
    sinks, parents, starts = topology.indexed_links()
    value = info[parents]
    best = np.maximum.reduceat(value, starts)
    # each segment's first link at its maximum: neighbours ascend, so ties go low
    hits = (value == best[sinks]).nonzero()[0]
    carrier = topology.directed_links()[1][hits[np.searchsorted(hits, starts)]]
    return CompressionPlan(tuple(carrier.tolist()), 2 * topology.num_edges - topology.num_nodes)


def assemble_global_model(plan: CompressionPlan, scenario: DecentralizedScenario) -> GlobalModel:
    """Stack the retained rows into the compressed global model.

    Row order is sink-major with parents ascending inside each sink.  The
    row for (sink i, parent k) holds h_{i,k} in column k and zeros
    elsewhere; the estimator is invariant to the row order.  The model
    records only each row's sensor, gain and power and the plan, in O(N), and
    no dense ``H`` (see :class:`GlobalModel`).
    """
    _, parents, links = plan.links(scenario.topology)
    return GlobalModel(
        H=None,
        sensor_noise_var=np.asarray(scenario.sensor_noise_var, dtype=float),
        noise_var=scenario.comm_noise_var,
        plan=plan,
        row_sensor=parents - 1,
        row_gain=scenario.gain_by_link[links],
        row_power=scenario.power_by_link[links],
    )


def centralized_model(scenario: CentralizedScenario) -> GlobalModel:
    """View a centralized scenario as a :class:`GlobalModel` (already stacked)."""
    return GlobalModel(
        H=scenario.channel,
        sensor_noise_var=np.asarray(scenario.sensor_noise_var, dtype=float),
        noise_var=scenario.fc_noise_var,
    )


def decentralized_model(scenario: DecentralizedScenario, gains,
                        previous: GlobalModel | None = None):
    """Full pipeline: information values, carrier assignment, model assembly.

    Returns (model, plan).  The information values depend on the current
    gain magnitudes, so gain optimization recomputes the plan per outer
    iteration unless told to freeze it.  ``previous``, a model assembled
    for the same scenario, is returned as it is when the new plan keeps its
    carriers (an O(N) comparison), so a refresh that keeps the plan
    assembles nothing.
    """
    info = information_table(gains, scenario)
    plan = assign_carriers(scenario.topology, info)
    if previous is not None and previous.plan == plan:
        return previous, plan
    return assemble_global_model(plan, scenario), plan
