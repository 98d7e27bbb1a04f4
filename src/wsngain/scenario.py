"""Physical model generation and serialization.

A scenario bundles channels, noise statistics and the true parameter theta.
Centralized scenarios describe N single-antenna sensors heard by an
M-antenna fusion center; decentralized scenarios attach a complex gain to
every directed link of a connected graph.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraph, InvalidConfig, InvalidEdge
from .netgraph import Topology, build_topology, is_int, seeded_rng


def _power(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise: np.abs of a complex array may take a CPU-specific
    SIMD path, and hypot rounds |x| as scalar abs() does."""
    return np.hypot(x.real, x.imag) ** 2


@dataclass(frozen=True)
class NoiseConfig:
    """Default ranges used by the generators.

    Distances are drawn uniformly from ``d_range`` and sensor noise
    variances from ``v_range``; the receiver-side noise variance is the
    fixed ``channel_noise_var``.  Nothing in the model pins these values,
    so they are configurable and documented here.
    """

    d_range: tuple[float, float] = (1.0, 10.0)
    v_range: tuple[float, float] = (0.5, 1.5)
    channel_noise_var: float = 1.0
    path_loss_exp: float = 1.0

    def __post_init__(self):
        _check_draws(self.d_range, self.v_range, self.path_loss_exp)
        if not (self.channel_noise_var > 0) or not math.isfinite(self.channel_noise_var):
            raise InvalidConfig("channel noise variance must be finite and positive")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NoiseConfig":
        """The settings of a JSON object; an absent key keeps its default.

        A range that is not a [low, high] pair of numbers, or a variance or
        exponent that is not a number, raises InvalidConfig, as in the
        scenario schema.
        """
        base = cls()
        return cls(d_range=_range(doc, "d_range", base.d_range),
                   v_range=_range(doc, "v_range", base.v_range),
                   channel_noise_var=_number(doc, "channel_noise_var", base.channel_noise_var),
                   path_loss_exp=_number(doc, "path_loss_exp", base.path_loss_exp))


def _check_draws(d_range, v_range, path_loss_exp) -> None:
    """Raise InvalidConfig unless both ranges read 0 < low <= high < inf and
    the path-loss exponent is finite: the rule for a NoiseConfig and for
    the generation settings a scenario records."""
    for what, (lo, hi) in (("distance", d_range), ("sensor noise", v_range)):
        if not (0 < lo <= hi < math.inf):
            raise InvalidConfig(f"bad {what} range {(lo, hi)}")
    if not math.isfinite(path_loss_exp):
        raise InvalidConfig(f"path-loss exponent must be finite, got {path_loss_exp!r}")


def _check_values(sensor_noise_var, num_sensors: int, receiver_noise_var, gains, theta) -> None:
    """Raise InvalidConfig unless there are num_sensors sensor noise
    variances, every noise variance is finite and positive (as in
    NoiseConfig), and the channel or link gains and theta are finite."""
    v = np.asarray(sensor_noise_var)
    if (not (np.all(v > 0) and np.all(np.isfinite(v)))
            or not (receiver_noise_var > 0) or not math.isfinite(receiver_noise_var)):
        raise InvalidConfig("noise variances must be finite and positive")
    if v.shape != (num_sensors,):
        raise InvalidConfig(f"sensor_noise_var must hold {num_sensors} variances, "
                            f"got shape {v.shape}")
    if not np.all(np.isfinite(gains)) or not cmath.isfinite(theta):
        raise InvalidConfig("channel gains and theta must be finite")


@dataclass(frozen=True)
class CentralizedScenario:
    """N sensors, one M-antenna fusion center.

    ``channel`` is the complex M x N matrix H whose column i is sensor i's
    channel.  ``sensor_noise_var`` holds the diagonal of the (diagonal)
    observation noise covariance V; ``fc_noise_var`` is sigma_n^2, so the
    receiver noise covariance is sigma_n^2 * I_M.
    """

    num_sensors: int
    num_antennas: int
    channel: np.ndarray = field(repr=False)
    sensor_noise_var: np.ndarray = field(repr=False)
    fc_noise_var: float
    theta: complex
    seed: int | None = None
    alpha: float = 1.0
    d_range: tuple[float, float] = (1.0, 10.0)
    v_range: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self):
        _check_values(self.sensor_noise_var, self.num_sensors, self.fc_noise_var, self.channel,
                      self.theta)
        _check_draws(self.d_range, self.v_range, self.alpha)
        if self.channel.shape != (self.num_antennas, self.num_sensors):
            raise InvalidConfig("channel shape does not match (M, N)")
        if np.any(np.all(self.channel == 0, axis=0)):
            raise InvalidConfig("channel has an all-zero column")


@dataclass(frozen=True)
class DecentralizedScenario:
    """Sensors on a graph; every directed link carries its own gain.

    ``gain_by_link`` holds h_{rx,tx}, the coefficient seen by receiver
    ``rx`` for transmitter ``tx``, as one complex array (2|E| long, O(E)
    memory) in :meth:`Topology.directed_links` order: sink (receiver)
    major, transmitters ascending.  Both directions of each edge are
    present and may differ; :meth:`Topology.link_index` finds a link's
    position.
    """

    topology: Topology
    gain_by_link: np.ndarray = field(repr=False)
    sensor_noise_var: np.ndarray = field(repr=False)
    comm_noise_var: float
    theta: complex
    seed: int | None = None
    alpha: float = 1.0
    d_range: tuple[float, float] = (1.0, 10.0)
    v_range: tuple[float, float] = (0.5, 1.5)

    def __post_init__(self):
        gains = np.asarray(self.gain_by_link, dtype=complex)
        if gains.shape != (2 * self.topology.num_edges,):
            raise InvalidConfig("link gains must cover both directions of every edge")
        object.__setattr__(self, "gain_by_link", gains)
        _check_values(self.sensor_noise_var, self.num_sensors, self.comm_noise_var,
                      self.gain_by_link, self.theta)
        _check_draws(self.d_range, self.v_range, self.alpha)

    @property
    def num_sensors(self) -> int:
        return self.topology.num_nodes

    @cached_property
    def noise_by_link(self) -> np.ndarray:
        """Each directed link's parent noise variance, sigma_v^2 of the
        transmitter, in :meth:`Topology.directed_links` order.  Built once;
        read-only."""
        v = np.asarray(self.sensor_noise_var, dtype=float)[self.topology.indexed_links()[1]]
        v.flags.writeable = False
        return v

    @cached_property
    def power_by_link(self) -> np.ndarray:
        """Each directed link's power |h|^2, :func:`_power` of ``gain_by_link``.
        Built on first use; read-only."""
        c = _power(self.gain_by_link)
        c.flags.writeable = False
        return c


def gen_centralized_scenario(
    num_sensors: int,
    num_antennas: int = 4,
    noise: NoiseConfig = NoiseConfig(),
    theta: complex = 1 + 0j,
    seed: int = 0,
) -> CentralizedScenario:
    """Generate a centralized scenario, deterministic given the seed (a
    non-negative integer; any other seed raises InvalidConfig).

    Each sensor gets one distance d_i shared by all M antennas; phases are
    drawn independently per antenna, so H[m, i] = e^{j gamma_{m,i}} / d_i^alpha.
    """
    if num_sensors < 1 or num_antennas < 1:
        raise InvalidConfig("need at least one sensor and one antenna")
    rng = seeded_rng(seed)
    d = rng.uniform(noise.d_range[0], noise.d_range[1], num_sensors)
    phases = rng.uniform(0.0, 2.0 * np.pi, (num_antennas, num_sensors))
    channel = np.exp(1j * phases) / d[None, :] ** noise.path_loss_exp
    v = rng.uniform(noise.v_range[0], noise.v_range[1], num_sensors)
    return CentralizedScenario(
        num_sensors=num_sensors,
        num_antennas=num_antennas,
        channel=channel,
        sensor_noise_var=v,
        fc_noise_var=noise.channel_noise_var,
        theta=complex(theta),
        seed=seed,
        alpha=noise.path_loss_exp,
        d_range=noise.d_range,
        v_range=noise.v_range,
    )


def gen_decentralized_scenario(
    topology: Topology,
    noise: NoiseConfig = NoiseConfig(),
    theta: complex = 1 + 0j,
    seed: int = 0,
) -> DecentralizedScenario:
    """Generate per-directed-link gains on a given topology.

    Every directed link gets an independent distance and phase draw; links
    are visited in sorted edge order, (i, j) before (j, i), which pins the
    RNG stream for reproducibility.  Link gains are e^{j gamma} / d^alpha
    with d ~ Uniform(d_range) and gamma ~ Uniform[0, 2pi); one (links, 2)
    draw holds the (distance, phase) pairs, link by link.  The gains are
    stored in :meth:`Topology.directed_links` order (``gain_by_link``).
    """
    rng = seeded_rng(seed)
    order = topology.edge_link_index()  # the position of each drawn link
    draws = rng.uniform([noise.d_range[0], 0.0], [noise.d_range[1], 2.0 * np.pi], size=(len(order), 2))
    # Python-float powers: numpy's vectorized power can differ in the last bit
    loss = [d ** noise.path_loss_exp for d in draws[:, 0].tolist()]
    gains = np.empty(len(order), dtype=complex)
    gains[order] = np.exp(1j * draws[:, 1]) / np.array(loss)
    v = rng.uniform(noise.v_range[0], noise.v_range[1], topology.num_nodes)
    return DecentralizedScenario(
        topology=topology,
        gain_by_link=gains,
        sensor_noise_var=v,
        comm_noise_var=noise.channel_noise_var,
        theta=complex(theta),
        seed=seed,
        alpha=noise.path_loss_exp,
        d_range=noise.d_range,
        v_range=noise.v_range,
    )


def _c2pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def to_json_dict(scenario) -> dict:
    """Serialize a scenario to the documented JSON schema (lossless)."""
    if isinstance(scenario, CentralizedScenario):
        doc = {
            "kind": "centralized",
            "N": scenario.num_sensors,
            "M": scenario.num_antennas,
            "theta": _c2pair(scenario.theta),
            "H": [[_c2pair(z) for z in row] for row in scenario.channel],
            "sensor_noise_var": [float(x) for x in scenario.sensor_noise_var],
            "fc_noise_var": float(scenario.fc_noise_var),
        }
    elif isinstance(scenario, DecentralizedScenario):
        sinks, parents = scenario.topology.directed_links()
        doc = {
            "kind": "decentralized",
            "N": scenario.num_sensors,
            "theta": _c2pair(scenario.theta),
            "edges": [[i, j] for i, j in scenario.topology.edges],
            "links": [
                {"rx": rx, "tx": tx, "gain": _c2pair(g)}
                for rx, tx, g in zip(sinks.tolist(), parents.tolist(),
                                     scenario.gain_by_link.tolist())
            ],
            "sensor_noise_var": [float(x) for x in scenario.sensor_noise_var],
            "comm_noise_var": float(scenario.comm_noise_var),
        }
    else:
        raise InvalidConfig(f"cannot serialize {type(scenario).__name__}")
    return {**doc, "seed": scenario.seed, "alpha": scenario.alpha,
            "d_range": list(scenario.d_range), "v_range": list(scenario.v_range)}


# the keys from_json_dict needs for each kind; seed, alpha and the ranges have defaults
_REQUIRED = {
    "centralized": ("N", "M", "theta", "H", "sensor_noise_var", "fc_noise_var"),
    "decentralized": ("N", "theta", "edges", "links", "sensor_noise_var", "comm_noise_var"),
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)  # JSON true is no number


def _numbers(value, count: int | None = None) -> bool:
    # a JSON list of numbers, of the given length if any
    return (isinstance(value, list) and (count is None or len(value) == count)
            and all(map(_is_number, value)))


def _pair2c(pair, what: str) -> complex:
    # inverse of _c2pair for a JSON [re, im] pair of numbers
    if not _numbers(pair, 2):
        raise InvalidConfig(f"{what} must be a [re, im] pair of numbers, got {pair!r}")
    return complex(pair[0], pair[1])


def _count(doc: dict, key: str) -> int:
    if not is_int(doc[key]) or doc[key] < 1:
        raise InvalidConfig(f"{key} must be a positive integer, got {doc[key]!r}")
    return doc[key]


def _number(doc: dict, key: str, default=None):
    value = doc.get(key, default)
    if not _is_number(value):
        raise InvalidConfig(f"{key} must be a number, got {value!r}")
    return value


def _noise_vars(doc: dict) -> np.ndarray:
    if not _numbers(doc["sensor_noise_var"]):
        raise InvalidConfig(f"sensor_noise_var must be a list of numbers, "
                            f"got {doc['sensor_noise_var']!r}")
    return np.array(doc["sensor_noise_var"], dtype=float)


def _range(doc: dict, key: str, default: tuple[float, float]) -> tuple:
    value = doc.get(key, list(default))
    if not _numbers(value, 2):
        raise InvalidConfig(f"{key} must be a [low, high] pair of numbers, got {value!r}")
    return tuple(value)


def from_json_dict(doc: dict):
    """Inverse of :func:`to_json_dict`.

    Raises InvalidConfig for a document that does not follow the schema:
    an unknown kind, a missing key, a non-integer N or M, N or M that
    disagree with the data, a theta or gain that is not an [re, im] pair
    of numbers, a noise variance, alpha or range that is not a number (or
    a list or pair of numbers), a non-finite alpha, a range outside
    0 < low <= high < inf, a seed that is neither an integer nor null, an
    edge or link entry of the wrong shape, a node label that is not an
    integer in 1..N, a link off the graph or listed twice, or an edge
    direction without a link.
    """
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in _REQUIRED:
        raise InvalidConfig(f"unknown scenario kind {kind!r}")
    missing = [key for key in _REQUIRED[kind] if key not in doc]
    if missing:
        raise InvalidConfig(f"{kind} scenario lacks {', '.join(missing)}")
    n = _count(doc, "N")
    theta = _pair2c(doc["theta"], "theta")
    seed = doc.get("seed")
    if seed is not None and not is_int(seed):
        raise InvalidConfig(f"seed must be an integer or null, got {seed!r}")
    common = dict(
        seed=seed,
        alpha=_number(doc, "alpha", 1.0),
        d_range=_range(doc, "d_range", (1.0, 10.0)),
        v_range=_range(doc, "v_range", (0.5, 1.5)),
    )
    if kind == "centralized":
        m = _count(doc, "M")
        rows = doc["H"]
        if not (isinstance(rows, list) and len(rows) == m
                and all(isinstance(row, list) and len(row) == n for row in rows)):
            raise InvalidConfig(f"H must hold M = {m} rows of N = {n} entries")
        channel = np.array([[_pair2c(z, "an H entry") for z in row] for row in rows], dtype=complex)
        return CentralizedScenario(
            num_sensors=n,
            num_antennas=m,
            channel=channel,
            sensor_noise_var=_noise_vars(doc),
            fc_noise_var=_number(doc, "fc_noise_var"),
            theta=theta,
            **common,
        )
    edges, entries = doc["edges"], doc["links"]
    if not (isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2 and all(map(is_int, e)) for e in edges)):
        raise InvalidConfig("edges must be a list of [i, j] pairs of integer node labels")
    try:
        topology = build_topology(n, [tuple(e) for e in edges])
    except (InvalidEdge, DisconnectedGraph) as exc:
        raise InvalidConfig(f"edges do not form a graph on N = {n} nodes: {exc}") from None
    if not (isinstance(entries, list) and all(
            isinstance(e, dict) and {"rx", "tx", "gain"} <= e.keys()
            and is_int(e["rx"]) and is_int(e["tx"]) and 1 <= e["rx"] <= n and 1 <= e["tx"] <= n
            for e in entries)):
        raise InvalidConfig("links must be a list of entries with rx and tx in 1..N and a gain")
    try:
        links = topology.link_index([e["rx"] for e in entries], [e["tx"] for e in entries])
    except InvalidEdge as exc:
        raise InvalidConfig(f"a link entry is off the graph: {exc}") from None
    if len(np.unique(links)) != len(links):
        raise InvalidConfig("a link is listed twice")
    if len(links) != 2 * topology.num_edges:
        raise InvalidConfig("link gains must cover both directions of every edge")
    gains = np.empty(len(links), dtype=complex)
    gains[links] = [_pair2c(e["gain"], "a link gain") for e in entries]
    return DecentralizedScenario(
        topology=topology,
        gain_by_link=gains,
        sensor_noise_var=_noise_vars(doc),
        comm_noise_var=_number(doc, "comm_noise_var"),
        theta=theta,
        **common,
    )


def save_scenario(scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(scenario), fh, indent=2)
        fh.write("\n")


def load_scenario(path):
    with open(path) as fh:
        return from_json_dict(json.load(fh))
