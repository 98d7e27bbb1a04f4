"""Undirected connected network topologies with ordered neighbor sequences.

Nodes are labeled 1..N.  Neighbor sequences are strict (a node is never
listed as its own neighbor) and sorted ascending, which keeps selection
matrices and consensus updates reproducible.  Consumers that need the
closed neighborhood adjoin the node index themselves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraph, GenerationFailed, InvalidConfig, InvalidEdge

DEFAULT_RETRIES = 200
PAIR_CHUNK = 1 << 20  # pairs per rng.random call of random_connected_topology


def is_int(x) -> bool:
    """An integer (Python or numpy), never a bool: JSON true is no integer."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def seeded_rng(seed) -> np.random.Generator:
    """np.random.default_rng(seed) for a non-negative integer seed (is_int);
    any other seed raises InvalidConfig."""
    if not is_int(seed) or seed < 0:
        raise InvalidConfig(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class Topology:
    """Immutable undirected connected graph.

    Attributes
    ----------
    num_nodes : int
        Number of nodes N; labels run 1..N.
    edges : tuple of (int, int)
        Unordered edges stored as (min, max) pairs, sorted.
    neighbor_seq : tuple of tuple of int
        ``neighbor_seq[i - 1]`` is S^i, the ascending sequence of strict
        neighbors of node i.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    neighbor_seq: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Strict neighbor sequence S^node, ascending."""
        return self.neighbor_seq[node - 1]

    def degree(self, node: int) -> int:
        return len(self.neighbor_seq[node - 1])

    def degrees(self) -> np.ndarray:
        """All node degrees as an integer vector indexed by node - 1; built once, read-only."""
        return self._links[2]

    def directed_links(self) -> tuple[np.ndarray, np.ndarray]:
        """Every directed link as (sinks, parents), both 2|E| long.

        Sink-major with parents ascending inside each sink: the links of
        sink i are (i, j) for j in S^i.  Built once; both are read-only.
        """
        return self._links[:2]

    @cached_property
    def _links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        degrees = np.array([len(s) for s in self.neighbor_seq], dtype=int)
        sinks = np.repeat(np.arange(1, self.num_nodes + 1), degrees)
        parents = np.concatenate(self.neighbor_seq)
        sinks.flags.writeable = parents.flags.writeable = degrees.flags.writeable = False
        return sinks, parents, degrees

    def indexed_links(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`directed_links` as 0-based (sinks, parents), with each
        sink's first position: ``sinks - 1``, ``parents - 1`` and
        ``cumsum(degrees) - degrees``, the indices the per-link readers
        gather and reduce by.  Built once; all three are read-only."""
        return self._indexed[:3]

    @cached_property
    def _indexed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        sinks, parents, degrees = self._links
        # link_index's search keys sink (N+1) + parent ascend in directed_links order
        cached = (sinks - 1, parents - 1, np.cumsum(degrees) - degrees,
                  sinks * (self.num_nodes + 1) + parents)
        for array in cached:
            array.flags.writeable = False
        return cached

    def edge_link_index(self) -> np.ndarray:
        """Positions in :meth:`directed_links` order of the links in sorted
        edge order, (i, j) before (j, i): the order in which the generators
        draw link gains and link noise.  Built once; read-only."""
        return self._edge_links

    @cached_property
    def _edge_links(self) -> np.ndarray:
        edges = np.array(self.edges)
        order = self.link_index(edges.ravel(), edges[:, ::-1].ravel())
        order.flags.writeable = False
        return order

    def link_index(self, sinks, parents) -> np.ndarray:
        """Positions of the links (sinks[l], parents[l]) in :meth:`directed_links`
        order; raises :class:`InvalidEdge` for a pair that is not a link."""
        all_sinks, all_parents = self.directed_links()
        sinks, parents = np.asarray(sinks, dtype=int), np.asarray(parents, dtype=int)
        pos = np.searchsorted(self._indexed[3], sinks * (self.num_nodes + 1) + parents)
        at = np.minimum(pos, len(all_sinks) - 1)
        bad = np.flatnonzero((all_sinks[at] != sinks) | (all_parents[at] != parents))
        if len(bad):
            raise InvalidEdge(f"({sinks[bad[0]]}, {parents[bad[0]]}) is not a directed link")
        return pos


def _connected(num_nodes: int, adj: dict[int, set[int]]) -> bool:
    # BFS from node 1; the graph is connected iff all N nodes are reached.
    seen = {1}
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == num_nodes


def build_topology(num_nodes: int, edges) -> Topology:
    """Validate an edge list and build a :class:`Topology`.

    Parameters
    ----------
    num_nodes : int
        Node count, at least 2.
    edges : iterable of (int, int)
        Undirected edges over 1-based labels.

    Raises
    ------
    InvalidEdge
        On a self-loop or an endpoint outside [1, num_nodes].
    DisconnectedGraph
        If some node is unreachable from node 1.
    """
    if num_nodes < 2:
        raise InvalidConfig(f"need at least 2 nodes, got {num_nodes}")
    canon = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise InvalidEdge(f"self-loop at node {i}")
        if not (1 <= i <= num_nodes and 1 <= j <= num_nodes):
            raise InvalidEdge(f"edge ({i},{j}) outside 1..{num_nodes}")
        canon.add((min(i, j), max(i, j)))
    adj = {u: set() for u in range(1, num_nodes + 1)}
    for i, j in canon:
        adj[i].add(j)
        adj[j].add(i)
    if not _connected(num_nodes, adj):
        raise DisconnectedGraph(f"graph on {num_nodes} nodes is not connected")
    neighbor_seq = tuple(tuple(sorted(adj[u])) for u in range(1, num_nodes + 1))
    return Topology(num_nodes, tuple(sorted(canon)), neighbor_seq)


def random_connected_topology(num_nodes: int, edge_probability: float, seed: int) -> Topology:
    """Erdos-Renyi draw, resampled until connected.

    Each draw reads one ``rng.random`` value per pair i < j, row-major
    ((1, 2), (1, 3), ..., (2, 3), ...), and keeps the pairs below
    ``edge_probability``.  The stream is read in chunks of at most
    ``PAIR_CHUNK`` pairs, so a draw holds O(N + E + PAIR_CHUNK) memory
    rather than the N(N-1)/2 pairs at once; the chunks read the stream
    that one draw over every pair would.

    Deterministic given the seed, a non-negative integer (any other seed
    raises InvalidConfig).  Raises :class:`GenerationFailed` after
    ``DEFAULT_RETRIES`` disconnected draws, which signals that
    ``edge_probability`` is too low for the requested size.
    """
    if not 0.0 < edge_probability <= 1.0:
        raise InvalidConfig(f"edge_probability must be in (0, 1], got {edge_probability}")
    rng = seeded_rng(seed)
    # row_start[i] is the pair index of (i + 1, i + 2), the first pair of row i + 1
    row_start = np.concatenate(([0], np.cumsum(np.arange(num_nodes - 1, 0, -1))))
    total = int(row_start[-1])
    for _ in range(DEFAULT_RETRIES):
        kept = [np.flatnonzero(rng.random(min(PAIR_CHUNK, total - start)) < edge_probability)
                + start for start in range(0, total, PAIR_CHUNK)]
        pairs = np.concatenate(kept) if kept else np.zeros(0, dtype=int)
        rows = np.searchsorted(row_start, pairs, side="right") - 1
        cols = pairs - row_start[rows] + rows + 1
        try:
            return build_topology(num_nodes, zip((rows + 1).tolist(), (cols + 1).tolist()))
        except DisconnectedGraph:
            continue
    raise GenerationFailed(
        f"no connected graph after {DEFAULT_RETRIES} draws "
        f"(N={num_nodes}, p={edge_probability})"
    )
