"""Topology construction and random connected graph generation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wsngain import (
    DisconnectedGraph,
    GenerationFailed,
    InvalidEdge,
    build_topology,
    gen_decentralized_scenario,
    random_connected_topology,
    to_json_dict,
)
from wsngain import netgraph
from wsngain.netgraph import DEFAULT_RETRIES

TOY_TREE_EDGES = [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)]


def test_path_graph_neighbors():
    topo = build_topology(2, [(1, 2)])
    assert topo.neighbors(1) == (2,)
    assert topo.neighbors(2) == (1,)
    assert topo.num_edges == 1


def test_toy_tree_neighbors():
    topo = build_topology(6, TOY_TREE_EDGES)
    assert topo.neighbors(3) == (1, 2, 4)
    assert topo.neighbors(4) == (3, 5, 6)
    assert topo.degree(3) == 3


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraph):
        build_topology(3, [(1, 2)])


def test_self_loop_rejected():
    with pytest.raises(InvalidEdge):
        build_topology(3, [(1, 1), (1, 2), (2, 3)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(InvalidEdge):
        build_topology(3, [(1, 2), (2, 4)])


def test_link_index_positions_and_non_links():
    topo = build_topology(6, TOY_TREE_EDGES)
    sinks, parents = topo.directed_links()
    assert np.array_equal(topo.link_index(sinks, parents), np.arange(2 * topo.num_edges))
    with pytest.raises(ValueError):  # built once and shared by every caller
        sinks[0] = 2
    assert topo.link_index([4, 3], [6, 1]).tolist() == [7, 2]
    # a non-edge, a self pair, and labels past either end of the key range
    for sink, parent in [(1, 2), (1, 1), (6, 7), (0, 3)]:
        with pytest.raises(InvalidEdge):
            topo.link_index([3, sink], [4, parent])


def test_topology_index_arrays_are_built_once():
    # edge_link_index() and degrees() are built on the first call; every
    # later call hands out the same read-only array
    for n in (16, 50, 100):
        for seed in range(20):
            topo = random_connected_topology(n, 2 * math.log(n) / n, seed)
            order, degrees = topo.edge_link_index(), topo.degrees()
            assert topo.edge_link_index() is order and topo.degrees() is degrees
            assert not order.flags.writeable and not degrees.flags.writeable
            edges = np.array(topo.edges)
            assert np.array_equal(order, topo.link_index(edges.ravel(), edges[:, ::-1].ravel()))
            assert degrees.tolist() == [len(s) for s in topo.neighbor_seq]


def test_cached_link_indices_are_the_expressions_they_replace():
    # indexed_links(), link_index's search keys and the scenario's per-link
    # noise variances and powers are built once, read-only, and hold what
    # the per-link readers used to recompute on every call
    for n in (2, 16, 50):
        for seed in range(10):
            topo = (build_topology(2, [(1, 2)]) if n == 2
                    else random_connected_topology(n, 2 * math.log(n) / n, seed))
            sinks, parents = topo.directed_links()
            cached = topo.indexed_links()
            assert all(x is y for x, y in zip(cached, topo.indexed_links()))
            keys = topo._indexed[3]
            for array in (*cached, keys):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
            sink0, parent0, starts = cached
            assert np.array_equal(sink0, sinks - 1) and np.array_equal(parent0, parents - 1)
            assert np.array_equal(starts, np.searchsorted(sinks, np.arange(1, n + 1)))
            assert np.array_equal(keys, sinks * (n + 1) + parents)
            assert np.all(np.diff(keys) > 0)  # link_index searches them
            scen = gen_decentralized_scenario(topo, seed=seed)
            noise, power, h = scen.noise_by_link, scen.power_by_link, scen.gain_by_link
            assert noise is scen.noise_by_link and not noise.flags.writeable
            assert noise.tobytes() == np.asarray(scen.sensor_noise_var, float)[parents - 1].tobytes()
            assert power is scen.power_by_link and not power.flags.writeable
            assert power.tobytes() == (np.hypot(h.real, h.imag) ** 2).tobytes()
            for sink, parent in [(1, 1), (n, n + 1), (0, 1)]:
                with pytest.raises(InvalidEdge):
                    topo.link_index([sinks[0], sink], [parents[0], parent])


def test_duplicate_edges_collapse():
    topo = build_topology(2, [(1, 2), (2, 1)])
    assert topo.num_edges == 1


def test_p_one_gives_complete_graph():
    for n in (2, 5):
        topo = random_connected_topology(n, 1.0, seed=0)
        assert topo.num_edges == n * (n - 1) // 2
        assert all(topo.degree(i) == n - 1 for i in range(1, n + 1))


def test_random_topology_deterministic():
    a = random_connected_topology(16, 0.3, seed=7)
    b = random_connected_topology(16, 0.3, seed=7)
    assert a.edges == b.edges
    c = random_connected_topology(16, 0.3, seed=8)
    assert a.edges != c.edges


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("n", [16, 50, 100])
def test_random_topology_matches_the_list_draw(n, chunk, monkeypatch):
    # the chunked draw reads the rng.random stream in the list draw's pair
    # order, so every graph, after however many disconnected draws, and
    # every scenario generated on it are the same; at p = 1.2 ln N / N a
    # third to nearly half of the draws are disconnected.  A chunk of 3
    # pairs, below one row, makes every draw span many chunks and rows.
    if chunk is not None:
        monkeypatch.setattr(netgraph, "PAIR_CHUNK", chunk)
    p = 1.2 * math.log(n) / n
    for seed in range(100):
        topo, ref = (draw(n, p, seed) for draw in (random_connected_topology,
                                                   oracles.random_connected_topology_list))
        assert topo == ref, seed
        doc = json.dumps(to_json_dict(gen_decentralized_scenario(topo, seed=seed)))
        assert doc == json.dumps(to_json_dict(gen_decentralized_scenario(ref, seed=seed))), seed


def test_generation_failure_budget():
    # p tiny on a large graph: connectivity is (essentially) impossible, so all
    # DEFAULT_RETRIES draws fail
    with pytest.raises(GenerationFailed, match=f"after {DEFAULT_RETRIES} draws"):
        random_connected_topology(40, 1e-9, seed=0)


def test_adjacency_matches_neighbors():
    topo = build_topology(6, TOY_TREE_EDGES)
    sinks, parents = topo.directed_links()
    links = list(zip(sinks.tolist(), parents.tolist()))
    assert links == [(i, j) for i in range(1, 7) for j in topo.neighbors(i)]
    assert sorted(links) == sorted(TOY_TREE_EDGES + [(j, i) for i, j in TOY_TREE_EDGES])


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 12), p=st.floats(0.3, 1.0), seed=st.integers(0, 10_000))
def test_random_topology_invariants(n, p, seed):
    topo = random_connected_topology(n, p, seed)
    # symmetry of membership
    for i in range(1, n + 1):
        for j in topo.neighbors(i):
            assert i in topo.neighbors(j)
    # handshake
    assert int(np.sum(topo.degrees())) == 2 * topo.num_edges
    # neighbor lists sorted ascending
    for i in range(1, n + 1):
        s = topo.neighbors(i)
        assert list(s) == sorted(s)
