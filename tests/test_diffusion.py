"""Compression plans, information values, and the compressed global model.

The toy fixtures pin down the carrier assignment rules: a six-node tree
where nodes {1,2,4} hand their data to node 3 and {3,5,6} to node 4, plus
degenerate two-node and star graphs exercising the tie rules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wsngain import (
    CompressionPlan,
    GainVector,
    InconsistentPlan,
    InvalidConfig,
    NoiseConfig,
    assemble_global_model,
    assign_carriers,
    build_topology,
    centralized_model,
    decentralized_model,
    gen_centralized_scenario,
    gen_decentralized_scenario,
    information_table,
    random_connected_topology,
)
from wsngain.diffusion import _product, link_terms
from wsngain.estimator import initial_streams
from wsngain.scenario import DecentralizedScenario

TOY_TREE = build_topology(6, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)])


def scalar_link_scenario(gain_12=1.0, gain_21=1.0):
    return DecentralizedScenario(
        topology=build_topology(2, [(1, 2)]),
        gain_by_link=np.array([gain_12, gain_21], dtype=complex),  # links (1, 2), (2, 1)
        sensor_noise_var=np.array([1.0, 1.0]),
        comm_noise_var=1.0,
        theta=1 + 0j,
    )


def test_information_value_scalar_cases():
    scen = scalar_link_scenario()
    ones = GainVector(np.ones(2, dtype=complex))
    # one neighbor, a=h=1: 1/(1+1)
    assert information_table(ones, scen)[0] == pytest.approx(0.5)
    doubled = GainVector(np.array([2.0, 2.0], dtype=complex))
    assert information_table(doubled, scen)[0] == pytest.approx(0.8)


def test_information_value_two_identical_neighbors():
    topo = build_topology(3, [(1, 2), (1, 3), (2, 3)])
    scen = DecentralizedScenario(
        topology=topo,
        gain_by_link=np.ones(6, dtype=complex),
        sensor_noise_var=np.ones(3),
        comm_noise_var=1.0,
        theta=1 + 0j,
    )
    assert information_table(GainVector(np.ones(3, dtype=complex)), scen)[0] == pytest.approx(1.0)


def test_information_value_matches_dense_oracle():
    # diagonal closed form vs a dense covariance solve on random scenarios:
    # the table entry and I_i(0) over the plan's rows
    rng = np.random.default_rng(3)

    def dense(sink, parents, scen, a):
        gains = oracles.link_gains(scen)
        h_rows = np.zeros((len(parents), 7), dtype=complex)
        for r, k in enumerate(parents):
            h_rows[r, k - 1] = gains[(sink, k)]
        return oracles.dense_information(h_rows, a, scen.sensor_noise_var, scen.comm_noise_var)

    for seed in range(5):
        topo = random_connected_topology(7, 0.5, seed=seed)
        scen = gen_decentralized_scenario(topo, NoiseConfig(), 1 + 0j, seed=seed)
        a = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        table = information_table(a, scen)
        _, plan = decentralized_model(scen, a)
        # I_i(0) does not depend on the samples
        zeros = {sink: np.zeros(len(rows))
                 for sink, rows in enumerate(oracles.retained_rows(plan), start=1)}
        i0, _ = initial_streams(scen, a, plan, zeros)
        for sink in range(1, 8):
            want = dense(sink, topo.neighbors(sink), scen, a)
            assert table[sink - 1] == pytest.approx(want, rel=1e-10)
            retained = oracles.retained_rows(plan)[sink - 1]
            assert i0[sink - 1] == pytest.approx(dense(sink, retained, scen, a), rel=1e-10)


def test_assign_carriers_toy_tree():
    plan = assign_carriers(TOY_TREE, np.array([2.0, 6.0, 5.0, 7.0, 1.0, 3.0]))
    assert plan.carrier == (3, 3, 4, 3, 4, 4)
    assert oracles.retained_rows(plan)[2] == (1, 2, 4)  # sink 3
    assert oracles.retained_rows(plan)[3] == (3, 5, 6)  # sink 4
    assert plan.r == 2 * 5 - 6
    assert plan.m_dim == 6


def test_assign_carriers_two_node():
    plan = assign_carriers(build_topology(2, [(1, 2)]), np.array([9.0, 1.0]))
    assert plan.carrier == (2, 1)
    assert plan.r == 0
    assert plan.m_dim == 2


def test_assign_carriers_tie_to_lowest_index():
    star = build_topology(4, [(1, 2), (1, 3), (1, 4)])
    plan = assign_carriers(star, np.array([1.0, 5.0, 5.0, 2.0]))
    # leaves must choose the center; the center ties 5 vs 5 -> node 2
    assert plan.carrier == (2, 1, 1, 1)


def test_assign_carriers_rejects_non_finite_values():
    star = build_topology(4, [(1, 2), (1, 3), (1, 4)])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidConfig):
            assign_carriers(star, np.array([1.0, bad, 5.0, 2.0]))


@st.composite
def graphs_with_values(draw):
    # a random spanning tree plus random extra edges, and information values
    # from three levels so that ties are common
    n = draw(st.integers(2, 9))
    edges = [(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=12))
    info = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n))
    return build_topology(n, edges + [e for e in extra if e[0] != e[1]]), info


@settings(max_examples=80, deadline=None)
@given(case=graphs_with_values())
def test_assign_carriers_matches_literal_rule(case):
    topo, info = case
    plan = assign_carriers(topo, np.array(info))
    assert plan.carrier == oracles.carriers(topo.neighbor_seq, info)
    retained = oracles.retained_rows(plan)
    sinks, parents = plan.rows()
    assert sinks.tolist() == [sink for sink, rows in enumerate(retained, start=1) for _ in rows]
    assert parents.tolist() == [k for rows in retained for k in rows]


def test_assemble_two_node_model():
    scen = scalar_link_scenario()
    plan = assign_carriers(scen.topology, np.ones(2))
    model = assemble_global_model(plan, scen)
    assert np.array_equal(oracles.dense_h(model), np.array([[0, 1], [1, 0]], dtype=complex))
    sinks, parents = plan.rows()
    assert list(zip(sinks.tolist(), parents.tolist())) == [(1, 2), (2, 1)]


def test_assemble_toy_tree_structure():
    scen = gen_decentralized_scenario(TOY_TREE, NoiseConfig(), 1 + 0j, seed=2)
    plan = assign_carriers(TOY_TREE, np.array([2.0, 6.0, 5.0, 7.0, 1.0, 3.0]))
    h = oracles.dense_h(assemble_global_model(plan, scen))
    assert h.shape == (6, 6)
    # one nonzero per row, sink-major: rows of sink 3 cover columns {1,2,4}
    nnz_cols = [int(np.flatnonzero(h[r]).item()) + 1 for r in range(6)]
    assert sorted(nnz_cols[:3]) == [1, 2, 4]
    assert sorted(nnz_cols[3:]) == [3, 5, 6]
    gains = oracles.link_gains(scen)
    for r, (sink, parent) in enumerate(zip(*plan.rows())):
        assert h[r, parent - 1] == gains[(sink, parent)]


def test_assemble_rejects_non_neighbor_rows():
    scen = scalar_link_scenario()
    # node 2's carrier is itself, so the plan keeps a row off the graph
    bad = CompressionPlan(carrier=(2, 2), r=0)
    with pytest.raises(InconsistentPlan):
        assemble_global_model(bad, scen)


def test_assemble_rejects_plan_missing_a_node():
    # a plan for two of three path nodes would silently drop sensor 3
    path = build_topology(3, [(1, 2), (2, 3)])
    scen = gen_decentralized_scenario(path, NoiseConfig(), 1 + 0j, seed=0)
    with pytest.raises(InconsistentPlan):
        assemble_global_model(CompressionPlan(carrier=(2, 1), r=2 * 2 - 3), scen)


def test_single_nonzero_column_property():
    for seed in range(8):
        topo = random_connected_topology(8, 0.4, seed=seed)
        scen = gen_decentralized_scenario(topo, NoiseConfig(), 1 + 0j, seed=seed)
        model, plan = decentralized_model(scen, np.ones(8, dtype=complex))
        assert plan.m_dim == 8
        assert plan.r == 2 * topo.num_edges - 8
        h = oracles.dense_h(model)
        nnz_per_col = (np.abs(h) > 0).sum(axis=0)
        assert np.all(nnz_per_col == 1)
        nnz_per_row = (np.abs(h) > 0).sum(axis=1)
        assert np.all(nnz_per_row == 1)


def test_carrier_uses_current_gains():
    # raising node 2's gain raises its neighbors' information values, so
    # node 1 hands its data to whichever neighbor hears the boosted node
    topo = build_topology(3, [(1, 2), (1, 3), (2, 3)])
    scen = DecentralizedScenario(
        topology=topo,
        gain_by_link=np.ones(6, dtype=complex),
        sensor_noise_var=np.ones(3),
        comm_noise_var=1.0,
        theta=1 + 0j,
    )
    _, plan_a = decentralized_model(scen, np.array([1.0, 3.0, 1.0], dtype=complex))
    _, plan_b = decentralized_model(scen, np.array([1.0, 1.0, 3.0], dtype=complex))
    assert plan_a.carrier[0] == 3  # I_3 = 1/2 + 9/10 beats I_2 = 1
    assert plan_b.carrier[0] == 2


def test_link_products_round_each_product_before_the_sum():
    # h a_k in real arithmetic, each product rounded before its sum: numpy's
    # complex * may fuse multiply-adds, and then its last bit (and a carrier
    # plan) depends on the CPU
    rng = np.random.default_rng(8)
    for seed in range(5):
        scen = gen_decentralized_scenario(random_connected_topology(50, 0.15, seed), seed=seed)
        a = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        h, k = scen.gain_by_link, scen.topology.directed_links()[1] - 1
        ak = a[k]
        want = (h.real * ak.real - h.imag * ak.imag) + 1j * (h.real * ak.imag + h.imag * ak.real)
        assert _product(h, ak).tobytes() == want.tobytes()
        assert link_terms(scen, a, slice(None))[0].tobytes() == want.tobytes(), seed


def test_information_table_sums_the_link_terms_bit_for_bit():
    # information_table gathers |a|^2 of the sensors per link and never
    # forms h a; its sums must keep every bit of bincount over link_terms
    rng = np.random.default_rng(33)
    for seed in range(8):
        n = int(rng.integers(2, 60))
        topo = random_connected_topology(n, float(rng.uniform(0.1, 0.6)), seed)
        scen = gen_decentralized_scenario(topo, seed=seed)
        sinks = topo.directed_links()[0]
        gaussian = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        partly_zero = np.where(rng.uniform(size=n) < 0.4, 0.0, gaussian)
        for a in (gaussian, np.ones(n, dtype=complex), partly_zero, GainVector(gaussian)):
            want = np.bincount(sinks - 1, weights=link_terms(scen, a, slice(None))[2],
                               minlength=n)
            assert information_table(a, scen).tobytes() == want.tobytes(), seed


def test_information_table_order():
    scen = scalar_link_scenario(gain_12=2.0, gain_21=1.0)
    table = information_table(np.ones(2, dtype=complex), scen)
    assert table[0] == pytest.approx(4.0 / 5.0)  # sink 1 hears node 2 at gain 2
    assert table[1] == pytest.approx(0.5)


def test_centralized_model_passthrough():
    scen = gen_centralized_scenario(5, 3, NoiseConfig(), seed=1)
    model = centralized_model(scen)
    assert np.array_equal(model.H, scen.channel)
    assert model.noise_var == scen.fc_noise_var
