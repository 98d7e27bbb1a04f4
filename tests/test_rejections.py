"""Inputs the library rejects: gain vectors of the wrong length at every
public reader, and each remaining rejection path with its error class and
message."""

import json
import re

import numpy as np
import pytest

from wsngain import (
    CentralizedScenario,
    ConstraintSpec,
    DegenerateGains,
    ExperimentConfig,
    GainVector,
    InconsistentPlan,
    InvalidConfig,
    assign_carriers,
    build_lifted,
    build_topology,
    centralized_model,
    decentralized_model,
    gen_centralized_scenario,
    gen_decentralized_scenario,
    global_mle,
    global_variance,
    information_table,
    local_mle,
    random_connected_topology,
    received_by_sink,
    refine,
    run_consensus,
    simulate_measurement,
    to_json_dict,
)
from wsngain.cli import main
from wsngain.diffusion import link_terms
from wsngain.estimator import combined_covariance, initial_streams

N = 10


def raises(error, message):
    return pytest.raises(error, match=re.escape(message))


@pytest.fixture(scope="module")
def case():
    """A 10-sensor decentralized scenario with its compressed model, plan and
    received rows, and a 10-sensor centralized scenario with its dense model."""
    scen = gen_decentralized_scenario(random_connected_topology(N, 0.4, 1), seed=2)
    model, plan = decentralized_model(scen, np.ones(N))
    y = simulate_measurement(scen, np.ones(N), plan, np.random.default_rng(3))
    central = gen_centralized_scenario(N, 3, seed=4)
    return {"scen": scen, "model": model, "plan": plan, "received": received_by_sink(plan, y),
            "central": central, "dense": centralized_model(central)}


READERS = {
    "information_table": lambda c, a: information_table(a, c["scen"]),
    "link_terms": lambda c, a: link_terms(c["scen"], a, slice(None)),
    "decentralized_model": lambda c, a: decentralized_model(c["scen"], a),
    "combined_covariance": lambda c, a: combined_covariance(c["dense"], a),
    "global_variance compressed": lambda c, a: global_variance(c["model"], a),
    "global_variance dense": lambda c, a: global_variance(c["dense"], a),
    "global_mle": lambda c, a: global_mle(c["model"], a, np.ones(N)),
    "simulate_measurement decentralized":
        lambda c, a: simulate_measurement(c["scen"], a, c["plan"], np.random.default_rng(0)),
    "simulate_measurement centralized":
        lambda c, a: simulate_measurement(c["central"], a, rng=np.random.default_rng(0)),
    "local_mle": lambda c, a: local_mle(
        1, a, c["scen"], np.ones(len(c["scen"].topology.neighbors(1)))),
    "initial_streams": lambda c, a: initial_streams(c["scen"], a, c["plan"], c["received"]),
    "run_consensus": lambda c, a: run_consensus(c["scen"], a, c["plan"], c["received"]),
    "build_lifted compressed": lambda c, a: build_lifted(c["model"], a),
    "build_lifted dense": lambda c, a: build_lifted(c["dense"], a),
    "refine": lambda c, a: refine(c["dense"], a, ConstraintSpec.phase_only()),
}


@pytest.mark.parametrize("reader", READERS)
def test_every_gain_reader_rejects_a_vector_of_the_wrong_length(case, reader):
    read = READERS[reader]
    read(case, np.ones(N))  # one gain per sensor is read
    for gains, shape in ((np.ones(N - 1), "(9,)"), (np.ones(N + 1), "(11,)"),
                         (GainVector(np.ones(N + 1)), "(11,)"), (np.ones((N, 1)), "(10, 1)")):
        with raises(InvalidConfig, f"{N} sensors need {N} gains, got shape {shape}"):
            read(case, gains)


# ------------------------------------------------------------- constraints


def test_constraint_spec_rejects_an_unknown_kind():
    with raises(InvalidConfig, "unknown constraint kind 'grid'"):
        ConstraintSpec("grid")


def test_phase_check_rejects_gains_off_the_unit_circle():
    with raises(InvalidConfig, "gains are not unit modulus"):
        ConstraintSpec.phase_only().check(np.array([1.0, 2.0]))


def test_quant_check_rejects_gains_off_the_grid():
    with raises(InvalidConfig, "gains are off the phase grid"):
        ConstraintSpec.quantized(4).check(np.array([1.0, np.exp(1j * np.pi / 8)]))


def test_select_check_rejects_too_many_active_sensors():
    with raises(InvalidConfig, "more active sensors than allowed"):
        ConstraintSpec.sensor_select(1).check(np.ones(2))


def test_select_phase_check_rejects_active_gains_of_unequal_modulus():
    with raises(InvalidConfig, "active gains are not constant modulus"):
        ConstraintSpec.sensor_select(2, "phase").check(np.array([np.sqrt(1.5), 1.0, 0.0]))


# --------------------------------------------------------------- estimator


def test_decentralized_simulation_needs_a_plan(case):
    with raises(InvalidConfig, "decentralized simulation needs a compression plan"):
        simulate_measurement(case["scen"], np.ones(N), None, np.random.default_rng(0))


def test_local_mle_rejects_a_wrong_sample_count(case):
    k = len(case["scen"].topology.neighbors(1))
    with raises(InvalidConfig, f"expected {k} samples for sink 1"):
        local_mle(1, np.ones(N), case["scen"], np.ones(k + 1))


def test_local_mle_rejects_a_neighbourhood_without_information(case):
    k = len(case["scen"].topology.neighbors(1))
    with raises(DegenerateGains, "sink 1 neighborhood carries no information"):
        local_mle(1, np.zeros(N), case["scen"], np.ones(k))


def test_consensus_rejects_a_network_without_information(case):
    with raises(DegenerateGains, "network carries no information"):
        run_consensus(case["scen"], np.zeros(N), case["plan"], case["received"])


def test_assign_carriers_rejects_a_table_of_the_wrong_length(case):
    with raises(InconsistentPlan, "information table length does not match topology"):
        assign_carriers(case["scen"].topology, np.ones(N + 1))


# ----------------------------------------------------------------- harness


def test_selection_config_needs_a_sigma_grid():
    with raises(InvalidConfig, "selection needs a nonempty sigma_grid"):
        ExperimentConfig(kind="selection", n_values=(6,),
                         constraint=ConstraintSpec.sensor_select(2))


def test_selection_config_needs_a_select_constraint():
    with raises(InvalidConfig, "selection experiments need a select constraint"):
        ExperimentConfig(kind="selection", n_values=(6,), sigma_grid=(1.0,),
                         constraint=ConstraintSpec.phase_only())


# ------------------------------------------------------ graphs and scenarios


def test_build_topology_needs_two_nodes():
    with raises(InvalidConfig, "need at least 2 nodes, got 1"):
        build_topology(1, [])


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
def test_random_topology_rejects_an_edge_probability_outside_the_unit_interval(p):
    with raises(InvalidConfig, f"edge_probability must be in (0, 1], got {p}"):
        random_connected_topology(5, p, 1)


def test_centralized_scenario_rejects_a_channel_of_the_wrong_shape():
    with raises(InvalidConfig, "channel shape does not match (M, N)"):
        CentralizedScenario(num_sensors=3, num_antennas=1, channel=np.ones((2, 3), dtype=complex),
                            sensor_noise_var=np.ones(3), fc_noise_var=1.0, theta=1 + 0j)


@pytest.mark.parametrize("n, m", [(0, 4), (3, 0)])
def test_centralized_generator_needs_a_sensor_and_an_antenna(n, m):
    with raises(InvalidConfig, "need at least one sensor and one antenna"):
        gen_centralized_scenario(n, m)


def test_to_json_dict_rejects_a_non_scenario():
    with raises(InvalidConfig, "cannot serialize int"):
        to_json_dict(3)


# --------------------------------------------------------------------- CLI


def test_cli_config_file_must_hold_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2]))
    assert main(["sweep", "--n", "4", "--realizations", "1", "--config", str(cfg)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "InvalidConfig", "message": "config file must hold a JSON object"}
